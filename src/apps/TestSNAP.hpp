//===- apps/TestSNAP.hpp - SNAP force-calculation proxy ---------------------===//
//
// Port of TestSNAP (paper Section V-A): the SNAP force kernel from LAMMPS,
// which "performs the force calculation repeatedly, checking the results
// against the reference data" and reports a grind time. Its signature
// characteristic for this study: per-thread intermediate arrays (the
// Ulist/Zlist workspaces) that are too large for registers and live in
// team-shared scratch — so unlike the other proxies, an optimized build
// legitimately keeps a few KiB of static shared memory (Figure 11 shows
// 3076 B for the optimized New RT row).
//
// The paper reports no CUDA row for TestSNAP ("the supplied CUDA
// implementation used Kokkos for which a one-to-one kernel mapping ...
// could not be determined"); the benches mark that cell n/a.
//
//===----------------------------------------------------------------------===//
#pragma once

#include "apps/AppCommon.hpp"

namespace codesign::apps {

/// Workload shape. Threads * WorkspaceDoublesPerThread * 8 = 3072 B of
/// per-team scratch, matching the paper's TestSNAP footprint.
struct TestSNAPConfig {
  std::uint32_t NAtoms = 128;
  std::uint32_t NNeighbors = 12;
  std::uint32_t Teams = 64;
  std::uint32_t Threads = 24;
  static constexpr std::uint32_t WorkspaceDoublesPerThread = 16;
  std::uint64_t Seed = 99;
};

/// The TestSNAP application.
class TestSNAP {
public:
  TestSNAP(vgpu::VirtualGPU &GPU, TestSNAPConfig Cfg = {});

  AppRunResult run(const BuildConfig &Build);

  /// AppMetric: (atom,neighbor) pairs per kilocycle (inverse grind time).
  static constexpr const char *MetricName = "pairs/kcycle";

  /// Scratch bytes per team.
  [[nodiscard]] std::uint64_t scratchBytes() const {
    return static_cast<std::uint64_t>(Cfg.Threads) *
           TestSNAPConfig::WorkspaceDoublesPerThread * 8;
  }

private:
  void generate();
  void upload();
  [[nodiscard]] frontend::KernelSpec makeSpec() const;
  /// The host force of every pair.
  [[nodiscard]] std::vector<double> reference() const;

  AppHarness Harness;
  TestSNAPConfig Cfg;
  std::int64_t BodyId = 0;

  std::vector<double> Positions; ///< [NAtoms*NNeighbors][3]
  std::vector<double> Forces;    ///< [NAtoms*NNeighbors]
};

} // namespace codesign::apps
