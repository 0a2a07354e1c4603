//===- apps/RSBench.hpp - Multipole cross-section proxy (compute bound) ----===//
//
// Port of RSBench: "a compute bound alternative implementation" of the
// OpenMC macroscopic cross-section lookup (paper Section V-A). Instead of
// gathering from large tables, each lookup evaluates a handful of
// resonance poles with complex arithmetic — few memory accesses, lots of
// FLOPs. In the paper this benchmark "already exhibited CUDA-like
// performance" under the old runtime, and the New-RT-(Nightly) build
// *regressed* — both shapes this port reproduces.
//
//===----------------------------------------------------------------------===//
#pragma once

#include "apps/AppCommon.hpp"

namespace codesign::apps {

/// Workload shape (sized so oversubscription-assuming builds are valid).
struct RSBenchConfig {
  std::uint32_t NNuclides = 32;
  std::uint32_t NWindows = 64;
  std::uint32_t NPolesPerWindow = 4;
  std::uint32_t NNuclidesPerMaterial = 6;
  std::uint32_t NMaterials = 12;
  std::uint64_t NLookups = 8192;
  std::uint32_t Teams = 64;
  std::uint32_t Threads = 128;
  std::uint64_t Seed = 1337;
};

/// The RSBench application.
class RSBench {
public:
  RSBench(vgpu::VirtualGPU &GPU, RSBenchConfig Cfg = {});

  AppRunResult run(const BuildConfig &Build);

  static constexpr const char *MetricName = "lookups/kcycle";

private:
  void generate();
  void upload();
  [[nodiscard]] frontend::KernelSpec makeSpec() const;
  /// The host result of every lookup.
  [[nodiscard]] std::vector<double> reference() const;

  AppHarness Harness;
  RSBenchConfig Cfg;
  std::int64_t BodyId = 0;

  std::vector<double> Poles;               ///< [NN][NW][NP][4]
  std::vector<std::int64_t> MaterialTable; ///< [NMat][NNucPerMat]
  std::vector<double> Out;
};

} // namespace codesign::apps
