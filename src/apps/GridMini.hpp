//===- apps/GridMini.hpp - Lattice QCD SU(3) proxy --------------------------===//
//
// Port of GridMini (paper Section V-A): per lattice site, multiply two
// SU(3) complex matrices (the core arithmetic of lattice QCD link-field
// updates). Reported in GFLOP-equivalents like the paper's Figure 12.
//
// Section VII reproduction: "we addressed the loop bound issue manually
// for GridMini prior to our evaluation by passing in the loop bound into
// the target region" — the BoundByValue knob switches between the fixed
// form (trip count as a kernel argument) and the original form (trip count
// loaded from device memory inside the region, whose access blocks
// aligned-barrier elimination).
//
//===----------------------------------------------------------------------===//
#pragma once

#include "apps/AppCommon.hpp"

namespace codesign::apps {

/// Workload shape: Volume = Teams * Threads by default so the
/// oversubscription build stays valid.
struct GridMiniConfig {
  std::uint64_t Volume = 4096; ///< lattice sites
  std::uint32_t Teams = 32;
  std::uint32_t Threads = 128;
  bool BoundByValue = true; ///< Section VII fix applied (paper default)
  std::uint64_t Seed = 7;
};

/// The GridMini application.
class GridMini {
public:
  GridMini(vgpu::VirtualGPU &GPU, GridMiniConfig Cfg = {});

  AppRunResult run(const BuildConfig &Build);

  /// FLOPs per site of one SU(3) x SU(3) product.
  static constexpr double FlopsPerSite = 198.0;
  static constexpr const char *MetricName = "flops/cycle";

private:
  void generate();
  void upload();
  [[nodiscard]] frontend::KernelSpec makeSpec(bool ByValue) const;
  /// The host product at every site, in FieldOut's layout.
  [[nodiscard]] std::vector<double> reference() const;

  AppHarness Harness;
  GridMiniConfig Cfg;
  std::int64_t BodyId = 0;

  std::vector<double> FieldU, FieldV, FieldOut; ///< [V][3][3][2]
  std::vector<std::int64_t> BoundBlock;         ///< device-resident bound
};

} // namespace codesign::apps
