//===- apps/MiniFMM.hpp - Fast Multipole Method proxy ----------------------===//
//
// Port of MiniFMM (paper Section V-A): dual-tree traversal with dynamic
// task parallelism. The port keeps the structural features that made
// MiniFMM the hardest case in the paper's evaluation (the one benchmark
// that still trailed CUDA by ~2x even after a 1.85x improvement):
//
//   * a sequential per-team stage (traversal bookkeeping) before the
//     parallel work — the kernel is emitted in generic mode and must be
//     SPMDized (with guarding) by the optimizer;
//   * a worksharing loop over this team's interaction pairs (P2P);
//   * a *nested* parallel region standing in for dynamic tasking, which
//     the runtime serializes with on-demand thread ICV states (Figure 4) —
//     this keeps the thread-state machinery alive and prevents complete
//     state elimination, the source of the residual gap.
//
//===----------------------------------------------------------------------===//
#pragma once

#include "apps/AppCommon.hpp"

namespace codesign::apps {

/// Workload shape: each team owns one subtree with PairsPerTeam
/// interactions (PairsPerTeam < Threads keeps the threads-oversubscription
/// build valid).
struct MiniFMMConfig {
  std::uint32_t Teams = 64;
  std::uint32_t Threads = 64;
  std::uint32_t PairsPerTeam = 48;
  std::uint64_t Seed = 4242;
};

/// The MiniFMM application.
class MiniFMM {
public:
  MiniFMM(vgpu::VirtualGPU &GPU, MiniFMMConfig Cfg = {});

  AppRunResult run(const BuildConfig &Build);

  static constexpr const char *MetricName = "pairs/kcycle";

private:
  void generate();
  void upload();
  [[nodiscard]] frontend::KernelSpec makeSpec() const;
  /// The host P2P result of every pair, then every team's mark.
  [[nodiscard]] std::vector<double> reference() const;

  AppHarness Harness;
  MiniFMMConfig Cfg;
  std::int64_t PrepBodyId = 0;
  std::int64_t P2PBodyId = 0;
  std::int64_t TaskTailId = 0;

  std::vector<double> Particles; ///< [Teams*PairsPerTeam][8] src/dst coords
  std::vector<double> Out;       ///< [Teams*PairsPerTeam]
  std::vector<double> TeamMarks; ///< [Teams] written by the serial stage
  std::vector<double> TaskCount; ///< [Teams] nested-task execution counter
};

} // namespace codesign::apps
