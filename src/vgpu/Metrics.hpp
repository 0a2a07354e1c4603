//===- vgpu/Metrics.hpp - Launch measurements ------------------------------===//
//
// The observables of the paper's Figure 11: kernel time (cycles here),
// register count and static shared memory, plus dynamic counters that let
// the benches explain *why* a configuration is faster (fewer global/shared
// accesses, fewer barriers).
//
//===----------------------------------------------------------------------===//
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace codesign::vgpu {

/// Counters accumulated across one kernel launch.
struct LaunchMetrics {
  /// Modeled kernel duration: max over SMs of the sum of their teams'
  /// cycle counts (teams are assigned to SMs round-robin).
  std::uint64_t KernelCycles = 0;
  /// Total interpreted instructions across all threads.
  std::uint64_t DynamicInstructions = 0;
  std::uint64_t GlobalLoads = 0;
  std::uint64_t GlobalStores = 0;
  std::uint64_t SharedLoads = 0;
  std::uint64_t SharedStores = 0;
  std::uint64_t LocalAccesses = 0;
  std::uint64_t Atomics = 0;
  /// Barrier rendezvous executed (team-wide events, not per-thread).
  std::uint64_t Barriers = 0;
  /// Calls interpreted with frame setup (i.e. not inlined away).
  std::uint64_t Calls = 0;
  /// Cycles spent inside registered native operations (app compute).
  std::uint64_t NativeCycles = 0;
  /// Device mallocs performed by the runtime (thread states, stack overflow).
  std::uint64_t DeviceMallocs = 0;
  /// Concurrent teams per SM this launch achieved (occupancy), limited by
  /// shared-memory and register usage.
  std::uint32_t TeamsPerSM = 0;
};

/// Coarse dynamic-instruction classification for kernel profiles (the
/// Nsight-style "what did this kernel spend its instructions on" view).
enum class OpClass : std::uint8_t {
  IntAlu,      ///< add/sub/bitwise/shift/icmp/select/casts
  IntMulDiv,   ///< integer multiply/divide/remainder
  Float,       ///< floating-point arithmetic, compares, conversions
  Memory,      ///< loads/stores/GEPs/allocas/heap ops
  Atomic,      ///< atomic RMW / cmpxchg
  ControlFlow, ///< branches, returns, phis
  Call,        ///< non-inlined calls
  Intrinsic,   ///< thread/team geometry reads
  Sync,        ///< barriers
  Meta,        ///< assumes, assertions, traps
  Native,      ///< registered native loop bodies
};
inline constexpr std::size_t NumOpClasses = 11;

/// Stable snake_case label for an op class (JSON report keys).
const char *opClassName(OpClass C);

/// Per-launch execution profile, carried by every successful launch: the
/// teams count it alongside the metrics at no extra cost. Every field is
/// derived from the deterministic interpreter model (no wall-clock input),
/// and the teams' counters fold in team-ID order, so a profile is
/// bit-identical across HostThreads settings.
struct LaunchProfile {
  /// Dynamic instructions by class.
  std::array<std::uint64_t, NumOpClasses> OpCounts{};
  /// Memory traffic in bytes (shared vs global is the paper's Figure 11
  /// axis of explanation).
  std::uint64_t GlobalBytesRead = 0;
  std::uint64_t GlobalBytesWritten = 0;
  std::uint64_t SharedBytesRead = 0;
  std::uint64_t SharedBytesWritten = 0;
  /// Modeled cycles threads spent blocked at barrier rendezvous, summed
  /// over waiting threads (arrival-to-release, excluding the barrier cost
  /// itself).
  std::uint64_t BarrierWaitCycles = 0;
  /// Host<->device transfers this launch caused (buffer-argument mapping
  /// and unmapping). Filled by the host runtime after the device part of
  /// the launch completes — the values are host-side facts, identical
  /// across execution tiers and HostThreads settings, and zero for
  /// launches that move no data (everything already resident).
  std::uint64_t TransfersToDevice = 0;
  std::uint64_t TransfersFromDevice = 0;
  std::uint64_t BytesToDevice = 0;
  std::uint64_t BytesFromDevice = 0;
  /// Modeled link cycles of those transfers (CostModel::TransferSetupCycles
  /// + bytes / TransferBytesPerCycle per transfer).
  std::uint64_t TransferCycles = 0;
  /// Per-team imbalance: distribution of team cycle totals.
  std::uint32_t Teams = 0;
  std::uint64_t TeamCyclesMin = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t TeamCyclesMax = 0;
  std::uint64_t TeamCyclesTotal = 0;

  /// Minimum team cycle total. TeamCyclesMin itself holds a UINT64_MAX
  /// sentinel until the first team is recorded; this accessor reports 0 for
  /// a profile with no teams so serialized reports never contain the
  /// sentinel. Always read the minimum through here.
  [[nodiscard]] std::uint64_t teamCyclesMin() const {
    return Teams == 0 ? 0 : TeamCyclesMin;
  }
  /// Maximum team cycle total (0 when no teams were recorded).
  [[nodiscard]] std::uint64_t teamCyclesMax() const { return TeamCyclesMax; }
  /// Mean team cycle total (0.0 when no teams were recorded).
  [[nodiscard]] double teamCyclesMean() const {
    if (Teams == 0)
      return 0.0;
    return static_cast<double>(TeamCyclesTotal) / static_cast<double>(Teams);
  }
  /// Max/mean team cycles (1.0 = perfectly balanced; 0 when empty).
  [[nodiscard]] double teamImbalance() const {
    if (Teams == 0 || TeamCyclesTotal == 0)
      return 0.0;
    const double Mean =
        static_cast<double>(TeamCyclesTotal) / static_cast<double>(Teams);
    return static_cast<double>(TeamCyclesMax) / Mean;
  }
};

/// Static per-kernel resource usage, computed on the optimized module.
struct KernelStaticStats {
  /// Estimated registers (base + SSA liveness peak); Figure 11 "# Regs".
  unsigned Registers = 0;
  /// Bytes of per-team static shared memory surviving optimization;
  /// Figure 11 "SMem".
  std::uint64_t SharedMemBytes = 0;
  /// Instructions in the kernel after optimization (code-size metric for
  /// the feature-pruning experiment, Figure 1's "you only pay for what you
  /// use").
  std::uint64_t CodeSize = 0;
};

} // namespace codesign::vgpu
