//===- vgpu/BytecodeExecutor.hpp - Fast-tier team execution ----------------===//
//
// Executes one team of a kernel launch over lowered bytecode
// (vgpu/Bytecode.hpp). The team itself (scheduling, barriers, memory,
// accounting, native ops) is the shared team model (TeamModel.hpp), so
// trap messages, metrics, profiles and memory effects are the tree
// walker's bit for bit; the tree walker stays available behind the "tree"
// execution backend as a differential oracle for the dispatch loop.
//
// On top of that, the bytecode tier adds warp-batched execution of
// provably uniform instructions: within an aligned segment (kernel entry
// to first barrier, or between team-aligned barrier rendezvous), the first
// lane of each warp records the results of instructions flagged
// warp-uniform by the divergence analysis plus the direction of every
// conditional branch; the remaining lanes replay those results as a
// broadcast while their branch history keeps matching the recording, and
// fall back to normal per-lane execution the moment it does not (or when
// they enter a call, where the uniformity oracle no longer applies). A
// replayed instruction still performs its full dynamic-instruction and
// cycle accounting, so the observable counters cannot tell the tiers
// apart.
//
//===----------------------------------------------------------------------===//
#pragma once

#include "vgpu/Bytecode.hpp"
#include "vgpu/Interpreter.hpp"

namespace codesign::vgpu {

/// Execute team TeamId of a launch over bytecode. Pools holds the image's
/// resolved constant pools, one per BytecodeModule function
/// (ModuleImage::bytecodePools()).
TeamRunOutcome runBytecodeTeam(
    const DeviceConfig &Config, GlobalMemory &GM,
    const NativeRegistry &Registry, const ModuleImage &Image,
    const BytecodeModule &BC,
    const std::vector<std::vector<std::uint64_t>> &Pools,
    std::uint32_t TeamId, std::uint32_t NumTeams, std::uint32_t NumThreads,
    const ir::Function *Kernel, std::span<const std::uint64_t> Args,
    LaunchMetrics &Metrics, LaunchProfile *Profile);

} // namespace codesign::vgpu
