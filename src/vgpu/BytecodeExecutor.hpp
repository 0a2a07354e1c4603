//===- vgpu/BytecodeExecutor.hpp - Fast-tier team execution ----------------===//
//
// Executes one team of a kernel launch over lowered bytecode
// (vgpu/Bytecode.hpp). The team itself (scheduling, barriers, memory,
// accounting, native ops) is the shared team model (TeamModel.hpp), so
// trap messages, metrics, profiles and memory effects are the tree
// walker's bit for bit; the tree walker stays available behind the "tree"
// execution backend as a differential oracle for the dispatch loop. Every
// lane runs every instruction itself: one dispatch, one budget check and
// one charge per bytecode instruction.
//
//===----------------------------------------------------------------------===//
#pragma once

#include "vgpu/Bytecode.hpp"
#include "vgpu/Interpreter.hpp"

namespace codesign::vgpu {

/// Execute team TeamId of a launch over bytecode. Pools holds BC's
/// constant pools resolved to Image's device addresses, one per
/// BytecodeModule function, indexed by BCFunction::Index (the bytecode
/// backend resolves them when it binds a kernel).
TeamRunOutcome runBytecodeTeam(
    const DeviceConfig &Config, GlobalMemory &GM,
    const NativeRegistry &Registry, const ModuleImage &Image,
    const BytecodeModule &BC,
    const std::vector<std::vector<std::uint64_t>> &Pools,
    std::uint32_t TeamId, std::uint32_t NumTeams, std::uint32_t NumThreads,
    const ir::Function *Kernel, std::span<const std::uint64_t> Args);

} // namespace codesign::vgpu
