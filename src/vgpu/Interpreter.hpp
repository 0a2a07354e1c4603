//===- vgpu/Interpreter.hpp - IR interpreter with GPU execution model -----===//
//
// Module images (the device-resident layout of a module's globals and
// functions) and the tree-walking interpreter: each lane of a team walks
// the IR instruction objects directly until it blocks at a team barrier,
// finishes, or traps. Scheduling, the barrier rendezvous, memory and
// accounting are the shared team model's (TeamModel.hpp), which is what
// reproduces the execution semantics the paper's runtime relies on —
// including the generic-mode state machine, which is pure barrier
// choreography between the main thread and the workers (paper Section
// II-C).
//
//===----------------------------------------------------------------------===//
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/Module.hpp"
#include "vgpu/DeviceConfig.hpp"
#include "vgpu/Memory.hpp"
#include "vgpu/Metrics.hpp"
#include "vgpu/NativeRegistry.hpp"

namespace codesign::vgpu {

struct BytecodeModule;

using ir::Function;
using ir::GlobalVariable;
using ir::Instruction;
using ir::Module;
using ir::Value;

/// A module prepared for execution: device-resident statics laid out and
/// initialized, shared-space statics assigned per-team offsets, functions
/// given dense value-slot numberings, and function addresses assigned for
/// indirect calls (e.g. the work-function slot of the state machine).
class ModuleImage {
public:
  /// Lay out M's globals. Global/Constant-space variables are allocated in
  /// GM immediately and initialized; Shared-space variables get offsets in
  /// the per-team static segment.
  ModuleImage(const Module &M, GlobalMemory &GM);
  ~ModuleImage();
  ModuleImage(const ModuleImage &) = delete;
  ModuleImage &operator=(const ModuleImage &) = delete;

  /// The module this image was built from.
  [[nodiscard]] const Module &module() const { return M; }

  /// Device address of a module global (Global/Constant space: absolute;
  /// Shared space: team-relative).
  [[nodiscard]] DeviceAddr addressOf(const GlobalVariable *G) const;

  /// Size in bytes of the per-team static shared segment — the image's
  /// static shared memory footprint (Figure 11 "SMem").
  [[nodiscard]] std::uint64_t sharedStaticSize() const { return SharedSize; }

  /// Initialize a team's shared arena (static segment initializers, zeros
  /// elsewhere). Arena must be at least sharedStaticSize() bytes.
  void initTeamShared(std::vector<std::uint8_t> &Arena) const;

  /// Pseudo-address representing the address of function F (usable as an
  /// indirect-call target only).
  [[nodiscard]] DeviceAddr functionAddress(const Function *F) const;
  /// Reverse lookup; null when the address is not a function address.
  [[nodiscard]] const Function *functionFor(DeviceAddr A) const;

  /// Dense SSA slot numbering for F. Layouts for every module function are
  /// precomputed at image construction so lookups are safe from concurrent
  /// team-executor threads (the parallel launch engine).
  struct FunctionLayout {
    std::unordered_map<const Value *, std::uint32_t> Slots;
    std::uint32_t NumSlots = 0;
  };
  [[nodiscard]] const FunctionLayout &layout(const Function *F) const;

  /// Attach a pre-lowered bytecode module (the frontend caches one lowering
  /// per compiled kernel and shares it across images). Ignored after the
  /// image has already materialized a lowering of its own.
  void setBytecode(std::shared_ptr<const BytecodeModule> BC) const;
  /// The module's bytecode; lowered on first use when none was attached.
  /// Definitions live in Bytecode.cpp.
  [[nodiscard]] const BytecodeModule &bytecode() const;
  /// Per-function constant pools with global/function symbols resolved to
  /// this image's device addresses, indexed by BCFunction::Index.
  [[nodiscard]] const std::vector<std::vector<std::uint64_t>> &
  bytecodePools() const;

private:
  void materializeBytecodeLocked() const;

  const Module &M;
  GlobalMemory &GM;
  std::unordered_map<const GlobalVariable *, DeviceAddr> GlobalAddrs;
  std::uint64_t StaticsOffset = 0; ///< base of the statics block in GM
  std::uint64_t StaticsSize = 0;
  std::uint64_t SharedSize = 0;
  std::vector<std::uint8_t> SharedInit;
  std::vector<const Function *> FunctionsByIndex;
  std::unordered_map<const Function *, std::uint32_t> FunctionIndex;
  std::unordered_map<const Function *, FunctionLayout> Layouts;
  // Bytecode tier state: lazily materialized, guarded for the parallel
  // launch engine (mutable so a const image can serve launches).
  mutable std::mutex BCMutex;
  mutable std::shared_ptr<const BytecodeModule> BCMod;
  mutable std::vector<std::vector<std::uint64_t>> BCPools;
  mutable bool BCPoolsReady = false;
};

/// Outcome of a kernel launch.
struct LaunchResult {
  bool Ok = false;
  std::string Error;      ///< populated when !Ok (trap, deadlock, assert)
  LaunchMetrics Metrics;  ///< populated when Ok
  LaunchProfile Profile;  ///< populated when Ok and DeviceConfig::CollectProfile
};

/// Outcome of one team's execution under any backend (the per-team result
/// the exec::Backend architecture fans out over; launch orchestration lives
/// in exec/LaunchEngine.cpp).
struct TeamRunOutcome {
  std::optional<std::string> Err; ///< trap/deadlock message, empty = clean
  std::uint64_t Cycles = 0;       ///< the team's modeled wall time
};

/// Execute team TeamId of a launch by walking the IR instruction tree
/// directly (the original engine, kept as the semantic reference). Teams
/// share no mutable state except global memory reached via atomics, so
/// distinct teams may run concurrently; Metrics/Profile are this team's
/// private shards.
TeamRunOutcome runTreeTeam(const DeviceConfig &Config, GlobalMemory &GM,
                           const NativeRegistry &Registry,
                           const ModuleImage &Image, std::uint32_t TeamId,
                           std::uint32_t NumTeams, std::uint32_t NumThreads,
                           const Function *Kernel,
                           std::span<const std::uint64_t> Args,
                           LaunchMetrics &Metrics, LaunchProfile *Profile);

} // namespace codesign::vgpu
