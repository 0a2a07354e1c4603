//===- vgpu/Interpreter.hpp - IR interpreter with GPU execution model -----===//
//
// Module images (the device-resident layout of a module's globals and
// functions, and the launch plans kept for it) and the tree-walking
// interpreter: each lane of a team walks the IR instruction objects
// directly until it blocks at a team barrier, finishes, or traps.
// Scheduling, the barrier rendezvous, memory and accounting are the shared
// team model's (TeamModel.hpp), and value operations are ir/Eval.hpp's
// evaluators, which is what reproduces the execution semantics the paper's
// runtime relies on — including the generic-mode state machine, which is
// pure barrier choreography between the main thread and the workers (paper
// Section II-C).
//
//===----------------------------------------------------------------------===//
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/Module.hpp"
#include "vgpu/DeviceConfig.hpp"
#include "vgpu/Memory.hpp"
#include "vgpu/Metrics.hpp"
#include "vgpu/NativeRegistry.hpp"
#include "vgpu/TeamModel.hpp"

namespace codesign::exec {
class Backend;
class BoundKernel;
} // namespace codesign::exec

namespace codesign::vgpu {

struct BytecodeModule;

using ir::Function;
using ir::GlobalVariable;
using ir::Instruction;
using ir::Module;
using ir::Value;

/// A module prepared for execution: its device layout (device-resident
/// statics laid out and initialized, shared-space statics assigned
/// per-team offsets, function addresses assigned for indirect calls, e.g.
/// the work-function slot of the state machine) and the launch plans kept
/// for its kernels. What a backend derives from the module lives in its
/// bound kernel, inside a plan.
class ModuleImage {
public:
  /// Lay out M's globals. Global/Constant-space variables are allocated in
  /// GM immediately and initialized; Shared-space variables get offsets in
  /// the per-team static segment. Bytecode, when given, is a lowering of M
  /// (the frontend caches one per compiled kernel and shares it across
  /// images); the bytecode backend binds kernels over it instead of
  /// lowering M again, and a launch plan takes the kernel stats it carries
  /// instead of computing them.
  ModuleImage(const Module &M, GlobalMemory &GM,
              std::shared_ptr<const BytecodeModule> Bytecode = nullptr);
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

  /// The lowering the image was loaded with, or null.
  [[nodiscard]] const std::shared_ptr<const BytecodeModule> &
  bytecode() const {
    return Bytecode;
  }

  /// What launching Kernel through Backend needs besides its arguments and
  /// geometry: the kernel's static stats (the lowering's, when it carries
  /// them) and the backend's bound kernel. The first such launch builds it
  /// (exec/LaunchEngine.cpp) and the image keeps it. DetectRaces is part of
  /// the key because a backend may refuse to bind under it, and a refused
  /// bind is never kept.
  struct LaunchPlan {
    const exec::Backend *Backend = nullptr;
    const Function *Kernel = nullptr;
    bool DetectRaces = false;
    KernelStaticStats Stats;
    std::shared_ptr<exec::BoundKernel> Bound;
  };
  /// The kept plan for this key, or null.
  [[nodiscard]] const LaunchPlan *findPlan(const exec::Backend *Backend,
                                           const Function *Kernel,
                                           bool DetectRaces) const;
  /// Keep Plan unless a concurrent launch kept one for its key first;
  /// returns the kept plan, valid for the image's life.
  const LaunchPlan &addPlan(LaunchPlan Plan) const;

private:
  const LaunchPlan *findPlanLocked(const exec::Backend *Backend,
                                   const Function *Kernel,
                                   bool DetectRaces) const;

  const Module &M;
  GlobalMemory &GM;
  std::unordered_map<const GlobalVariable *, DeviceAddr> GlobalAddrs;
  std::uint64_t StaticsOffset = 0; ///< base of the statics block in GM
  std::uint64_t StaticsSize = 0;
  std::uint64_t SharedSize = 0;
  std::vector<std::uint8_t> SharedInit;
  std::vector<const Function *> FunctionsByIndex;
  std::unordered_map<const Function *, std::uint32_t> FunctionIndex;
  const std::shared_ptr<const BytecodeModule> Bytecode;
  // The plan table: the only state a launch adds to a const image.
  mutable std::mutex PlanMutex;
  mutable std::vector<std::unique_ptr<const LaunchPlan>> Plans;
};

/// Outcome of a kernel launch.
struct LaunchResult {
  bool Ok = false;
  std::string Error;      ///< populated when !Ok (trap, deadlock, assert)
  LaunchMetrics Metrics;  ///< populated when Ok
  LaunchProfile Profile;  ///< populated when Ok
};

/// Dense SSA slot numbering of one function for the tree walker: arguments
/// first, then every non-void instruction in block order (the numbering
/// the bytecode lowering uses too).
struct FunctionLayout {
  std::unordered_map<const Value *, std::uint32_t> Slots;
  std::uint32_t NumSlots = 0;
};
/// The slot layout of every function of a module. The tree backend builds
/// it when it binds a kernel and keeps it in the launch plan, where
/// concurrently running teams only read it.
using ModuleLayouts = std::unordered_map<const Function *, FunctionLayout>;
[[nodiscard]] ModuleLayouts layoutFunctions(const Module &M);

/// Execute team TeamId of a launch by walking the IR instruction tree
/// directly (the original engine, kept as the semantic reference). Layouts
/// is layoutFunctions(Image.module()). Teams share no mutable state except
/// global memory reached via atomics, so distinct teams may run
/// concurrently.
TeamRunOutcome runTreeTeam(const DeviceConfig &Config, GlobalMemory &GM,
                           const NativeRegistry &Registry,
                           const ModuleImage &Image,
                           const ModuleLayouts &Layouts, std::uint32_t TeamId,
                           std::uint32_t NumTeams, std::uint32_t NumThreads,
                           const Function *Kernel,
                           std::span<const std::uint64_t> Args);

} // namespace codesign::vgpu
