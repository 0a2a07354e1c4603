//===- exec/Backend.hpp - Pluggable execution backends ---------------------===//
//
// One narrow abstraction over "how does a kernel actually run": the tree
// interpreter, the register-machine bytecode tier and the native C++ codegen
// backend all implement exec::Backend and are selected by name through the
// exec::BackendRegistry. The launch engine (LaunchEngine.cpp) owns
// everything backend-independent — launch validation, occupancy, the
// launch plan kept on the image, the parallel team fan-out on the
// process's executor and the deterministic team-ID-order merge — so a
// backend only supplies two hooks, mirroring Halide's CodeGen_GPU_Dev split
// (add_kernel / compile):
//
//   bindKernel     one-time per-(image, kernel) work: legality checks and
//                  everything the backend derives from the image (the tree
//                  walker's slot layouts, the bytecode lowering and its
//                  resolved constant pools, the native compile), kept in
//                  the image's launch plan as the bound kernel
//   runTeam        execute one team (called concurrently for distinct
//                  teams) and return its outcome: its error, its cycles and
//                  its counters, which the engine folds into the result
//
// A device (VirtualGPU) resolves its backend's registry name once, when it
// is built or re-pointed, and launches through that backend instead of
// switching on an execution tier enum.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/Error.hpp"
#include "vgpu/Interpreter.hpp"

namespace codesign::exec {

/// Everything a backend may touch while serving one launch: the device
/// shape/cost model, global memory, and the native-op registry.
struct LaunchEnv {
  const vgpu::DeviceConfig &Config;
  vgpu::GlobalMemory &GM;
  const vgpu::NativeRegistry &Registry;
};

/// A kernel bound by a backend for execution: whatever per-(image, kernel)
/// state runTeam needs (slot layouts, resolved constant pools, dlopen'd
/// symbols, ...).
class BoundKernel {
public:
  virtual ~BoundKernel() = default;
};

/// An execution backend. Implementations must be thread-safe: the service
/// and the parallel launch engine call every hook concurrently.
class Backend {
public:
  virtual ~Backend() = default;

  /// Registry name ("tree", "bytecode", "native").
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Bind Kernel for launching. Backend-specific legality gates live here
  /// (the native backend rejects kernels its codegen cannot express) so a
  /// launch fails with an explicit error instead of misexecuting. The
  /// launch engine keeps a successful bind in the image's launch plan and
  /// binds again only for another image, kernel or DetectRaces setting, so
  /// the bound kernel must not depend on any other part of Env.
  virtual Expected<std::unique_ptr<BoundKernel>>
  bindKernel(const vgpu::ModuleImage &Image, const ir::Function *Kernel,
             const LaunchEnv &Env) = 0;

  /// Execute one team and return its outcome. Called concurrently for
  /// distinct teams.
  virtual vgpu::TeamRunOutcome
  runTeam(BoundKernel &Bound, const LaunchEnv &Env,
          const vgpu::ModuleImage &Image, const ir::Function *Kernel,
          std::span<const std::uint64_t> Args, std::uint32_t TeamId,
          std::uint32_t NumTeams, std::uint32_t NumThreads) = 0;
};

/// Name-indexed registry of execution backends. The global() instance is
/// constructed with the three built-in backends registered; tests may add
/// their own. A registration lives as long as the process, because devices
/// keep the backend they resolved.
class BackendRegistry {
public:
  /// The process-wide registry (tree/bytecode/native pre-registered).
  static BackendRegistry &global();

  /// Register a backend under its name(), which must not be registered
  /// yet.
  void add(std::unique_ptr<Backend> B);

  /// Look up a backend by registry name. Unknown names are a recoverable
  /// error listing the registered backends.
  [[nodiscard]] Expected<Backend *> lookup(std::string_view Name) const;

  /// Registered backend names, in registration order.
  [[nodiscard]] std::vector<std::string> names() const;

private:
  mutable std::mutex Mutex;
  std::vector<std::unique_ptr<Backend>> Backends;
};

/// Execute a launch through backend B: validate, find or build the image's
/// launch plan (stats + bound kernel), compute occupancy, fan teams out on
/// the process's executor and fold their outcomes into the result in
/// team-ID order (bit-identical to a serial run).
[[nodiscard]] vgpu::LaunchResult
launch(Backend &B, const LaunchEnv &Env, const vgpu::ModuleImage &Image,
       const ir::Function *Kernel, std::span<const std::uint64_t> Args,
       std::uint32_t NumTeams, std::uint32_t NumThreads);

} // namespace codesign::exec
