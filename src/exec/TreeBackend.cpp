//===- exec/TreeBackend.cpp - Tree-walking interpreter backend -------------===//
//
// The original IR-walking engine as an exec::Backend. It needs no
// binding state: every team interprets the instruction tree directly.
// Kept as the semantic reference the other backends are differentially
// tested against.
//
//===----------------------------------------------------------------------===//
#include "exec/Backend.hpp"
#include "exec/BuiltinBackends.hpp"

namespace codesign::exec {

namespace {

class TreeBackend final : public Backend {
public:
  std::string_view name() const override { return "tree"; }

  Expected<std::unique_ptr<BoundKernel>>
  bindKernel(const vgpu::ModuleImage &, const ir::Function *,
             const LaunchEnv &) override {
    return std::make_unique<BoundKernel>();
  }

  void runTeam(BoundKernel &, const LaunchEnv &Env,
               const vgpu::ModuleImage &Image, const ir::Function *Kernel,
               std::span<const std::uint64_t> Args, std::uint32_t TeamId,
               std::uint32_t NumTeams, std::uint32_t NumThreads,
               vgpu::LaunchMetrics &Metrics, vgpu::LaunchProfile *Profile,
               TeamOutcome &Out) override {
    Out = vgpu::runTreeTeam(Env.Config, Env.GM, Env.Registry, Image, TeamId,
                            NumTeams, NumThreads, Kernel, Args, Metrics,
                            Profile);
  }
};

} // namespace

std::unique_ptr<Backend> makeTreeBackend() {
  return std::make_unique<TreeBackend>();
}

} // namespace codesign::exec
