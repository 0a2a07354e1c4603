//===- exec/TreeBackend.cpp - Tree-walking interpreter backend -------------===//
//
// The original IR-walking engine as an exec::Backend. Binding numbers
// the value slots of every function of the image's module, and every team
// interprets the instruction tree directly over those layouts. Kept as the
// semantic reference the other backends are differentially tested
// against.
//
//===----------------------------------------------------------------------===//
#include "exec/Backend.hpp"
#include "exec/BuiltinBackends.hpp"

namespace codesign::exec {

namespace {

/// The bound kernel: the slot layout of every function of the module,
/// since an indirect call may reach any of them.
class TreeBound final : public BoundKernel {
public:
  explicit TreeBound(const ir::Module &M) : Layouts(vgpu::layoutFunctions(M)) {}

  const vgpu::ModuleLayouts Layouts;
};

class TreeBackend final : public Backend {
public:
  std::string_view name() const override { return "tree"; }

  Expected<std::unique_ptr<BoundKernel>>
  bindKernel(const vgpu::ModuleImage &Image, const ir::Function *,
             const LaunchEnv &) override {
    return std::unique_ptr<BoundKernel>(
        std::make_unique<TreeBound>(Image.module()));
  }

  vgpu::TeamRunOutcome runTeam(BoundKernel &Bound, const LaunchEnv &Env,
                               const vgpu::ModuleImage &Image,
                               const ir::Function *Kernel,
                               std::span<const std::uint64_t> Args,
                               std::uint32_t TeamId, std::uint32_t NumTeams,
                               std::uint32_t NumThreads) override {
    return vgpu::runTreeTeam(Env.Config, Env.GM, Env.Registry, Image,
                             static_cast<TreeBound &>(Bound).Layouts, TeamId,
                             NumTeams, NumThreads, Kernel, Args);
  }
};

} // namespace

std::unique_ptr<Backend> makeTreeBackend() {
  return std::make_unique<TreeBackend>();
}

} // namespace codesign::exec
