//===- exec/BytecodeBackend.cpp - Bytecode backend -------------------------===//
//
// The fast interpreter tier as an exec::Backend. bindKernel materializes
// the module's one-shot bytecode lowering and this image's resolved
// constant pools ahead of the team fan-out (the lazy cache is
// mutex-guarded, but paying the lowering under contention would skew the
// first team's wall time); runTeam delegates to the bytecode executor.
//
//===----------------------------------------------------------------------===//
#include "exec/Backend.hpp"
#include "exec/BuiltinBackends.hpp"
#include "vgpu/BytecodeExecutor.hpp"

namespace codesign::exec {

namespace {

/// The bound kernel: the image's lowering and resolved pools. Both live in
/// the ModuleImage, which also keeps this handle in its launch plan.
class BytecodeBound final : public BoundKernel {
public:
  BytecodeBound(const vgpu::BytecodeModule &BC,
                const std::vector<std::vector<std::uint64_t>> &Pools)
      : BC(BC), Pools(Pools) {}

  const vgpu::BytecodeModule &BC;
  const std::vector<std::vector<std::uint64_t>> &Pools;
};

class BytecodeBackend final : public Backend {
public:
  std::string_view name() const override { return "bytecode"; }

  Expected<std::unique_ptr<BoundKernel>>
  bindKernel(const vgpu::ModuleImage &Image, const ir::Function *,
             const LaunchEnv &) override {
    return std::unique_ptr<BoundKernel>(
        std::make_unique<BytecodeBound>(Image.bytecode(),
                                        Image.bytecodePools()));
  }

  void runTeam(BoundKernel &Bound, const LaunchEnv &Env,
               const vgpu::ModuleImage &Image, const ir::Function *Kernel,
               std::span<const std::uint64_t> Args, std::uint32_t TeamId,
               std::uint32_t NumTeams, std::uint32_t NumThreads,
               vgpu::LaunchMetrics &Metrics, vgpu::LaunchProfile *Profile,
               TeamOutcome &Out) override {
    auto &BK = static_cast<BytecodeBound &>(Bound);
    Out = vgpu::runBytecodeTeam(Env.Config, Env.GM, Env.Registry, Image,
                                BK.BC, BK.Pools, TeamId, NumTeams,
                                NumThreads, Kernel, Args, Metrics, Profile);
  }
};

} // namespace

std::unique_ptr<Backend> makeBytecodeBackend() {
  return std::make_unique<BytecodeBackend>();
}

} // namespace codesign::exec
