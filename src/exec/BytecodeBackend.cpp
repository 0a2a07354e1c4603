//===- exec/BytecodeBackend.cpp - Bytecode backend -------------------------===//
//
// The fast interpreter tier as an exec::Backend. bindKernel takes the
// lowering the image was loaded with (or lowers the module when there is
// none) and resolves its constant pools to the image's device addresses,
// ahead of the team fan-out; runTeam delegates to the bytecode executor.
//
//===----------------------------------------------------------------------===//
#include "exec/Backend.hpp"
#include "exec/BuiltinBackends.hpp"
#include "vgpu/BytecodeExecutor.hpp"

namespace codesign::exec {

namespace {

/// The bound kernel: the module's lowering and its constant pools resolved
/// for the image, one per function, indexed by BCFunction::Index.
class BytecodeBound final : public BoundKernel {
public:
  explicit BytecodeBound(const vgpu::ModuleImage &Image)
      : BC(Image.bytecode() ? Image.bytecode()
                            : vgpu::BytecodeEmitter::lower(Image.module())) {
    Pools.resize(BC->Functions.size());
    for (const vgpu::BCFunction &BF : BC->Functions) {
      std::vector<std::uint64_t> &Pool = Pools[BF.Index];
      Pool.reserve(BF.Pool.size());
      for (const vgpu::BCConst &Cst : BF.Pool) {
        switch (Cst.K) {
        case vgpu::BCConst::Kind::Lit:
          Pool.push_back(Cst.Bits);
          break;
        case vgpu::BCConst::Kind::Global:
          Pool.push_back(Image.addressOf(Cst.G).Bits);
          break;
        case vgpu::BCConst::Kind::Func:
          Pool.push_back(Image.functionAddress(Cst.F).Bits);
          break;
        }
      }
    }
  }

  const std::shared_ptr<const vgpu::BytecodeModule> BC;
  std::vector<std::vector<std::uint64_t>> Pools;
};

class BytecodeBackend final : public Backend {
public:
  std::string_view name() const override { return "bytecode"; }

  Expected<std::unique_ptr<BoundKernel>>
  bindKernel(const vgpu::ModuleImage &Image, const ir::Function *,
             const LaunchEnv &) override {
    return std::unique_ptr<BoundKernel>(
        std::make_unique<BytecodeBound>(Image));
  }

  vgpu::TeamRunOutcome runTeam(BoundKernel &Bound, const LaunchEnv &Env,
                               const vgpu::ModuleImage &Image,
                               const ir::Function *Kernel,
                               std::span<const std::uint64_t> Args,
                               std::uint32_t TeamId, std::uint32_t NumTeams,
                               std::uint32_t NumThreads) override {
    const auto &BK = static_cast<const BytecodeBound &>(Bound);
    return vgpu::runBytecodeTeam(Env.Config, Env.GM, Env.Registry, Image,
                                 *BK.BC, BK.Pools, TeamId, NumTeams,
                                 NumThreads, Kernel, Args);
  }
};

} // namespace

std::unique_ptr<Backend> makeBytecodeBackend() {
  return std::make_unique<BytecodeBackend>();
}

} // namespace codesign::exec
