//===- tests/vgpu/test_launch_plan.cpp - The image's launch plan -----------===//
//
// The first launch of a kernel on an image binds it and keeps the bound
// kernel and the kernel's static stats on the image; later launches reuse
// them. The stats come from the image's lowering when it carries them, and
// are computed otherwise. A refused bind is not kept, and a backend that
// refuses a launch setting (native under DetectRaces) refuses it on every
// such launch, also after a clean launch kept a plan.
//
//===----------------------------------------------------------------------===//
#include "vgpu/VirtualGPU.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "ir/IRBuilder.hpp"
#include "ir/Verifier.hpp"
#include "vgpu/Bytecode.hpp"
#include "vgpu/KernelStats.hpp"

namespace codesign::vgpu {
namespace {

using namespace ir;

/// Kernel `name`: every thread stores its thread id to out[gid].
void buildStoreTid(Module &M, const std::string &Name) {
  Function *K = M.createFunction(Name, Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  Value *Tid = B.zext(B.threadId(), Type::i64());
  Value *Gid =
      B.add(B.mul(B.zext(B.blockId(), Type::i64()),
                  B.zext(B.blockDim(), Type::i64())),
            Tid);
  B.store(Tid, B.gep(K->arg(0), B.mul(Gid, B.i64(8))));
  B.retVoid();
}

/// The registered tree backend behind a counter of binds, which can be
/// told to refuse the next binds.
class CountingBackend final : public exec::Backend {
public:
  std::string_view name() const override { return "counting-tree"; }

  Expected<std::unique_ptr<exec::BoundKernel>>
  bindKernel(const ModuleImage &Image, const Function *Kernel,
             const exec::LaunchEnv &Env) override {
    Binds.fetch_add(1);
    if (Refuse.load() > 0) {
      Refuse.fetch_sub(1);
      return Error("refused on purpose");
    }
    return tree().bindKernel(Image, Kernel, Env);
  }

  TeamRunOutcome runTeam(exec::BoundKernel &Bound, const exec::LaunchEnv &Env,
                         const ModuleImage &Image, const Function *Kernel,
                         std::span<const std::uint64_t> Args,
                         std::uint32_t TeamId, std::uint32_t NumTeams,
                         std::uint32_t NumThreads) override {
    return tree().runTeam(Bound, Env, Image, Kernel, Args, TeamId, NumTeams,
                          NumThreads);
  }

  std::atomic<unsigned> Binds{0};
  std::atomic<unsigned> Refuse{0};

private:
  static exec::Backend &tree() {
    static exec::Backend &Tree =
        **exec::BackendRegistry::global().lookup("tree");
    return Tree;
  }
};

/// The process's one CountingBackend, registered on first use.
CountingBackend &counting() {
  static CountingBackend *B = [] {
    auto Owned = std::make_unique<CountingBackend>();
    CountingBackend *Raw = Owned.get();
    exec::BackendRegistry::global().add(std::move(Owned));
    return Raw;
  }();
  B->Binds = 0;
  B->Refuse = 0;
  return *B;
}

TEST(LaunchPlan, BindsOncePerImageAndKernel) {
  CountingBackend &Counter = counting();
  Module M;
  buildStoreTid(M, "a");
  buildStoreTid(M, "b");
  ASSERT_TRUE(verifyModule(M).empty());
  VirtualGPU GPU;
  ASSERT_TRUE(GPU.setExecBackend("counting-tree").hasValue());
  const DeviceAddr Out = GPU.allocate(4 * 8 * 8);
  const std::uint64_t Args[] = {Out.Bits};
  auto Image = GPU.loadImage(M);
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(GPU.launch(*Image, "a", Args, 4, 8).Ok);
  EXPECT_EQ(Counter.Binds.load(), 1u);
  ASSERT_TRUE(GPU.launch(*Image, "b", Args, 4, 8).Ok);
  EXPECT_EQ(Counter.Binds.load(), 2u) << "another kernel binds";
  auto Other = GPU.loadImage(M);
  ASSERT_TRUE(GPU.launch(*Other, "a", Args, 4, 8).Ok);
  EXPECT_EQ(Counter.Binds.load(), 3u) << "another image binds";
  GPU.setDetectRaces(true);
  ASSERT_TRUE(GPU.launch(*Image, "a", Args, 4, 8).Ok);
  ASSERT_TRUE(GPU.launch(*Image, "a", Args, 4, 8).Ok);
  EXPECT_EQ(Counter.Binds.load(), 4u) << "DetectRaces binds once more";
}

TEST(LaunchPlan, RefusedBindIsNotKept) {
  CountingBackend &Counter = counting();
  Module M;
  buildStoreTid(M, "a");
  ASSERT_TRUE(verifyModule(M).empty());
  VirtualGPU GPU;
  ASSERT_TRUE(GPU.setExecBackend("counting-tree").hasValue());
  const DeviceAddr Out = GPU.allocate(2 * 4 * 8);
  const std::uint64_t Args[] = {Out.Bits};
  auto Image = GPU.loadImage(M);
  Counter.Refuse = 1;
  const LaunchResult Refused = GPU.launch(*Image, "a", Args, 2, 4);
  EXPECT_FALSE(Refused.Ok);
  EXPECT_EQ(Refused.Error, "counting-tree backend: refused on purpose");
  ASSERT_TRUE(GPU.launch(*Image, "a", Args, 2, 4).Ok);
  ASSERT_TRUE(GPU.launch(*Image, "a", Args, 2, 4).Ok);
  EXPECT_EQ(Counter.Binds.load(), 2u);
}

TEST(LaunchPlan, TakesTheStatsTheLoweringCarries) {
  Module M;
  buildStoreTid(M, "a");
  ASSERT_TRUE(verifyModule(M).empty());
  const Function *K = M.findFunction("a");
  constexpr std::uint32_t Threads = 64;
  VirtualGPU GPU;
  const DeviceConfig &C = GPU.config();
  // Occupancy of the kernel's own stats: its few registers leave the
  // per-SM team limit binding.
  const KernelStaticStats Own = computeKernelStats(*K, GPU.registry());
  const std::uint32_t OwnTeams =
      std::min<std::uint32_t>(C.MaxConcurrentTeamsPerSM,
                              C.RegisterFilePerSM / (Own.Registers * Threads));
  // Stats deliberately unlike the kernel's: registers enough for three
  // teams an SM.
  KernelStaticStats Heavy = Own;
  Heavy.Registers = C.RegisterFilePerSM / (3 * Threads);
  const std::uint32_t HeavyTeams =
      C.RegisterFilePerSM / (Heavy.Registers * Threads);
  ASSERT_EQ(HeavyTeams, 3u);
  ASSERT_NE(HeavyTeams, OwnTeams);
  const KernelDescriptor Carried[] = {{K, Heavy}};
  const auto Lowering = BytecodeEmitter::lower(M, Carried);
  const DeviceAddr Out = GPU.allocate(4 * Threads * 8);
  const std::uint64_t Args[] = {Out.Bits};
  for (const char *Backend : {"tree", "bytecode"}) {
    ASSERT_TRUE(GPU.setExecBackend(Backend).hasValue());
    auto Bare = GPU.loadImage(M);
    const LaunchResult Computed = GPU.launch(*Bare, "a", Args, 4, Threads);
    ASSERT_TRUE(Computed.Ok) << Backend << ": " << Computed.Error;
    EXPECT_EQ(Computed.Metrics.TeamsPerSM, OwnTeams) << Backend;
    auto Loaded = GPU.loadImage(M, Lowering);
    const LaunchResult Taken = GPU.launch(*Loaded, "a", Args, 4, Threads);
    ASSERT_TRUE(Taken.Ok) << Backend << ": " << Taken.Error;
    EXPECT_EQ(Taken.Metrics.TeamsPerSM, HeavyTeams) << Backend;
  }
}

TEST(LaunchPlan, NativeRefusesDetectRacesAfterACachedPlan) {
  const std::string Refusal =
      "native backend: DetectRaces needs shadow-memory instrumentation the "
      "generated code does not carry; use the tree or bytecode backend";
  Module M;
  buildStoreTid(M, "k");
  ASSERT_TRUE(verifyModule(M).empty());
  VirtualGPU GPU;
  ASSERT_TRUE(GPU.setExecBackend("native").hasValue());
  const DeviceAddr Out = GPU.allocate(2 * 4 * 8);
  const std::uint64_t Args[] = {Out.Bits};
  auto Image = GPU.loadImage(M);
  const LaunchResult Clean = GPU.launch(*Image, "k", Args, 2, 4);
  ASSERT_TRUE(Clean.Ok) << Clean.Error;
  GPU.setDetectRaces(true);
  for (int I = 0; I < 2; ++I) {
    const LaunchResult R = GPU.launch(*Image, "k", Args, 2, 4);
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Error, Refusal) << "launch " << I;
  }
  GPU.setDetectRaces(false);
  EXPECT_TRUE(GPU.launch(*Image, "k", Args, 2, 4).Ok);

  // Refused on an image no clean launch has bound, too.
  auto Fresh = GPU.loadImage(M);
  GPU.setDetectRaces(true);
  EXPECT_EQ(GPU.launch(*Fresh, "k", Args, 2, 4).Error, Refusal);
}

} // namespace
} // namespace codesign::vgpu
