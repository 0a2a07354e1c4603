//===- tests/opt/test_spmdization.cpp - Section IV-A3 unit tests -----------===//
#include "frontend/Driver.hpp"
#include "frontend/TargetCompiler.hpp"
#include "opt/Pipeline.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/IRBuilder.hpp"
#include "ir/Linker.hpp"
#include "ir/Verifier.hpp"
#include "rt/RuntimeABI.hpp"
#include "vgpu/VirtualGPU.hpp"

namespace codesign::opt {
namespace {

using namespace frontend;

/// Scaffold: a device with a store-iv body; builds generic-mode kernels so
/// SPMDization has work to do.
class SpmdizationTest : public ::testing::Test {
protected:
  void SetUp() override {
    GPU = std::make_unique<vgpu::VirtualGPU>();
    BodyId = GPU->registry().add(vgpu::NativeOpInfo{
        "store_iv",
        [](vgpu::NativeCtx &Ctx) {
          const std::int64_t I = Ctx.argI64(0);
          Ctx.storeF64(Ctx.argPtr(1).advance(I * 8),
                       static_cast<double>(I) * 3.0);
          Ctx.chargeCycles(2);
        },
        4});
  }

  KernelSpec combinedSpec(std::uint64_t ScratchBytes = 0) const {
    KernelSpec Spec;
    Spec.Name = "spmdize_me";
    Spec.Params = {{ir::Type::ptr(), "out"}, {ir::Type::i64(), "n"}};
    NativeBody Body;
    Body.NativeId = BodyId;
    Body.Args = {BodyArg::iter(), BodyArg::arg(0)};
    Spec.Stmts = {Stmt::distributeParallelFor(TripCount::argument(1), Body,
                                              ScratchBytes)};
    return Spec;
  }

  std::unique_ptr<vgpu::VirtualGPU> GPU;
  std::int64_t BodyId = 0;
};

TEST_F(SpmdizationTest, ConvertsGenericCombinedKernel) {
  CodegenOptions CG;
  CG.ForceGenericMode = true;
  auto Emitted = emitKernel(combinedSpec(), CG);
  ASSERT_TRUE(Emitted.hasValue());
  ASSERT_TRUE(linkRuntime(*Emitted->AppModule, RuntimeKind::NewRT).hasValue());
  ASSERT_EQ(Emitted->Kernel->execMode(), ir::ExecMode::Generic);

  RemarkCollector Remarks;
  OptOptions Options;
  Options.Obs.Remarks = &Remarks;
  runPipeline(*Emitted->AppModule, Options);
  EXPECT_EQ(Emitted->Kernel->execMode(), ir::ExecMode::SPMD);
  EXPECT_TRUE(ir::verifyModule(*Emitted->AppModule).empty());
  EXPECT_FALSE(Remarks.filtered(RemarkKind::Passed, "spmdization").empty());

  // The SPMDized kernel must produce correct results.
  auto Image = GPU->loadImage(*Emitted->AppModule);
  constexpr std::uint64_t N = 256;
  vgpu::DeviceAddr Buf = GPU->allocate(N * 8);
  std::uint64_t Args[] = {Buf.Bits, N};
  auto R = GPU->launch(*Image, Emitted->Kernel, Args, 4, 32);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::vector<double> Out(N);
  GPU->read(Buf, std::span(reinterpret_cast<std::uint8_t *>(Out.data()),
                           N * 8));
  for (std::uint64_t I = 0; I < N; ++I)
    EXPECT_DOUBLE_EQ(Out[I], static_cast<double>(I) * 3.0);
}

TEST_F(SpmdizationTest, SpmdizedMatchesDirectSpmdPerformanceClass) {
  // Whether SPMD mode came from the frontend or from the pass, the end
  // state should be equivalent: same shared-memory footprint (0), similar
  // cycles.
  auto viaPass = [&] {
    CodegenOptions CG;
    CG.ForceGenericMode = true;
    auto E = emitKernel(combinedSpec(), CG);
    (void)linkRuntime(*E->AppModule, RuntimeKind::NewRT);
    runPipeline(*E->AppModule, OptOptions{});
    return std::move(E->AppModule);
  }();
  auto direct = [&] {
    auto E = emitKernel(combinedSpec(), CodegenOptions{});
    (void)linkRuntime(*E->AppModule, RuntimeKind::NewRT);
    runPipeline(*E->AppModule, OptOptions{});
    return std::move(E->AppModule);
  }();
  auto smem = [](const ir::Module &M) {
    std::uint64_t S = 0;
    for (const auto &G : M.globals())
      if (G->space() == ir::AddrSpace::Shared)
        S += G->sizeBytes();
    return S;
  };
  EXPECT_EQ(smem(*viaPass), 0u);
  EXPECT_EQ(smem(*direct), 0u);
}

TEST_F(SpmdizationTest, EscapingScratchBlocksConversionWithRemark) {
  CodegenOptions CG;
  CG.ForceGenericMode = true;
  auto Emitted = emitKernel(combinedSpec(/*ScratchBytes=*/512), CG);
  ASSERT_TRUE(Emitted.hasValue());
  ASSERT_TRUE(linkRuntime(*Emitted->AppModule, RuntimeKind::NewRT).hasValue());
  RemarkCollector Remarks;
  OptOptions Options;
  Options.Obs.Remarks = &Remarks;
  runPipeline(*Emitted->AppModule, Options);
  EXPECT_EQ(Emitted->Kernel->execMode(), ir::ExecMode::Generic)
      << "escaping team-shared allocation must block SPMDization";
  bool Found = false;
  for (const Remark &R : Remarks.filtered(RemarkKind::Missed, "spmdization"))
    Found |= R.Message.find("escapes") != std::string::npos;
  EXPECT_TRUE(Found) << "the -Rpass-missed channel must say why";
}

TEST_F(SpmdizationTest, DisabledPassLeavesGenericMode) {
  CodegenOptions CG;
  CG.ForceGenericMode = true;
  auto Emitted = emitKernel(combinedSpec(), CG);
  (void)linkRuntime(*Emitted->AppModule, RuntimeKind::NewRT);
  OptOptions Options;
  Options.EnableSPMDization = false;
  runPipeline(*Emitted->AppModule, Options);
  EXPECT_EQ(Emitted->Kernel->execMode(), ir::ExecMode::Generic);
  // Still correct, just slower: run it.
  auto Image = GPU->loadImage(*Emitted->AppModule);
  constexpr std::uint64_t N = 64;
  vgpu::DeviceAddr Buf = GPU->allocate(N * 8);
  std::uint64_t Args[] = {Buf.Bits, N};
  auto R = GPU->launch(*Image, Emitted->Kernel, Args, 2, 33);
  ASSERT_TRUE(R.Ok) << R.Error;
}

TEST_F(SpmdizationTest, MissingEntryPointDeclinesWithRemark) {
  // Linked without SPMDization's roots, a generic kernel's module lacks
  // the entry points the conversion calls (the kernel calls none of them).
  // The pass declines by name and the kernel keeps the state machine.
  CodegenOptions CG;
  CG.ForceGenericMode = true;
  auto Emitted = emitKernel(combinedSpec(), CG);
  ASSERT_TRUE(Emitted.hasValue());
  ASSERT_TRUE(ir::linkModules(*Emitted->AppModule,
                              *runtimeModule(RuntimeKind::NewRT))
                  .hasValue());
  for (std::string_view Name : rt::SpmdizationEntryPoints)
    ASSERT_EQ(Emitted->AppModule->findFunction(Name), nullptr) << Name;

  RemarkCollector Remarks;
  OptOptions Options;
  Options.Obs.Remarks = &Remarks;
  runPipeline(*Emitted->AppModule, Options);
  EXPECT_EQ(Emitted->Kernel->execMode(), ir::ExecMode::Generic);
  EXPECT_TRUE(ir::verifyModule(*Emitted->AppModule).empty());
  bool Named = false;
  for (const Remark &R : Remarks.filtered(RemarkKind::Missed, "spmdization"))
    Named |= R.Message.find("runtime entry point "
                            "'__kmpc_spmd_parallel_begin' is missing") !=
             std::string::npos;
  EXPECT_TRUE(Named);

  // Still correct in generic mode: run it.
  auto Image = GPU->loadImage(*Emitted->AppModule);
  constexpr std::uint64_t N = 64;
  vgpu::DeviceAddr Buf = GPU->allocate(N * 8);
  std::uint64_t Args[] = {Buf.Bits, N};
  auto R = GPU->launch(*Image, Emitted->Kernel, Args, 2, 33);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::vector<double> Out(N);
  GPU->read(Buf, std::span(reinterpret_cast<std::uint8_t *>(Out.data()),
                           N * 8));
  for (std::uint64_t I = 0; I < N; ++I)
    EXPECT_DOUBLE_EQ(Out[I], static_cast<double>(I) * 3.0);
}

TEST(Spmdization, EveryRefusalIsNamedInItsRemark) {
  // A hand-built generic kernel: entry calls target_init and dispatches on
  // tid == 0 to "main" (the sequential region) or "worker". Each case
  // either breaks that fork-join shape or puts one blocker into main; the
  // kernel stays generic and the missed remark names the reason.
  using namespace ir;
  struct Kernel {
    Module &M;
    IRBuilder &B;
    Function *K;
    BasicBlock *Entry, *Main, *Worker;
  };
  struct Case {
    const char *Reason;
    std::function<void(Kernel &)> Build; ///< completes entry and main
  };
  // Emit target_init (unless told not to) and the tid == 0 dispatch, or
  // the given condition, then continue in main.
  const auto Dispatch = [](Kernel &S, bool Init = true,
                           Value *Cond = nullptr) {
    S.B.setInsertPoint(S.Entry);
    if (Init)
      S.B.call(S.M.createFunction(std::string(rt::TargetInitName),
                                  Type::i32(), {}),
               {});
    if (!Cond)
      Cond = S.B.icmpEQ(S.B.threadId(), S.B.i32(0));
    S.B.condBr(Cond, S.Main, S.Worker);
    S.B.setInsertPoint(S.Main);
  };
  const auto Parallel = [](Kernel &S) {
    return S.M.createFunction(std::string(rt::ParallelName), Type::voidTy(),
                              {Type::ptr(), Type::ptr(), Type::i32()});
  };
  constexpr const char *Shape = "does not match the fork-join shape";
  const std::vector<Case> Cases = {
      {Shape, [&](Kernel &S) { Dispatch(S, /*Init=*/false); }},
      {Shape,
       [&](Kernel &S) { // no dispatch at all
         Dispatch(S);
         S.Entry->erase(S.Entry->terminator());
         S.B.setInsertPoint(S.Entry);
         S.B.br(S.Main);
         S.B.setInsertPoint(S.Main);
       }},
      {Shape,
       [&](Kernel &S) { // tid != 0
         S.B.setInsertPoint(S.Entry);
         Dispatch(S, true, S.B.icmpNE(S.B.threadId(), S.B.i32(0)));
       }},
      {Shape,
       [&](Kernel &S) { // a block id, not a thread id
         S.B.setInsertPoint(S.Entry);
         Dispatch(S, true, S.B.icmpEQ(S.B.blockId(), S.B.i32(0)));
       }},
      {Shape,
       [&](Kernel &S) { // main falls into the worker path
         Dispatch(S);
         S.B.br(S.Worker);
         S.B.setInsertPoint(S.Worker);
       }},
      {"indirect call in the sequential region",
       [&](Kernel &S) {
         Dispatch(S);
         S.B.callIndirect(Type::voidTy(), S.K->arg(0), {});
       }},
      {"parallel region with a num_threads clause",
       [&](Kernel &S) {
         Dispatch(S);
         S.B.call(Parallel(S), {S.K->asValue(), S.K->arg(0), S.B.i32(4)});
       }},
      {"parallel region with an unknown outlined function",
       [&](Kernel &S) {
         Dispatch(S);
         S.B.call(Parallel(S), {S.K->arg(0), S.K->arg(0), S.B.i32(0)});
       }},
      {"ICV write in the sequential region",
       [&](Kernel &S) {
         Dispatch(S);
         S.B.call(S.M.createFunction(std::string(rt::SetNumThreadsName),
                                     Type::voidTy(), {Type::i32()}),
                  {S.B.i32(4)});
       }},
      {"opaque call 'ext' in the sequential region",
       [&](Kernel &S) {
         Dispatch(S);
         S.B.call(S.M.createFunction("ext", Type::voidTy(), {}), {});
       }},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Reason);
    Module M;
    IRBuilder B(M);
    Function *K = M.createFunction("gen_k", Type::voidTy(), {Type::ptr()});
    K->addAttr(FnAttr::Kernel);
    K->setExecMode(ExecMode::Generic);
    BasicBlock *Entry = K->createBlock("entry");
    BasicBlock *Main = K->createBlock("main");
    BasicBlock *Worker = K->createBlock("worker");
    Kernel S{M, B, K, Entry, Main, Worker};
    C.Build(S);
    B.retVoid();
    if (!Worker->terminator()) {
      B.setInsertPoint(Worker);
      B.retVoid();
    }
    RemarkCollector Remarks;
    OptOptions Options;
    Options.Obs.Remarks = &Remarks;
    EXPECT_FALSE(runSPMDization(M, Options));
    EXPECT_EQ(K->execMode(), ExecMode::Generic);
    const auto Missed = Remarks.filtered(RemarkKind::Missed, "spmdization");
    ASSERT_EQ(Missed.size(), 1u);
    EXPECT_NE(Missed[0].Message.find(C.Reason), std::string::npos)
        << Missed[0].Message;
  }
}

//===----------------------------------------------------------------------===//
// Frontend validation
//===----------------------------------------------------------------------===//

TEST(FrontendValidation, RejectsMalformedSpecs) {
  NativeBody Body; // id 0; never executed
  {
    KernelSpec S;
    S.Name = "empty";
    EXPECT_FALSE(emitKernel(S, CodegenOptions{}).hasValue());
  }
  {
    KernelSpec S;
    S.Name = "bare_for";
    S.Stmts = {Stmt::forLoop(TripCount::constant(1), Body)};
    EXPECT_FALSE(emitKernel(S, CodegenOptions{}).hasValue());
  }
  {
    KernelSpec S;
    S.Name = "serial_in_parallel";
    S.Stmts = {Stmt::parallel({Stmt::serial(Body)})};
    EXPECT_FALSE(emitKernel(S, CodegenOptions{}).hasValue());
  }
  {
    KernelSpec S;
    S.Name = "deep_nesting";
    S.Stmts = {Stmt::parallel(
        {Stmt::parallel({Stmt::parallel({Stmt::setNumThreads(2)})})})};
    EXPECT_FALSE(emitKernel(S, CodegenOptions{}).hasValue());
  }
  {
    KernelSpec S; // valid: nested direct-body parallel at depth 2 is fine
    S.Name = "ok_nested_work";
    S.Stmts = {Stmt::parallel({Stmt::parallelWork(Body)})};
    EXPECT_TRUE(emitKernel(S, CodegenOptions{}).hasValue());
  }
}

//===----------------------------------------------------------------------===//
// Differential property test: random pipeline subsets preserve semantics
//===----------------------------------------------------------------------===//

class PipelineSubsets : public ::testing::TestWithParam<int> {};

TEST_P(PipelineSubsets, AnyPassSubsetPreservesResults) {
  const unsigned Mask = static_cast<unsigned>(GetParam());
  vgpu::VirtualGPU GPU;
  const std::int64_t BodyId = GPU.registry().add(vgpu::NativeOpInfo{
      "acc",
      [](vgpu::NativeCtx &Ctx) {
        const std::int64_t I = Ctx.argI64(0);
        const std::int32_t Tn = Ctx.argI32(2);
        Ctx.storeF64(Ctx.argPtr(1).advance(I * 8),
                     static_cast<double>(I * 7 + Tn % 2));
        Ctx.chargeCycles(2);
      },
      4});
  KernelSpec Spec;
  Spec.Name = "subset_kernel";
  Spec.Params = {{ir::Type::ptr(), "out"}, {ir::Type::i64(), "n"}};
  NativeBody Body;
  Body.NativeId = BodyId;
  Body.Args = {BodyArg::iter(), BodyArg::arg(0), BodyArg::threadNum()};
  Spec.Stmts = {Stmt::distributeParallelFor(TripCount::argument(1), Body)};

  const CompileOptions Options =
      CompileOptions()
          .withForceGenericMode((Mask & 64) != 0)
          .withOptTweak([&](opt::OptOptions &O) {
            O.EnableSPMDization = Mask & 1;
            O.EnableGlobalizationElim = Mask & 2;
            O.EnableFieldSensitiveProp = Mask & 4;
            O.EnableAssumedMemoryContent = Mask & 8;
            O.EnableInvariantProp = Mask & 16;
            O.EnableBarrierElim = Mask & 32;
          });

  auto CK = compileKernel(Spec, Options, GPU.registry());
  ASSERT_TRUE(CK.hasValue()) << CK.error().message();
  auto Image = GPU.loadImage(*CK->M);
  constexpr std::uint64_t N = 300;
  vgpu::DeviceAddr Buf = GPU.allocate(N * 8);
  std::vector<std::uint8_t> Zero(N * 8, 0);
  GPU.write(Buf, Zero);
  std::uint64_t Args[] = {Buf.Bits, N};
  auto R = GPU.launch(*Image, CK->Kernel, Args, 3, 41);
  ASSERT_TRUE(R.Ok) << "mask=" << Mask << ": " << R.Error;
  std::vector<double> Out(N);
  GPU.read(Buf, std::span(reinterpret_cast<std::uint8_t *>(Out.data()),
                          N * 8));
  // thread_num inside the combined loop is iteration-dependent; the body
  // uses Tn%2 which differs between generic (worker ids) and SPMD... so we
  // verify only the IV-dependent part, which must be exact.
  for (std::uint64_t I = 0; I < N; ++I) {
    const double Base = static_cast<double>(I * 7);
    EXPECT_GE(Out[I], Base) << "mask=" << Mask << " index " << I;
    EXPECT_LE(Out[I], Base + 1.0) << "mask=" << Mask << " index " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(Masks, PipelineSubsets, ::testing::Range(0, 128, 7));

} // namespace
} // namespace codesign::opt
