//===- tests/opt/test_analysis_invalidation.cpp - AnalysisManager cache ----===//
//
// The AnalysisManager invalidation contract: cached results are identical
// to fresh computation after any sequence of passes with honest
// PreservedAnalyses claims (checked differentially via VerifyAnalyses),
// invalidation is scoped per function when a pass reports the functions it
// touched, and an over-broad claim is caught by the verifier.
//
//===----------------------------------------------------------------------===//
#include "opt/PassManager.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "frontend/Driver.hpp"
#include "ir/IRBuilder.hpp"
#include "support/Stats.hpp"
#include "support/Trace.hpp"
#include "vgpu/VirtualGPU.hpp"

namespace codesign::opt {
namespace {

using frontend::BodyArg;
using frontend::CodegenOptions;
using frontend::KernelSpec;
using frontend::NativeBody;
using frontend::Stmt;
using frontend::TripCount;

class AnalysisInvalidationTest : public ::testing::Test {
protected:
  void SetUp() override {
    trace::Tracer::global().setEnabled(false);
    Counters::global().reset();
    BodyId = GPU.registry().add(vgpu::NativeOpInfo{
        "inval_body", [](vgpu::NativeCtx &Ctx) { Ctx.chargeCycles(1); }, 2});
  }
  void TearDown() override { trace::Tracer::global().setEnabled(false); }

  std::unique_ptr<ir::Module> makeKernelModule(std::uint64_t Scratch = 0) {
    KernelSpec Spec;
    Spec.Name = "inval_kernel";
    Spec.Params = {{ir::Type::ptr(), "buf"}, {ir::Type::i64(), "n"}};
    NativeBody Body;
    Body.NativeId = BodyId;
    Body.Args = {BodyArg::iter(), BodyArg::arg(0)};
    Stmt S = Stmt::distributeParallelFor(TripCount::argument(1), Body);
    S.ScratchBytes = Scratch;
    Spec.Stmts = {S};
    auto CG = frontend::emitKernel(Spec, CodegenOptions{});
    EXPECT_TRUE(CG.hasValue());
    auto Linked =
        frontend::linkRuntime(*CG->AppModule, frontend::RuntimeKind::NewRT);
    EXPECT_TRUE(Linked.hasValue());
    return std::move(CG->AppModule);
  }

  vgpu::VirtualGPU GPU;
  std::int64_t BodyId = 0;
};

TEST_F(AnalysisInvalidationTest, FullPipelineSurvivesDifferentialVerify) {
  // Every pass invocation is followed by recomputing all cached analyses
  // from scratch; any divergence means some claim was too broad.
  for (std::uint64_t Scratch : {std::uint64_t(0), std::uint64_t(256)}) {
    auto M = makeKernelModule(Scratch);
    RemarkCollector Remarks;
    OptOptions Options;
    Options.VerifyAnalyses = true;
    Options.Obs.Remarks = &Remarks;
    runPipeline(*M, Options);
    EXPECT_TRUE(Remarks.filtered(RemarkKind::Analysis).empty())
        << "stale cached analysis after an honestly-claimed pass";
  }
  EXPECT_EQ(Counters::global().value("opt.analysis.verify.failures"), 0u);
}

TEST_F(AnalysisInvalidationTest, PerFunctionInvalidationSparesOthers) {
  ir::Module M;
  ir::IRBuilder B(M);
  auto makeFn = [&](const char *Name) {
    ir::Function *F =
        M.createFunction(Name, ir::Type::voidTy(), {ir::Type::i1()});
    ir::BasicBlock *Entry = F->createBlock("entry");
    ir::BasicBlock *Exit = F->createBlock("exit");
    B.setInsertPoint(Entry);
    B.condBr(F->arg(0), Exit, Exit);
    B.setInsertPoint(Exit);
    B.retVoid();
    return F;
  };
  ir::Function *F = makeFn("f");
  ir::Function *G = makeFn("g");

  AnalysisManager AM(M);
  AM.dominators(*F);
  AM.dominators(*G);
  EXPECT_EQ(AM.misses(AnalysisKind::Dominators), 2u);
  const unsigned Epoch0 = AM.epoch();

  AM.invalidate(*F, PreservedAnalyses::none());
  EXPECT_GT(AM.epoch(), Epoch0);
  EXPECT_EQ(AM.invalidations(AnalysisKind::Dominators), 1u);

  AM.dominators(*G);
  EXPECT_EQ(AM.hits(AnalysisKind::Dominators), 1u)
      << "g's tree must survive f's invalidation";
  AM.dominators(*F);
  EXPECT_EQ(AM.misses(AnalysisKind::Dominators), 3u)
      << "f's tree must be recomputed";
}

TEST_F(AnalysisInvalidationTest, CfgPreservationKeepsTreesDropsDivergence) {
  // Divergence depends on values, not just on block shape, so a cfg()
  // claim drops it while the CFG-shape analyses survive.
  ir::Module M;
  ir::IRBuilder B(M);
  ir::Function *F =
      M.createFunction("f", ir::Type::i32(), {ir::Type::i32()});
  ir::BasicBlock *Entry = F->createBlock("entry");
  B.setInsertPoint(Entry);
  ir::Value *A = B.add(F->arg(0), F->arg(0));
  B.ret(A);

  AnalysisManager AM(M);
  AM.dominators(*F);
  AM.postDominators(*F);
  AM.reachability(*F);
  AM.divergence(*F); // consumes the cached post-dominator tree: one hit
  EXPECT_EQ(AM.hits(AnalysisKind::PostDominators), 1u);

  AM.invalidate(*F, PreservedAnalyses::cfg());
  EXPECT_EQ(AM.invalidations(AnalysisKind::Divergence), 1u);
  EXPECT_EQ(AM.invalidations(AnalysisKind::Dominators), 0u);
  EXPECT_EQ(AM.invalidations(AnalysisKind::PostDominators), 0u);
  EXPECT_EQ(AM.invalidations(AnalysisKind::Reachability), 0u);

  AM.dominators(*F);
  AM.postDominators(*F);
  AM.reachability(*F);
  EXPECT_EQ(AM.hits(AnalysisKind::Dominators), 1u);
  EXPECT_EQ(AM.hits(AnalysisKind::PostDominators), 2u);
  EXPECT_EQ(AM.hits(AnalysisKind::Reachability), 1u);
  AM.divergence(*F);
  EXPECT_EQ(AM.misses(AnalysisKind::Divergence), 2u);
}

TEST_F(AnalysisInvalidationTest, AccessAnalysisFlagMismatchIsMiss) {
  ir::Module M;
  ir::IRBuilder B(M);
  ir::Function *F = M.createFunction("f", ir::Type::voidTy(), {});
  ir::BasicBlock *Entry = F->createBlock("entry");
  B.setInsertPoint(Entry);
  ir::Value *Buf = B.allocaBytes(8, "buf");
  B.store(B.i32(1), Buf);
  B.retVoid();

  AnalysisManager AM(M);
  AM.accesses(*F, /*CollectAssumes=*/false);
  EXPECT_EQ(AM.misses(AnalysisKind::Accesses), 1u);
  AM.accesses(*F, /*CollectAssumes=*/true);
  EXPECT_EQ(AM.misses(AnalysisKind::Accesses), 2u)
      << "a cached result built without assume collection cannot serve a "
         "collecting request";
  AM.accesses(*F, /*CollectAssumes=*/true);
  EXPECT_EQ(AM.hits(AnalysisKind::Accesses), 1u);
}

TEST_F(AnalysisInvalidationTest, VerifyCachedCatchesOverBroadClaim) {
  // A lying pass: primes the analysis cache, mutates a function, and
  // claims everything was preserved. The differential verifier must flag
  // the stale entries, count them, and remark about them.
  class PrimingPass : public Pass {
  public:
    [[nodiscard]] std::string_view name() const override { return "prime"; }
    PassResult run(ir::Module &M, AnalysisManager &AM,
                   const OptOptions &) override {
      for (const auto &F : M.functions())
        if (!F->isDeclaration()) {
          AM.dominators(*F);
          AM.accesses(*F, false);
        }
      return PassResult::unchanged();
    }
  };
  class LyingPass : public Pass {
  public:
    [[nodiscard]] std::string_view name() const override { return "liar"; }
    PassResult run(ir::Module &M, AnalysisManager &,
                   const OptOptions &) override {
      // Erase the first store in the module — the access analysis
      // changes — but claim all analyses survived.
      for (const auto &F : M.functions())
        for (const auto &BB : F->blocks())
          for (const auto &I : BB->instructions())
            if (I->opcode() == ir::Opcode::Store) {
              BB->erase(I.get());
              return PassResult::changed(PreservedAnalyses::all());
            }
      return PassResult::unchanged();
    }
  };

  ir::Module M;
  ir::IRBuilder B(M);
  ir::Function *F = M.createFunction("f", ir::Type::voidTy(), {});
  ir::BasicBlock *Entry = F->createBlock("entry");
  B.setInsertPoint(Entry);
  ir::Value *Buf = B.allocaBytes(8, "buf");
  B.store(B.i32(7), Buf);
  B.retVoid();

  PipelineSpec Seed;
  PipelineStage St;
  St.Phase = "seq";
  St.Passes = {"dce"};
  Seed.Stages.push_back(St);
  Expected<PassManager> PM = PassManager::create(Seed);
  ASSERT_TRUE(PM.hasValue());
  {
    PipelineStage Inject;
    Inject.Phase = "inject";
    std::vector<std::unique_ptr<Pass>> Passes;
    Passes.push_back(std::make_unique<PrimingPass>());
    Passes.push_back(std::make_unique<LyingPass>());
    PM->addStage(std::move(Inject), std::move(Passes));
  }

  RemarkCollector Remarks;
  OptOptions Options;
  Options.VerifyAnalyses = true;
  Options.Obs.Remarks = &Remarks;
  PM->run(M, Options);

  EXPECT_GT(Counters::global().value("opt.analysis.verify.failures"), 0u)
      << "the over-broad claim must be detected";
  const auto Analysis = Remarks.filtered(RemarkKind::Analysis, "liar");
  ASSERT_FALSE(Analysis.empty());
  EXPECT_NE(Analysis.front().Message.find("over-broad"), std::string::npos);
}

TEST_F(AnalysisInvalidationTest, CachedEqualsFreshAfterHonestPipeline) {
  // Belt-and-braces differential check without VerifyAnalyses: run the
  // real pipeline, then compare a handful of cached analyses rebuilt via a
  // fresh manager against direct computation.
  auto M = makeKernelModule(128);
  runPipeline(*M, OptOptions{});
  AnalysisManager AM(*M);
  for (const auto &F : M->functions()) {
    if (F->isDeclaration())
      continue;
    AM.dominators(*F);
    AM.postDominators(*F);
    AM.reachability(*F);
  }
  EXPECT_TRUE(AM.verifyCached().empty());
}

} // namespace
} // namespace codesign::opt
