//===- tests/lint/test_lint.cpp - Static linter vs. dynamic oracle --------===//
//
// Differential harness for the divergence-aware kernel linter: seeded
// kernels with known defects must be flagged statically (Missed remarks
// from the lint rules) AND reproduce dynamically (the interpreter's race /
// divergent-barrier detector traps on the same kernel). The five proxy
// applications must lint clean under every paper build configuration —
// the linter's precision bar.
//
//===----------------------------------------------------------------------===//
#include "opt/Lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "apps/AppCommon.hpp"
#include "apps/GridMini.hpp"
#include "apps/MiniFMM.hpp"
#include "apps/RSBench.hpp"
#include "apps/TestSNAP.hpp"
#include "apps/XSBench.hpp"
#include "ir/IRBuilder.hpp"
#include "ir/Verifier.hpp"
#include "opt/Pipeline.hpp"
#include "rt/RuntimeABI.hpp"
#include "support/Stats.hpp"
#include "vgpu/VirtualGPU.hpp"

namespace codesign::opt {
namespace {

using namespace ir;

/// Run the full lint pipeline over M and return the findings of one rule
/// ("" = all rules).
std::vector<Remark> lint(Module &M, const std::string &Rule = {}) {
  RemarkCollector Collector;
  OptOptions Options;
  Options.Pipeline = std::string(LintPipeline);
  Options.Obs.Remarks = &Collector;
  runPipeline(M, Options);
  return Collector.filtered(RemarkKind::Missed, Rule);
}

/// Kernel with an aligned barrier only thread 0 reaches:
///   if (tid == 0) { aligned_barrier; } return;
void buildDivergentBarrierKernel(Module &M) {
  Function *K = M.createFunction("divbar", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *Bar = K->createBlock("bar");
  BasicBlock *Done = K->createBlock("done");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.condBr(B.icmpEQ(B.threadId(), B.i32(0)), Bar, Done);
  B.setInsertPoint(Bar);
  B.alignedBarrier(5);
  B.br(Done);
  B.setInsertPoint(Done);
  B.retVoid();
}

/// Kernel where every thread stores its own id to one shared field and
/// reads it back with no barrier in between.
void buildSharedRaceKernel(Module &M) {
  GlobalVariable *Cell = M.createGlobal("cell", AddrSpace::Shared, 8);
  Function *K = M.createFunction("race", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.store(B.zext(B.threadId(), Type::i64()), Cell);
  B.load(Type::i64(), Cell);
  B.retVoid();
}

TEST(Lint, DivergentBarrierFlaggedStatically) {
  Module M;
  buildDivergentBarrierKernel(M);
  ASSERT_TRUE(verifyModule(M).empty());
  const auto Findings = lint(M, "lint-barrier-divergence");
  ASSERT_EQ(Findings.size(), 1u);
  EXPECT_EQ(Findings[0].Function, "divbar");
  EXPECT_NE(Findings[0].Message.find("guaranteed deadlock"),
            std::string::npos)
      << Findings[0].Message;
  // Provenance names the divergent condition all the way to its seed.
  EXPECT_NE(Findings[0].Message.find("thread.id"), std::string::npos)
      << Findings[0].Message;
}

TEST(Lint, DivergentBarrierReproducesDynamically) {
  // The dynamic oracle: the interpreter's detector reports the same defect
  // when the kernel actually runs.
  Module M;
  buildDivergentBarrierKernel(M);
  vgpu::VirtualGPU GPU;
  GPU.setDetectRaces(true);
  auto Image = GPU.loadImage(M);
  vgpu::LaunchResult R = GPU.launch(*Image, "divbar", {}, 1, 4);
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("divergent aligned barrier"), std::string::npos)
      << R.Error;
}

TEST(Lint, SharedRaceFlaggedStatically) {
  Module M;
  buildSharedRaceKernel(M);
  ASSERT_TRUE(verifyModule(M).empty());
  const auto Findings = lint(M, "lint-shared-race");
  // Both defects surface: the divergent-valued store every thread executes
  // (write-write) and the load observing it mid-epoch (read-write).
  ASSERT_GE(Findings.size(), 2u);
  bool SawWW = false, SawRW = false;
  for (const Remark &F : Findings) {
    EXPECT_EQ(F.Function, "race");
    EXPECT_NE(F.Message.find("'cell'"), std::string::npos) << F.Message;
    SawWW |= F.Message.find("write-write race") != std::string::npos;
    SawRW |= F.Message.find("read-write race") != std::string::npos;
  }
  EXPECT_TRUE(SawWW);
  EXPECT_TRUE(SawRW);
}

TEST(Lint, SharedRaceNamesEachPairingAcrossBlocks) {
  // "wide": every thread stores one uniform i64, then loads its upper half
  // (a partial overlap). "pair": the two arms of a tid branch store
  // different constants, and the join, reached from one arm through a
  // further block, loads it with no barrier.
  Module M;
  GlobalVariable *Wide = M.createGlobal("wide", AddrSpace::Shared, 8);
  GlobalVariable *Pair = M.createGlobal("pair", AddrSpace::Shared, 8);
  Function *K = M.createFunction("arms", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *Zero = K->createBlock("zero");
  BasicBlock *Rest = K->createBlock("rest");
  BasicBlock *Hop = K->createBlock("hop");
  BasicBlock *Join = K->createBlock("join");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.store(B.i64(7), Wide);
  B.load(Type::i32(), B.gep(Wide, 4));
  B.condBr(B.icmpEQ(B.threadId(), B.i32(0)), Zero, Rest);
  B.setInsertPoint(Zero);
  B.store(B.i64(1), Pair);
  B.br(Join);
  B.setInsertPoint(Rest);
  B.store(B.i64(2), Pair);
  B.br(Hop);
  B.setInsertPoint(Hop);
  B.br(Join);
  B.setInsertPoint(Join);
  B.load(Type::i64(), Pair);
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());
  std::vector<std::string> Messages;
  for (const Remark &F : lint(M, "lint-shared-race"))
    Messages.push_back(F.Message);
  const auto Saw = [&](std::string_view A, std::string_view B) {
    return std::any_of(Messages.begin(), Messages.end(),
                       [&](const std::string &Msg) {
                         return Msg.find(A) != std::string::npos &&
                                Msg.find(B) != std::string::npos;
                       });
  };
  EXPECT_TRUE(Saw("read-write race on shared object 'wide'",
                  "the accesses overlap partially"))
      << ::testing::PrintToString(Messages);
  EXPECT_TRUE(Saw("write-write race on shared object 'pair'",
                  "store different values with no intervening barrier"))
      << ::testing::PrintToString(Messages);
  EXPECT_TRUE(Saw("read-write race on shared object 'pair'",
                  "the store executes under divergent control"))
      << ::testing::PrintToString(Messages);
}

TEST(Lint, SharedRaceReproducesDynamically) {
  Module M;
  buildSharedRaceKernel(M);
  vgpu::VirtualGPU GPU;
  GPU.setDetectRaces(true);
  auto Image = GPU.loadImage(M);
  vgpu::LaunchResult R = GPU.launch(*Image, "race", {}, 1, 4);
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("shared-memory race"), std::string::npos)
      << R.Error;
}

TEST(Lint, RaceFreeBroadcastIsCleanBothWays) {
  // The paper's broadcast idiom (Figure 7a): single-writer store, barrier,
  // all-thread read. Static linter and dynamic detector both stay quiet.
  Module M;
  GlobalVariable *Cell = M.createGlobal("cell", AddrSpace::Shared, 8);
  Function *K = M.createFunction("bcast", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *Write = K->createBlock("write");
  BasicBlock *Join = K->createBlock("join");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.condBr(B.icmpEQ(B.threadId(), B.i32(0)), Write, Join);
  B.setInsertPoint(Write);
  B.store(B.i64(42), Cell);
  B.br(Join);
  B.setInsertPoint(Join);
  B.barrier();
  B.load(Type::i64(), Cell);
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());

  EXPECT_TRUE(lint(M).empty());
  vgpu::VirtualGPU GPU;
  GPU.setDetectRaces(true);
  auto Image = GPU.loadImage(M);
  vgpu::LaunchResult R = GPU.launch(*Image, "bcast", {}, 2, 8);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(Lint, AssumeMisuseFlagged) {
  Module M;
  // A generic-mode state-machine entry the SPMD kernel must never call.
  Function *Parallel =
      M.createFunction(std::string(rt::ParallelName), Type::voidTy(), {});
  GlobalVariable *Oversub = M.createGlobal(
      std::string(rt::AssumeTeamsOversubName), AddrSpace::Constant, 4);
  Oversub->setConstantFlag(true);
  Function *K = M.createFunction("kern", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  K->setExecMode(ExecMode::SPMD);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.assume(M.constBool(false));
  B.store(B.i32(1), Oversub);
  B.call(Parallel, {});
  B.retVoid();

  const auto Findings = lint(M, "lint-assume-misuse");
  ASSERT_EQ(Findings.size(), 3u);
  bool SawFalse = false, SawStore = false, SawSpmd = false;
  for (const Remark &F : Findings) {
    SawFalse |= F.Message.find("statically false") != std::string::npos;
    SawStore |=
        F.Message.find("oversubscription assumption") != std::string::npos;
    SawSpmd |= F.Message.find("SPMD") != std::string::npos;
  }
  EXPECT_TRUE(SawFalse);
  EXPECT_TRUE(SawStore);
  EXPECT_TRUE(SawSpmd);
}

TEST(Lint, RulesNeverMutateAndCountRuns) {
  Module M;
  buildSharedRaceKernel(M);
  const std::uint64_t Before = Counters::global().value("opt.lint.runs");
  OptOptions Options;
  Options.Pipeline = std::string(LintPipeline);
  EXPECT_FALSE(runPipeline(M, Options)) << "lint is analysis-only";
  EXPECT_EQ(Counters::global().value("opt.lint.runs"), Before + 5)
      << "one run per rule";
  EXPECT_GE(Counters::global().value("opt.lint.lint-shared-race.findings"),
            1u);
}

//===--------------------------------------------------------------------===//
// Precision bar: every proxy app, every paper build configuration, zero
// findings — over exactly the module that executed on the device.
//===--------------------------------------------------------------------===//

void expectLintClean(const apps::AppRunResult &R, const std::string &App) {
  ASSERT_TRUE(R.Ok) << App << " / " << R.Build << ": " << R.Error;
  EXPECT_TRUE(R.Verified) << App << " / " << R.Build;
  ASSERT_NE(R.Module, nullptr) << App << " / " << R.Build;
  RemarkCollector Collector;
  OptOptions Options;
  Options.Pipeline = std::string(LintPipeline);
  Options.Obs.Remarks = &Collector;
  const std::uint64_t Before = Counters::global().value("opt.lint.runs");
  runPipeline(*R.Module, Options);
  EXPECT_EQ(Counters::global().value("opt.lint.runs"), Before + 5);
  for (const Remark &F : Collector.filtered(RemarkKind::Missed))
    ADD_FAILURE() << App << " / " << R.Build << " [" << F.Pass << "] "
                  << F.Function << ": " << F.Message;
}

TEST(LintApps, XSBenchClean) {
  vgpu::VirtualGPU GPU;
  apps::XSBenchConfig Cfg;
  Cfg.NLookups = 2048;
  Cfg.Teams = 16;
  apps::XSBench App(GPU, Cfg);
  for (const apps::BuildConfig &Build : apps::paperBuildConfigs())
    expectLintClean(App.run(Build), "xsbench");
}

TEST(LintApps, RSBenchClean) {
  vgpu::VirtualGPU GPU;
  apps::RSBenchConfig Cfg;
  // Four lookups per thread: oversubscribed, so the assumed build is n/a
  // (as in Figure 11).
  Cfg.NLookups = 16 * 64 * 4;
  Cfg.Teams = 16;
  Cfg.Threads = 64;
  apps::RSBench App(GPU, Cfg);
  for (const apps::BuildConfig &Build :
       apps::paperBuildConfigs(/*IncludeAssumed=*/false))
    expectLintClean(App.run(Build), "rsbench");
}

TEST(LintApps, GridMiniClean) {
  vgpu::VirtualGPU GPU;
  apps::GridMiniConfig Cfg;
  Cfg.Volume = 1024;
  Cfg.Teams = 8;
  apps::GridMini App(GPU, Cfg);
  for (const apps::BuildConfig &Build : apps::paperBuildConfigs())
    expectLintClean(App.run(Build), "gridmini");
}

TEST(LintApps, TestSNAPClean) {
  vgpu::VirtualGPU GPU;
  apps::TestSNAPConfig Cfg;
  Cfg.NAtoms = 64;
  Cfg.Teams = 32;
  apps::TestSNAP App(GPU, Cfg);
  for (const apps::BuildConfig &Build : apps::paperBuildConfigs())
    expectLintClean(App.run(Build), "testsnap");
}

TEST(LintApps, MiniFMMClean) {
  vgpu::VirtualGPU GPU;
  apps::MiniFMMConfig Cfg;
  Cfg.Teams = 16;
  apps::MiniFMM App(GPU, Cfg);
  for (const apps::BuildConfig &Build : apps::paperBuildConfigs())
    expectLintClean(App.run(Build), "minifmm");
}

} // namespace
} // namespace codesign::opt
