//===- tests/opt/test_observer.cpp - Pipeline observability ----------------===//
//
// The opt::Observer contract: per-pass callbacks see timing and IR deltas,
// the end-of-pipeline summary matches the module, the Obs.Remarks sink
// receives pipeline remarks, and pass timings flow into support::Counters /
// the tracer when (and only when) tracing is enabled.
//
//===----------------------------------------------------------------------===//
#include "opt/Pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "frontend/Driver.hpp"
#include "opt/Lint.hpp"
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

class ObserverTest : public ::testing::Test {
protected:
  void SetUp() override {
    trace::Tracer::global().setEnabled(false);
    trace::Tracer::global().clear();
    Counters::global().reset();
    BodyId = GPU.registry().add(vgpu::NativeOpInfo{
        "obs_body", [](vgpu::NativeCtx &Ctx) { Ctx.chargeCycles(1); }, 2});
  }
  void TearDown() override {
    trace::Tracer::global().setEnabled(false);
    trace::Tracer::global().clear();
  }

  /// Emit + link a representative kernel module (runtime calls, barriers,
  /// globalized state — everything the pipeline works on).
  std::unique_ptr<ir::Module> makeModule() {
    KernelSpec Spec;
    Spec.Name = "observed";
    Spec.Params = {{ir::Type::ptr(), "buf"}, {ir::Type::i64(), "n"}};
    NativeBody Body;
    Body.NativeId = BodyId;
    Body.Args = {BodyArg::iter(), BodyArg::arg(0)};
    Spec.Stmts = {Stmt::distributeParallelFor(TripCount::argument(1), Body)};
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

TEST_F(ObserverTest, OnPassSeesEveryPassWithIRDeltas) {
  auto M = makeModule();
  const std::size_t InitialInsts = M->instructionCount();

  std::vector<PassExecution> Seen;
  OptOptions Options;
  Options.Obs.OnPass = [&](const PassExecution &E) { Seen.push_back(E); };
  runPipeline(*M, Options);

  ASSERT_FALSE(Seen.empty());
  EXPECT_EQ(Seen.front().Before.Instructions, InitialInsts);
  for (const PassExecution &E : Seen) {
    EXPECT_FALSE(E.Pass.empty());
    EXPECT_FALSE(E.Phase.empty());
    if (!E.Changed) {
      EXPECT_EQ(E.Before.Instructions, E.After.Instructions)
          << E.Pass << " reported no change but the IR size moved";
    }
  }
  // Consecutive executions chain: each pass starts from the predecessor's
  // end state.
  for (std::size_t I = 1; I < Seen.size(); ++I)
    EXPECT_EQ(Seen[I - 1].After.Instructions, Seen[I].Before.Instructions);
  EXPECT_EQ(Seen.back().After.Instructions, M->instructionCount());
  // The pipeline shrinks this kernel overall (it removes runtime state).
  EXPECT_GT(Seen.front().Before.Instructions,
            Seen.back().After.Instructions);
}

TEST_F(ObserverTest, FixpointRoundsAreReported) {
  auto M = makeModule();
  int MaxRound = -1;
  PipelineSummary Summary;
  bool GotSummary = false;
  OptOptions Options;
  Options.Obs.OnPass = [&](const PassExecution &E) {
    if (E.Phase == "fixpoint")
      MaxRound = std::max(MaxRound, E.Round);
  };
  Options.Obs.OnPipelineEnd = [&](const PipelineSummary &S) {
    Summary = S;
    GotSummary = true;
  };
  const std::size_t InitialInsts = M->instructionCount();
  const bool Changed = runPipeline(*M, Options);

  ASSERT_TRUE(GotSummary);
  EXPECT_EQ(Summary.Changed, Changed);
  EXPECT_TRUE(Summary.Changed);
  EXPECT_GE(Summary.FixpointRounds, 1);
  EXPECT_EQ(MaxRound + 1, Summary.FixpointRounds)
      << "rounds seen by passes must match the summary";
  EXPECT_EQ(Summary.Before.Instructions, InitialInsts);
  EXPECT_EQ(Summary.After.Instructions, M->instructionCount());
}

TEST_F(ObserverTest, ObserverRemarkSinkDelivers) {
  auto M = makeModule();
  RemarkCollector Remarks;
  OptOptions Options;
  Options.Obs.Remarks = &Remarks;
  EXPECT_EQ(Options.remarkSink(), &Remarks);
  EXPECT_TRUE(Options.observed());
  runPipeline(*M, Options);
  EXPECT_FALSE(Remarks.remarks().empty())
      << "the observer remark sink must receive pipeline remarks";
}

TEST_F(ObserverTest, PassTimingsReachCountersOnlyWhenTracing) {
  {
    auto M = makeModule();
    runPipeline(*M, OptOptions{});
    EXPECT_EQ(Counters::global().value("opt.fixpoint.rounds"), 0u)
        << "untraced, unobserved runs must not touch the counter registry";
  }
  trace::Tracer::global().setEnabled(true);
  {
    auto M = makeModule();
    runPipeline(*M, OptOptions{});
  }
  EXPECT_GE(Counters::global().value("opt.fixpoint.rounds"), 1u);
  EXPECT_GE(Counters::global().value("opt.pass.dce.changed"), 1u);

  // And the tracer holds one span per executed pass plus the pipeline span.
  bool SawPipelineSpan = false;
  std::size_t PassSpans = 0;
  for (const trace::Event &E : trace::Tracer::global().events()) {
    if (E.Category != "opt")
      continue;
    if (E.Name == "pipeline")
      SawPipelineSpan = true;
    else if (E.Kind == trace::EventKind::Span)
      ++PassSpans;
  }
  EXPECT_TRUE(SawPipelineSpan);
  EXPECT_GT(PassSpans, 0u);
}

TEST_F(ObserverTest, LintRulesRunNamedAndTraced) {
  // An observed, traced lint pipeline reports each rule by its registry
  // name and leaves one "lint" span per rule.
  auto M = makeModule();
  trace::Tracer::global().setEnabled(true);
  std::vector<std::string> Passes;
  OptOptions Options;
  Options.Pipeline = std::string(LintPipeline);
  Options.Obs.OnPass = [&](const PassExecution &E) {
    Passes.push_back(E.Pass);
  };
  runPipeline(*M, Options);
  const std::vector<std::string> Rules = {
      "lint-barrier-divergence", "lint-shared-race", "lint-assume-misuse",
      "lint-redundant-map", "lint-missing-map"};
  EXPECT_EQ(Passes, Rules);
  std::vector<std::string> Spans;
  for (const trace::Event &E : trace::Tracer::global().events())
    if (E.Category == "lint")
      Spans.push_back(E.Name);
  EXPECT_EQ(Spans, Rules);
}

} // namespace
} // namespace codesign::opt
