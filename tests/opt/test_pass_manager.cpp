//===- tests/opt/test_pass_manager.cpp - Pass manager & pipeline specs -----===//
//
// The declarative pipeline layer: PipelineSpec round-trips between its
// canonical text and structure, the registry rejects bad tokens, the pass
// manager reproduces runPipeline behavior, conditional stages gate on the
// previous stage's change flag, fixpoint exhaustion is diagnosed, and the
// CODESIGN_PRINT_AFTER knob dumps the module.
//
//===----------------------------------------------------------------------===//
#include "opt/PassManager.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "frontend/Driver.hpp"
#include "ir/Printer.hpp"
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

class PassManagerTest : public ::testing::Test {
protected:
  void SetUp() override {
    trace::Tracer::global().setEnabled(false);
    trace::Tracer::global().clear();
    Counters::global().reset();
    BodyId = GPU.registry().add(vgpu::NativeOpInfo{
        "pm_body", [](vgpu::NativeCtx &Ctx) { Ctx.chargeCycles(1); }, 2});
  }
  void TearDown() override {
    trace::Tracer::global().setEnabled(false);
    trace::Tracer::global().clear();
    unsetenv("CODESIGN_PRINT_AFTER");
  }

  /// Emit + link a representative kernel module.
  std::unique_ptr<ir::Module> makeModule() {
    KernelSpec Spec;
    Spec.Name = "pm_kernel";
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

TEST_F(PassManagerTest, FromOptionsCanonicalString) {
  EXPECT_EQ(
      PipelineSpec::fromOptions(OptOptions{}).str(),
      "@structural(spmdization,globalization-elim[team-scratch],inliner);"
      "@fixpoint*max(constant-fold,simplify-cfg,load-forwarding,"
      "dead-store-elim,globalization-elim,dce,inliner);"
      "@strip-assumes(strip-assumes);"
      "@strip-assumes?*4(constant-fold,simplify-cfg,dead-store-elim,dce);"
      "@barrier-cleanup*4(barrier-elim,simplify-cfg,dce)");

  OptOptions Keep;
  Keep.KeepAssumes = true;
  EXPECT_EQ(PipelineSpec::fromOptions(Keep).str().find("strip-assumes"),
            std::string::npos)
      << "KeepAssumes pipelines must not strip";

  OptOptions NoInline;
  NoInline.EnableInlining = false;
  EXPECT_EQ(PipelineSpec::fromOptions(NoInline).str().find("inliner"),
            std::string::npos);
}

TEST_F(PassManagerTest, ParseStrRoundTrips) {
  for (const OptOptions &O :
       {OptOptions{}, OptOptions::nightly(), OptOptions::none()}) {
    const PipelineSpec S = PipelineSpec::fromOptions(O);
    Expected<PipelineSpec> Re = PipelineSpec::parse(S.str());
    ASSERT_TRUE(Re.hasValue()) << Re.error().message();
    EXPECT_EQ(Re->str(), S.str());
  }
}

TEST_F(PassManagerTest, ParseToleratesWhitespace) {
  Expected<PipelineSpec> S = PipelineSpec::parse(
      " @seq( dce , simplify-cfg ) ;\n @fixpoint *max ( constant-fold )");
  ASSERT_TRUE(S.hasValue()) << S.error().message();
  EXPECT_EQ(S->str(), "@seq(dce,simplify-cfg);@fixpoint*max(constant-fold)");
}

TEST_F(PassManagerTest, ShorthandForm) {
  Expected<PipelineSpec> S =
      PipelineSpec::parse("spmdization,inliner,fixpoint(constant-fold,dce)");
  ASSERT_TRUE(S.hasValue()) << S.error().message();
  EXPECT_EQ(S->str(),
            "@seq(spmdization,inliner);@fixpoint*max(constant-fold,dce)");
  ASSERT_EQ(S->Stages.size(), 2u);
  EXPECT_EQ(S->Stages[0].MaxRounds, 1);
  EXPECT_EQ(S->Stages[1].MaxRounds, 0);
}

TEST_F(PassManagerTest, ParseRejectsBadSpecs) {
  EXPECT_FALSE(PipelineSpec::parse("").hasValue());
  EXPECT_FALSE(PipelineSpec::parse("no-such-pass").hasValue());
  EXPECT_FALSE(PipelineSpec::parse("@seq(dce").hasValue())
      << "missing close paren";
  EXPECT_FALSE(PipelineSpec::parse("@seq*0(dce)").hasValue())
      << "explicit zero bound is reserved for *max";
  EXPECT_FALSE(PipelineSpec::parse("@seq*xyz(dce)").hasValue());
  EXPECT_FALSE(PipelineSpec::parse("@a*max(dce);@b*max(dce)").hasValue())
      << "two main fixpoint stages are ambiguous";
  EXPECT_FALSE(PipelineSpec::parse("@(dce)").hasValue())
      << "empty phase name";
}

TEST_F(PassManagerTest, BadSpecsAndTokensNameTheirFault) {
  // Pipeline text is outside input: each rejection says what is wrong.
  const std::pair<const char *, const char *> Texts[] = {
      {"@a(dce);b(dce)", "pipeline stage must start with '@': 'b(dce)'"},
      {"@a()", "pipeline stage 'a' has no passes"},
  };
  for (const auto &[Text, Want] : Texts) {
    Expected<PipelineSpec> S = PipelineSpec::parse(Text);
    ASSERT_FALSE(S.hasValue()) << Text;
    EXPECT_EQ(S.error().message(), Want);
  }
  const std::pair<const char *, const char *> Tokens[] = {
      {"dce[oops", "malformed pass token 'dce[oops'"},
      {"nope", "unknown pass 'nope'"},
      {"spmdization[x]", "pass 'spmdization' does not accept argument 'x'"},
      {"barrier-elim[x]", "pass 'barrier-elim' does not accept argument 'x'"},
      {"load-forwarding[x]",
       "pass 'load-forwarding' does not accept argument 'x'"},
      {"dead-store-elim[x]",
       "pass 'dead-store-elim' does not accept argument 'x'"},
      {"lint-shared-race[x]",
       "pass 'lint-shared-race' does not accept argument 'x'"},
  };
  for (const auto &[Token, Want] : Tokens) {
    Expected<std::unique_ptr<Pass>> P = PassRegistry::global().create(Token);
    ASSERT_FALSE(P.hasValue()) << Token;
    EXPECT_EQ(P.error().message(), Want);
  }
  // Specs built in code skip the parser but not validation.
  PipelineSpec Empty;
  EXPECT_EQ(PassManager::create(Empty).error().message(), "empty pipeline");
  PipelineSpec Negative;
  Negative.Stages.push_back({});
  Negative.Stages.back().Phase = "seq";
  Negative.Stages.back().Passes = {"dce"};
  Negative.Stages.back().MaxRounds = -1;
  EXPECT_EQ(PassManager::create(Negative).error().message(),
            "pipeline stage 'seq' has a negative round bound");
}

TEST_F(PassManagerTest, RegistryTokens) {
  PassRegistry &R = PassRegistry::global();
  EXPECT_TRUE(R.contains("dce"));
  EXPECT_TRUE(R.contains("globalization-elim[team-scratch]"));
  EXPECT_FALSE(R.contains("no-such-pass"));
  EXPECT_FALSE(R.create("dce[bogus]").hasValue())
      << "dce takes no argument";
  EXPECT_FALSE(R.create("globalization-elim[wat]").hasValue());
  Expected<std::unique_ptr<Pass>> P = R.create("globalization-elim");
  ASSERT_TRUE(P.hasValue());
  EXPECT_EQ((*P)->name(), "globalization-elim");
  EXPECT_FALSE(R.names().empty());
}

TEST_F(PassManagerTest, CreateRejectsUnknownPassAndBadArgument) {
  PipelineSpec S;
  PipelineStage St;
  St.Phase = "seq";
  St.Passes = {"dce[bogus]"};
  S.Stages.push_back(St);
  EXPECT_FALSE(PassManager::create(S).hasValue());
}

TEST_F(PassManagerTest, RunMatchesLegacyRunPipeline) {
  auto MA = makeModule();
  auto MB = makeModule();

  const bool ChangedA = runPipeline(*MA, OptOptions{});

  Expected<PipelineSpec> Spec = resolvePipelineSpec(OptOptions{});
  ASSERT_TRUE(Spec.hasValue());
  Expected<PassManager> PM = PassManager::create(Spec.value());
  ASSERT_TRUE(PM.hasValue());
  const bool ChangedB = PM->run(*MB, OptOptions{});

  EXPECT_EQ(ChangedA, ChangedB);
  EXPECT_EQ(ir::printModule(*MA), ir::printModule(*MB))
      << "explicit pass-manager execution must be bit-identical to "
         "runPipeline";
}

TEST_F(PassManagerTest, PipelineOverrideDrivesPhaseLabels) {
  auto M = makeModule();
  OptOptions Options;
  Options.Pipeline = "fixpoint(constant-fold,simplify-cfg,dce)";
  std::vector<PassExecution> Seen;
  Options.Obs.OnPass = [&](const PassExecution &E) { Seen.push_back(E); };
  runPipeline(*M, Options);
  ASSERT_FALSE(Seen.empty());
  for (const PassExecution &E : Seen) {
    EXPECT_EQ(E.Phase, "fixpoint");
    EXPECT_GE(E.Round, 0) << "fixpoint rounds are 0-based";
  }
}

TEST_F(PassManagerTest, ConditionalStageGatesOnPreviousChange) {
  // A stage marked '?' after a stage that cannot change anything must be
  // skipped entirely.
  auto M = makeModule();
  OptOptions Options;
  // dce on a fresh module changes things; running it to a fixpoint first
  // makes the second plain dce stage a no-op, so the gated stage after it
  // must not run.
  Options.Pipeline = "@warm*8(constant-fold,simplify-cfg,dce);"
                     "@quiet(dce);@gated?(simplify-cfg)";
  std::vector<PassExecution> Seen;
  Options.Obs.OnPass = [&](const PassExecution &E) { Seen.push_back(E); };
  runPipeline(*M, Options);
  bool SawQuiet = false, SawGated = false;
  for (const PassExecution &E : Seen) {
    SawQuiet |= E.Phase == "quiet";
    SawGated |= E.Phase == "gated";
  }
  EXPECT_TRUE(SawQuiet);
  EXPECT_FALSE(SawGated)
      << "stage gated on an unchanged predecessor must be skipped";
}

TEST_F(PassManagerTest, FixpointExhaustionCounterAndRemark) {
  auto M = makeModule();
  RemarkCollector Remarks;
  OptOptions Options;
  Options.MaxFixpointRounds = 1; // the kernel needs several rounds
  Options.Obs.Remarks = &Remarks;
  runPipeline(*M, Options);
  EXPECT_GE(Counters::global().value("opt.fixpoint.exhausted"), 1u);
  const auto Missed = Remarks.filtered(RemarkKind::Missed, "pipeline");
  ASSERT_FALSE(Missed.empty())
      << "non-convergence must produce a missed-optimization remark";
  EXPECT_NE(Missed.front().Message.find("without converging"),
            std::string::npos);
}

TEST_F(PassManagerTest, ConvergedFixpointDoesNotReportExhaustion) {
  auto M = makeModule();
  runPipeline(*M, OptOptions{}); // default bound is enough to converge
  EXPECT_EQ(Counters::global().value("opt.fixpoint.exhausted"), 0u);
}

TEST_F(PassManagerTest, PrintAfterDumpsNamedPass) {
  auto M = makeModule();
  setenv("CODESIGN_PRINT_AFTER", "dce", 1);
  ::testing::internal::CaptureStderr();
  runPipeline(*M, OptOptions{});
  const std::string Err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(Err.find("CODESIGN_PRINT_AFTER: module after dce"),
            std::string::npos);
  EXPECT_EQ(Err.find("module after simplify-cfg"), std::string::npos)
      << "only the named pass dumps";
}

TEST_F(PassManagerTest, AnalysisTrafficReachesObserverAndSummary) {
  auto M = makeModule();
  OptOptions Options;
  std::uint64_t PerPassHits = 0, PerPassMisses = 0;
  Options.Obs.OnPass = [&](const PassExecution &E) {
    PerPassHits += E.AnalysisHits;
    PerPassMisses += E.AnalysisMisses;
  };
  PipelineSummary Summary;
  Options.Obs.OnPipelineEnd = [&](const PipelineSummary &S) { Summary = S; };
  runPipeline(*M, Options);
  EXPECT_GT(Summary.AnalysisMisses, 0u);
  EXPECT_GT(Summary.AnalysisHits, 0u)
      << "a multi-round fixpoint must reuse cached analyses";
  EXPECT_EQ(Summary.AnalysisHits, PerPassHits)
      << "summary totals are the sum of per-pass deltas";
  EXPECT_EQ(Summary.AnalysisMisses, PerPassMisses);
  EXPECT_GT(Counters::global().value("opt.analysis.reachability.hits"), 0u);
}

} // namespace
} // namespace codesign::opt
