//===- opt/PassManager.cpp - Registry, pipeline specs, and execution -------===//
//
// Replaces the hand-written sequencing of the old PipelineRun.cpp. The
// execution loop keeps that file's observability contract bit-for-bit
// (phase labels, round numbering, "opt.pass.<name>.us" counters, trace
// spans, the end-of-pipeline summary) while adding what a real pass
// manager buys: cached analyses with claim-driven invalidation, declarative
// stage structure, fixpoint-exhaustion diagnostics, and the
// CODESIGN_PRINT_AFTER debug dump.
//
//===----------------------------------------------------------------------===//
#include "opt/PassManager.hpp"

#include "ir/Printer.hpp"
#include "opt/Lint.hpp"
#include "opt/MapInference.hpp"
#include "support/Stats.hpp"
#include "support/Trace.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <iostream>

namespace codesign::opt {

namespace {

/// A pass defined by a name and a callable (all builtins are this).
class LambdaPass final : public Pass {
public:
  using Body = std::function<PassResult(ir::Module &, AnalysisManager &,
                                        const OptOptions &)>;
  LambdaPass(std::string Name, Body B)
      : PassName(std::move(Name)), Run(std::move(B)) {}

  [[nodiscard]] std::string_view name() const override { return PassName; }
  PassResult run(ir::Module &M, AnalysisManager &AM,
                 const OptOptions &Options) override {
    return Run(M, AM, Options);
  }

private:
  std::string PassName;
  Body Run;
};

/// Factory for an argument-less pass wrapping a bool(Module&) function.
PassRegistry::Factory simple(const char *Name, bool (*Fn)(ir::Module &),
                             PreservedAnalyses OnChange) {
  return [Name, Fn, OnChange](const std::string &Arg) -> std::unique_ptr<Pass> {
    if (!Arg.empty())
      return nullptr;
    return std::make_unique<LambdaPass>(
        Name, [Fn, OnChange](ir::Module &M, AnalysisManager &,
                             const OptOptions &) {
          return Fn(M) ? PassResult::changed(OnChange)
                       : PassResult::unchanged();
        });
  };
}

/// Same, for bool(Module&, const OptOptions&) functions.
PassRegistry::Factory
withOptions(const char *Name, bool (*Fn)(ir::Module &, const OptOptions &),
            PreservedAnalyses OnChange) {
  return [Name, Fn, OnChange](const std::string &Arg) -> std::unique_ptr<Pass> {
    if (!Arg.empty())
      return nullptr;
    return std::make_unique<LambdaPass>(
        Name, [Fn, OnChange](ir::Module &M, AnalysisManager &,
                             const OptOptions &Options) {
          return Fn(M, Options) ? PassResult::changed(OnChange)
                                : PassResult::unchanged();
        });
  };
}

void registerBuiltins(PassRegistry &R) {
  // Value rewrites that never touch block structure keep the CFG-shape
  // analyses; everything coarser claims none(). Per-pass rationale:
  //  * constant-fold changes stored values, so the access analysis is out.
  //  * simplify-cfg / dce / inliner / spmdization / globalization-elim
  //    restructure blocks or functions: nothing survives.
  //  * barrier-elim and strip-assumes erase non-terminator, non-memory
  //    instructions: CFG shape survives; strip-assumes also kills the
  //    AssumedEq access facts.
  R.registerPass("constant-fold",
                 simple("constant-fold", runConstantFold,
                        PreservedAnalyses::cfg()));
  R.registerPass("simplify-cfg", simple("simplify-cfg", runSimplifyCFG,
                                        PreservedAnalyses::none()));
  R.registerPass("dce", simple("dce", runDCE, PreservedAnalyses::none()));
  R.registerPass("inliner",
                 simple("inliner", runInliner, PreservedAnalyses::none()));
  R.registerPass("strip-assumes",
                 simple("strip-assumes", runStripAssumes,
                        PreservedAnalyses::cfg()));
  R.registerPass("spmdization", withOptions("spmdization", runSPMDization,
                                            PreservedAnalyses::none()));
  R.registerPass("barrier-elim",
                 [](const std::string &Arg) -> std::unique_ptr<Pass> {
                   if (!Arg.empty())
                     return nullptr;
                   return std::make_unique<LambdaPass>(
                       "barrier-elim",
                       [](ir::Module &M, AnalysisManager &AM,
                          const OptOptions &Options) {
                         return runBarrierElim(M, AM, Options);
                       });
                 });
  R.registerPass(
      "globalization-elim",
      [](const std::string &Arg) -> std::unique_ptr<Pass> {
        const bool TeamScratch = Arg == "team-scratch";
        if (!Arg.empty() && !TeamScratch)
          return nullptr;
        return std::make_unique<LambdaPass>(
            "globalization-elim",
            [TeamScratch](ir::Module &M, AnalysisManager &,
                          const OptOptions &Options) {
              return runGlobalizationElim(M, Options, TeamScratch)
                         ? PassResult::changed(PreservedAnalyses::none())
                         : PassResult::unchanged();
            });
      });
  R.registerPass("load-forwarding",
                 [](const std::string &Arg) -> std::unique_ptr<Pass> {
                   if (!Arg.empty())
                     return nullptr;
                   return std::make_unique<LambdaPass>(
                       "load-forwarding",
                       [](ir::Module &M, AnalysisManager &AM,
                          const OptOptions &Options) {
                         return runLoadForwarding(M, AM, Options);
                       });
                 });
  R.registerPass("dead-store-elim",
                 [](const std::string &Arg) -> std::unique_ptr<Pass> {
                   if (!Arg.empty())
                     return nullptr;
                   return std::make_unique<LambdaPass>(
                       "dead-store-elim",
                       [](ir::Module &M, AnalysisManager &AM,
                          const OptOptions &Options) {
                         return runDeadStoreElim(M, AM, Options);
                       });
                 });
  registerLintPasses(R);
  registerMapInferencePasses(R);
}

/// Split Token into base name and bracket argument. Returns false on a
/// malformed token ('[' without trailing ']').
bool splitToken(std::string_view Token, std::string_view &Base,
                std::string &Arg) {
  const auto LB = Token.find('[');
  if (LB == std::string_view::npos) {
    Base = Token;
    Arg.clear();
    return true;
  }
  if (Token.empty() || Token.back() != ']')
    return false;
  Base = Token.substr(0, LB);
  Arg = std::string(Token.substr(LB + 1, Token.size() - LB - 2));
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// PassRegistry
//===----------------------------------------------------------------------===//

PassRegistry &PassRegistry::global() {
  static PassRegistry R = [] {
    PassRegistry Reg;
    registerBuiltins(Reg);
    return Reg;
  }();
  return R;
}

void PassRegistry::registerPass(std::string Name, Factory F) {
  Factories[std::move(Name)] = std::move(F);
}

bool PassRegistry::contains(std::string_view Token) const {
  std::string_view Base;
  std::string Arg;
  if (!splitToken(Token, Base, Arg))
    return false;
  return Factories.find(Base) != Factories.end();
}

Expected<std::unique_ptr<Pass>>
PassRegistry::create(std::string_view Token) const {
  std::string_view Base;
  std::string Arg;
  if (!splitToken(Token, Base, Arg))
    return makeError("malformed pass token '", Token, "'");
  auto It = Factories.find(Base);
  if (It == Factories.end())
    return makeError("unknown pass '", Base, "'");
  std::unique_ptr<Pass> P = It->second(Arg);
  if (!P)
    return makeError("pass '", Base, "' does not accept argument '", Arg,
                     "'");
  return P;
}

std::vector<std::string> PassRegistry::names() const {
  std::vector<std::string> Out;
  for (const auto &[Name, F] : Factories)
    Out.push_back(Name);
  return Out;
}

//===----------------------------------------------------------------------===//
// PipelineSpec
//===----------------------------------------------------------------------===//

PipelineSpec PipelineSpec::fromOptions(const OptOptions &Options) {
  PipelineSpec S;

  // Structural phase (pre-inlining): SPMDize while the runtime calls are
  // still visible, demote globalization while the broadcast helper exists.
  PipelineStage Structural;
  Structural.Phase = "structural";
  Structural.Passes = {"spmdization", "globalization-elim[team-scratch]"};
  if (Options.EnableInlining)
    Structural.Passes.push_back("inliner");
  S.Stages.push_back(std::move(Structural));

  // The main fixpoint (MaxRounds = 0 marks it; the bound comes from
  // OptOptions::MaxFixpointRounds at run time).
  PipelineStage Fixpoint;
  Fixpoint.Phase = "fixpoint";
  Fixpoint.MaxRounds = 0;
  Fixpoint.Passes = {"constant-fold",   "simplify-cfg",
                     "load-forwarding", "dead-store-elim",
                     "globalization-elim", "dce"};
  if (Options.EnableInlining)
    Fixpoint.Passes.push_back("inliner"); // indirect calls promoted above
  S.Stages.push_back(std::move(Fixpoint));

  // Release builds strip the (now consumed) assumptions, then clean up the
  // loads that fed them — but only when stripping removed something.
  if (!Options.KeepAssumes) {
    PipelineStage Strip;
    Strip.Phase = "strip-assumes";
    Strip.Passes = {"strip-assumes"};
    S.Stages.push_back(std::move(Strip));

    PipelineStage Cleanup;
    Cleanup.Phase = "strip-assumes";
    Cleanup.Passes = {"constant-fold", "simplify-cfg", "dead-store-elim",
                      "dce"};
    Cleanup.MaxRounds = 4;
    Cleanup.OnlyIfPreviousChanged = true;
    S.Stages.push_back(std::move(Cleanup));
  }

  // Synchronization cleanup (§IV-D), alternated with CFG simplification:
  // merging blocks brings barriers next to each other.
  PipelineStage Barrier;
  Barrier.Phase = "barrier-cleanup";
  Barrier.Passes = {"barrier-elim", "simplify-cfg", "dce"};
  Barrier.MaxRounds = 4;
  S.Stages.push_back(std::move(Barrier));

  return S;
}

std::string PipelineSpec::str() const {
  std::string Out;
  for (const PipelineStage &St : Stages) {
    if (!Out.empty())
      Out += ";";
    Out += "@";
    Out += St.Phase;
    if (St.OnlyIfPreviousChanged)
      Out += "?";
    if (St.MaxRounds == 0)
      Out += "*max";
    else if (St.MaxRounds != 1)
      Out += "*" + std::to_string(St.MaxRounds);
    Out += "(";
    for (std::size_t I = 0; I < St.Passes.size(); ++I) {
      if (I)
        Out += ",";
      Out += St.Passes[I];
    }
    Out += ")";
  }
  return Out;
}

namespace {

/// Validate stage invariants shared by both parse forms.
Expected<void> validateSpec(const PipelineSpec &S) {
  int MainFixpoints = 0;
  for (const PipelineStage &St : S.Stages) {
    if (St.Phase.empty())
      return makeError("pipeline stage with empty phase name");
    if (St.Passes.empty())
      return makeError("pipeline stage '", St.Phase, "' has no passes");
    if (St.MaxRounds < 0)
      return makeError("pipeline stage '", St.Phase,
                       "' has a negative round bound");
    if (St.MaxRounds == 0)
      ++MainFixpoints;
    for (const std::string &Token : St.Passes)
      if (!PassRegistry::global().contains(Token))
        return makeError("unknown pass '", Token, "' in stage '", St.Phase,
                         "'");
  }
  if (MainFixpoints > 1)
    return makeError("pipeline has more than one '*max' fixpoint stage");
  if (S.Stages.empty())
    return makeError("empty pipeline");
  return Expected<void>::success();
}

/// Split Text on Sep at paren depth zero.
std::vector<std::string> splitTopLevel(std::string_view Text, char Sep) {
  std::vector<std::string> Out;
  std::string Cur;
  int Depth = 0;
  for (char C : Text) {
    if (C == '(')
      ++Depth;
    else if (C == ')')
      --Depth;
    if (C == Sep && Depth == 0) {
      Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Out.push_back(Cur);
  return Out;
}

/// Parse one canonical stage: "@phase[?][*N|*max](p1,...,pn)".
Expected<PipelineStage> parseStage(std::string_view Text) {
  if (Text.empty() || Text.front() != '@')
    return makeError("pipeline stage must start with '@': '", Text, "'");
  const auto Open = Text.find('(');
  if (Open == std::string_view::npos || Text.back() != ')')
    return makeError("pipeline stage missing pass list: '", Text, "'");

  PipelineStage St;
  std::string_view Head = Text.substr(1, Open - 1);
  if (const auto Star = Head.find('*'); Star != std::string_view::npos) {
    std::string_view Rounds = Head.substr(Star + 1);
    Head = Head.substr(0, Star);
    if (Rounds == "max") {
      St.MaxRounds = 0;
    } else {
      St.MaxRounds = 0;
      for (char C : Rounds) {
        if (std::isdigit(static_cast<unsigned char>(C)) == 0)
          return makeError("bad round bound '", Rounds, "' in '", Text, "'");
        St.MaxRounds = St.MaxRounds * 10 + (C - '0');
      }
      if (St.MaxRounds == 0)
        return makeError("round bound must be positive in '", Text,
                         "' (use *max for the fixpoint stage)");
    }
  }
  if (!Head.empty() && Head.back() == '?') {
    St.OnlyIfPreviousChanged = true;
    Head = Head.substr(0, Head.size() - 1);
  }
  St.Phase = std::string(Head);

  const std::string_view Body =
      Text.substr(Open + 1, Text.size() - Open - 2);
  for (const std::string &Token : splitTopLevel(Body, ','))
    St.Passes.push_back(Token);
  return St;
}

} // namespace

Expected<PipelineSpec> PipelineSpec::parse(std::string_view Text) {
  // Whitespace is noise in every position of the grammar.
  std::string Clean;
  for (char C : Text)
    if (std::isspace(static_cast<unsigned char>(C)) == 0)
      Clean += C;
  if (Clean.empty())
    return makeError("empty pipeline specification");

  PipelineSpec S;
  if (Clean.front() == '@') {
    // Canonical form: ';'-separated stages.
    for (const std::string &StageText : splitTopLevel(Clean, ';')) {
      Expected<PipelineStage> St = parseStage(StageText);
      if (!St.hasValue())
        return St.error();
      S.Stages.push_back(St.takeValue());
    }
  } else {
    // Shorthand: bare tokens run once in order; "fixpoint(p1,...,pn)"
    // opens the iterate-to-convergence stage.
    PipelineStage Seq;
    Seq.Phase = "seq";
    auto FlushSeq = [&] {
      if (!Seq.Passes.empty()) {
        S.Stages.push_back(std::move(Seq));
        Seq = PipelineStage();
        Seq.Phase = "seq";
      }
    };
    for (const std::string &Token : splitTopLevel(Clean, ',')) {
      constexpr std::string_view FixpointHead = "fixpoint(";
      if (Token.size() > FixpointHead.size() &&
          std::string_view(Token).substr(0, FixpointHead.size()) ==
              FixpointHead &&
          Token.back() == ')') {
        FlushSeq();
        PipelineStage Fix;
        Fix.Phase = "fixpoint";
        Fix.MaxRounds = 0;
        const std::string_view Body =
            std::string_view(Token).substr(FixpointHead.size(),
                                           Token.size() -
                                               FixpointHead.size() - 1);
        for (const std::string &P : splitTopLevel(Body, ','))
          Fix.Passes.push_back(P);
        S.Stages.push_back(std::move(Fix));
      } else {
        Seq.Passes.push_back(Token);
      }
    }
    FlushSeq();
  }

  if (Expected<void> V = validateSpec(S); !V.hasValue())
    return V.error();
  return S;
}

Expected<PipelineSpec> resolvePipelineSpec(const OptOptions &Options) {
  if (Options.Pipeline.empty())
    return PipelineSpec::fromOptions(Options);
  return PipelineSpec::parse(Options.Pipeline);
}

//===----------------------------------------------------------------------===//
// PassManager
//===----------------------------------------------------------------------===//

Expected<PassManager> PassManager::create(const PipelineSpec &Spec) {
  if (Expected<void> V = validateSpec(Spec); !V.hasValue())
    return V.error();
  PassManager PM;
  for (const PipelineStage &St : Spec.Stages) {
    std::vector<std::unique_ptr<Pass>> Passes;
    for (const std::string &Token : St.Passes) {
      Expected<std::unique_ptr<Pass>> P = PassRegistry::global().create(Token);
      if (!P.hasValue())
        return P.error();
      Passes.push_back(P.takeValue());
    }
    PM.Stages.push_back(Stage{St, std::move(Passes)});
  }
  return PM;
}

void PassManager::addStage(PipelineStage Spec,
                           std::vector<std::unique_ptr<Pass>> Passes) {
  Stages.push_back(Stage{std::move(Spec), std::move(Passes)});
}

bool PassManager::run(ir::Module &M, const OptOptions &Options) const {
  AnalysisManager AM(M);
  const bool Tracing = trace::Tracer::global().enabled();
  const bool Instrumented =
      Tracing || static_cast<bool>(Options.Obs.OnPass);
  const bool Summarize =
      static_cast<bool>(Options.Obs.OnPipelineEnd) || Tracing;
  const char *PrintAfterEnv = std::getenv("CODESIGN_PRINT_AFTER");
  const std::string PrintAfter = PrintAfterEnv ? PrintAfterEnv : "";

  PipelineSummary Summary;
  std::chrono::steady_clock::time_point PipelineStart;
  if (Summarize) {
    Summary.Before = IRSnapshot::of(M);
    PipelineStart = std::chrono::steady_clock::now();
  }

  // Invoke one pass: run, invalidate per its claim, optionally verify the
  // surviving cache entries, optionally dump the module.
  auto Invoke = [&](Pass &P, const char *Phase, int Round) -> bool {
    const PassResult R = P.run(M, AM, Options);
    if (R.Changed) {
      if (R.PerFunction)
        for (const ir::Function *F : R.ChangedFunctions)
          AM.invalidate(*F, R.Preserved);
      else
        AM.invalidate(R.Preserved);
    }
    if (Options.VerifyAnalyses) {
      const std::vector<std::string> Stale = AM.verifyCached();
      if (!Stale.empty()) {
        Counters::global().add("opt.analysis.verify.failures", Stale.size());
        for (const std::string &Entry : Stale)
          Options.remark(RemarkKind::Analysis, std::string(P.name()), "",
                         "stale cached analysis (over-broad "
                         "PreservedAnalyses claim): " +
                             Entry);
        AM.invalidateAll();
      }
    }
    if (!PrintAfter.empty() &&
        (PrintAfter == "*" || PrintAfter == P.name()))
      std::cerr << "; CODESIGN_PRINT_AFTER: module after " << P.name()
                << " (phase " << Phase << ", round " << Round << ")\n"
                << ir::printModule(M);
    return R.Changed;
  };

  // Bracket with snapshots/timers when anyone is watching (identical to
  // the pre-pass-manager contract; unobserved runs pay one atomic load).
  auto RunPass = [&](Pass &P, const char *Phase, int Round) -> bool {
    if (!Instrumented)
      return Invoke(P, Phase, Round);

    PassExecution Exec;
    Exec.Pass = std::string(P.name());
    Exec.Phase = Phase;
    Exec.Round = Round;
    Exec.Before = IRSnapshot::of(M);
    const std::uint64_t Hits0 = AM.totalHits();
    const std::uint64_t Misses0 = AM.totalMisses();
    const std::uint64_t Inval0 = AM.totalInvalidations();
    const auto Start = std::chrono::steady_clock::now();
    Exec.Changed = Invoke(P, Phase, Round);
    const auto End = std::chrono::steady_clock::now();
    Exec.Micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(End - Start)
            .count());
    Exec.After = IRSnapshot::of(M);
    Exec.AnalysisHits = AM.totalHits() - Hits0;
    Exec.AnalysisMisses = AM.totalMisses() - Misses0;
    Exec.AnalysisInvalidations = AM.totalInvalidations() - Inval0;

    Counters::global().add("opt.pass." + Exec.Pass + ".us", Exec.Micros);
    if (Exec.Changed)
      Counters::global().add("opt.pass." + Exec.Pass + ".changed");
    if (Tracing)
      trace::Tracer::global().span(
          "opt", Exec.Pass.c_str(), Exec.Micros,
          {{"round", static_cast<std::uint64_t>(Round < 0 ? 0 : Round)},
           {"changed", Exec.Changed ? 1u : 0u},
           {"insts_before", Exec.Before.Instructions},
           {"insts_after", Exec.After.Instructions},
           {"globals_before", Exec.Before.Globals},
           {"globals_after", Exec.After.Globals},
           {"barriers_before", Exec.Before.Barriers},
           {"barriers_after", Exec.After.Barriers},
           {"analysis_hits", Exec.AnalysisHits},
           {"analysis_misses", Exec.AnalysisMisses},
           {"analysis_invalidations", Exec.AnalysisInvalidations}});
    if (Options.Obs.OnPass)
      Options.Obs.OnPass(Exec);
    return Exec.Changed;
  };

  bool Changed = false;
  int FixpointRounds = 0;
  bool PrevStageChanged = false;

  for (const Stage &St : Stages) {
    if (St.Spec.OnlyIfPreviousChanged && !PrevStageChanged) {
      PrevStageChanged = false;
      continue;
    }
    const char *Phase = St.Spec.Phase.c_str();
    const bool IsMainFixpoint = St.Spec.MaxRounds == 0;
    const int Bound =
        IsMainFixpoint ? Options.MaxFixpointRounds : St.Spec.MaxRounds;
    bool StageChanged = false;

    if (!IsMainFixpoint && Bound <= 1) {
      for (const auto &P : St.Passes)
        StageChanged |= RunPass(*P, Phase, -1);
    } else {
      int Rounds = 0;
      bool LastRoundChanged = false;
      for (int Round = 0; Round < Bound; ++Round) {
        ++Rounds;
        bool RoundChanged = false;
        for (const auto &P : St.Passes)
          RoundChanged |= RunPass(*P, Phase, Round);
        StageChanged |= RoundChanged;
        LastRoundChanged = RoundChanged;
        if (!RoundChanged)
          break;
      }
      if (IsMainFixpoint) {
        FixpointRounds = Rounds;
        if (Summarize)
          Counters::global().add("opt.fixpoint.rounds",
                                 static_cast<std::uint64_t>(Rounds));
        if (LastRoundChanged && Rounds == Bound) {
          // The paper's -Rpass-missed=openmp-opt analog: stopping short of
          // convergence means later passes saw an unoptimized module.
          Counters::global().add("opt.fixpoint.exhausted");
          Options.remark(RemarkKind::Missed, "pipeline", "",
                         "fixpoint iteration stopped after " +
                             std::to_string(Rounds) +
                             " rounds without converging "
                             "(raise MaxFixpointRounds)");
        }
      }
    }
    Changed |= StageChanged;
    PrevStageChanged = StageChanged;
  }

  if (Summarize) {
    const auto End = std::chrono::steady_clock::now();
    Summary.Changed = Changed;
    Summary.FixpointRounds = FixpointRounds;
    Summary.TotalMicros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(End -
                                                              PipelineStart)
            .count());
    Summary.After = IRSnapshot::of(M);
    Summary.AnalysisHits = AM.totalHits();
    Summary.AnalysisMisses = AM.totalMisses();
    Summary.AnalysisInvalidations = AM.totalInvalidations();
    if (trace::Tracer::global().enabled())
      trace::Tracer::global().span(
          "opt", "pipeline", Summary.TotalMicros,
          {{"fixpoint_rounds",
            static_cast<std::uint64_t>(FixpointRounds)},
           {"changed", Changed ? 1u : 0u},
           {"insts_before", Summary.Before.Instructions},
           {"insts_after", Summary.After.Instructions},
           {"barriers_before", Summary.Before.Barriers},
           {"barriers_after", Summary.After.Barriers},
           {"analysis_hits", Summary.AnalysisHits},
           {"analysis_misses", Summary.AnalysisMisses},
           {"analysis_invalidations", Summary.AnalysisInvalidations}});
    if (Options.Obs.OnPipelineEnd)
      Options.Obs.OnPipelineEnd(Summary);
  }

  // Analysis-cache counters flow to the registry unconditionally: benches
  // read them from untraced, unobserved (cacheable) compiles.
  AM.flushCounters();
  return Changed;
}

bool runPipeline(ir::Module &M, const OptOptions &Options) {
  Expected<PipelineSpec> Spec = resolvePipelineSpec(Options);
  if (!Spec.hasValue())
    fatalError("runPipeline: " + Spec.error().message());
  Expected<PassManager> PM = PassManager::create(Spec.value());
  if (!PM.hasValue())
    fatalError("runPipeline: " + PM.error().message());
  return PM.value().run(M, Options);
}

} // namespace codesign::opt
