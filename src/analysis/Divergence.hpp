//===- analysis/Divergence.hpp - Thread/team uniformity dataflow -----------===//
//
// Classifies every SSA value of a function on a three-point uniformity
// lattice (league-uniform < team-uniform < divergent) and every basic block
// as uniformly-executed or divergence-guarded. Divergence seeds are the
// per-thread intrinsics (ThreadId, divergent NativeOps) plus anything whose
// contents the analysis cannot prove identical across threads (loads,
// atomics, per-thread allocations). Control-induced divergence propagates
// through the CFG with the standard sync-dependence construction: a branch
// on a divergent condition makes every block between the branch and its
// immediate post-dominator divergence-guarded, and phis that merge paths
// from such regions become divergent values.
//
// This is the precondition checker the paper's aligned-execution reasoning
// (Section IV-C) leaves implicit: an aligned barrier is only meaningful in
// blocks all threads of the team execute together, i.e. blocks this
// analysis reports as uniform.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/PostDominators.hpp"
#include "analysis/Preserved.hpp"
#include "ir/Function.hpp"

namespace codesign::analysis {

/// Uniformity lattice. Ordered: joining two classifications takes the
/// numerically larger one.
enum class Uniformity : std::uint8_t {
  League,   ///< Same value for every thread of every team.
  Team,     ///< Same value for every thread within one team.
  Divergent ///< May differ between threads of the same team.
};

/// Printable lattice element name.
constexpr std::string_view uniformityName(Uniformity U) {
  switch (U) {
  case Uniformity::League:
    return "league-uniform";
  case Uniformity::Team:
    return "team-uniform";
  case Uniformity::Divergent:
    return "divergent";
  }
  return "?";
}

/// Thread-uniformity classification for one function. Arguments are treated
/// as team-uniform: exact for kernels (launch arguments are identical for
/// every thread) and an assumed-uniform calling context for helpers, which
/// can only under-report divergence, never invent it.
class DivergenceAnalysis {
public:
  static constexpr AnalysisKind Kind = AnalysisKind::Divergence;

  /// Build for F using its post-dominator tree (not retained afterwards).
  DivergenceAnalysis(const ir::Function &F, const PostDominatorTree &PDT);

  /// The function this analysis describes.
  [[nodiscard]] const ir::Function &function() const { return F; }

  /// Lattice classification of V (League for constants, globals and other
  /// values with no per-thread component).
  [[nodiscard]] Uniformity uniformity(const ir::Value *V) const;

  /// True when V may differ between threads of a team.
  [[nodiscard]] bool isDivergent(const ir::Value *V) const {
    return uniformity(V) == Uniformity::Divergent;
  }
  /// True when every thread of a team sees the same value for V.
  [[nodiscard]] bool isUniform(const ir::Value *V) const {
    return !isDivergent(V);
  }

  /// True when BB executes under divergent control: some threads of the
  /// team may run it while others do not (or take a different path).
  /// Unreachable blocks report false — the verifier rejects barriers there
  /// and nothing else consults them.
  [[nodiscard]] bool isDivergentBlock(const ir::BasicBlock *BB) const {
    return DivergentBlocks.count(BB) != 0;
  }

  /// The divergent branch (a CondBr terminator) that guards BB, or null
  /// when BB is uniformly executed. When several branches guard BB, an
  /// arbitrary deterministic one is reported.
  [[nodiscard]] const ir::Instruction *
  divergenceCause(const ir::BasicBlock *BB) const;

  /// Chain of values from V back to the divergence seed that made it
  /// divergent (V first, seed last). Empty when V is uniform.
  [[nodiscard]] std::vector<const ir::Value *>
  provenance(const ir::Value *V) const;

  /// Human-readable provenance chain, e.g. "icmp %c <- threadid" — the
  /// payload of barrier-divergence remarks.
  [[nodiscard]] std::string provenanceString(const ir::Value *V) const;

  /// Structural equality against another analysis of the same function
  /// (differential checking of cached results).
  [[nodiscard]] bool equivalentTo(const DivergenceAnalysis &Other) const;

  /// Invalidation hook for the AnalysisManager.
  [[nodiscard]] bool invalidatedBy(const PreservedAnalyses &PA) const {
    return !PA.isPreserved(Kind);
  }

private:
  void compute(const PostDominatorTree &PDT);
  [[nodiscard]] Uniformity seedUniformity(const ir::Instruction *I) const;

  const ir::Function &F;
  /// Classification of every reachable instruction with a result. Values
  /// absent from the map (constants, globals, arguments, void results) get
  /// their base classification from uniformity().
  std::unordered_map<const ir::Value *, Uniformity> ValueClass;
  /// Blocks executed under divergent control.
  std::unordered_set<const ir::BasicBlock *> DivergentBlocks;
  /// Divergent branch guarding each divergent block.
  std::unordered_map<const ir::BasicBlock *, const ir::Instruction *> Cause;
  /// For each divergent value, the operand (or controlling branch
  /// condition) that made it divergent; seeds are absent.
  std::unordered_map<const ir::Value *, const ir::Value *> Why;
};

} // namespace codesign::analysis
