//===- opt/AnalysisManager.hpp - Cached, invalidation-aware analyses -------===//
//
// The paper's optimizations run inside LLVM's pass manager, which "runs
// multiple times" (§IV) precisely because analyses are cached and
// selectively invalidated rather than recomputed per pass. This is the
// equivalent: one AnalysisManager lives for the duration of a pipeline run
// and hands out cached DominatorTree / PostDominatorTree / Reachability /
// AccessAnalysis / DivergenceAnalysis results per function: the five
// analyses the passes ask for. Every cache access is counted; a pass's
// PreservedAnalyses claim drives eager invalidation (entries are erased,
// never left dangling — a DCE'd function must not leave a stale key).
//
// The mutation epoch increments on every invalidation event; entries record
// the epoch they were built in, which observability code can use to reason
// about churn.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/Divergence.hpp"
#include "analysis/Dominators.hpp"
#include "analysis/PostDominators.hpp"
#include "analysis/Preserved.hpp"
#include "analysis/Reachability.hpp"
#include "opt/AccessAnalysis.hpp"

namespace codesign::opt {

using analysis::AnalysisKind;
using analysis::NumAnalysisKinds;
using analysis::PreservedAnalyses;

/// Per-pipeline cache of analysis results over one module.
class AnalysisManager {
public:
  /// A cache over the functions of one module.
  explicit AnalysisManager(ir::Module &) {}

  // Cached getters. References stay valid until the analysis is
  // invalidated; passes must not hold them across mutations they report.
  const analysis::DominatorTree &dominators(const ir::Function &F);
  const analysis::PostDominatorTree &postDominators(const ir::Function &F);
  const analysis::Reachability &reachability(const ir::Function &F);
  const analysis::DivergenceAnalysis &divergence(const ir::Function &F);
  /// Field-sensitive access analysis. A cached result built with a
  /// different CollectAssumes flag counts as a miss and is replaced.
  const AccessAnalysis &accesses(ir::Function &F, bool CollectAssumes);

  /// Module-wide invalidation from a pass's preservation claim: every
  /// analysis absent from PA is dropped for every function.
  void invalidate(const PreservedAnalyses &PA);
  /// Function-scoped invalidation: F's non-preserved analyses are dropped.
  /// Other functions' caches survive.
  void invalidate(const ir::Function &F, const PreservedAnalyses &PA);
  /// Drop everything.
  void invalidateAll();

  /// Cache statistics, per analysis kind and totals.
  [[nodiscard]] std::uint64_t hits(AnalysisKind K) const {
    return Hits[idx(K)];
  }
  [[nodiscard]] std::uint64_t misses(AnalysisKind K) const {
    return Misses[idx(K)];
  }
  [[nodiscard]] std::uint64_t invalidations(AnalysisKind K) const {
    return Invalidations[idx(K)];
  }
  [[nodiscard]] std::uint64_t totalHits() const;
  [[nodiscard]] std::uint64_t totalMisses() const;
  [[nodiscard]] std::uint64_t totalInvalidations() const;

  /// Mutation epoch: number of invalidation events so far.
  [[nodiscard]] unsigned epoch() const { return Epoch; }

  /// Differential verification: recompute every cached result from scratch
  /// and compare with equivalentTo(). Returns "<analysis>:<function>" for
  /// every stale entry — nonempty output means some pass made an
  /// over-broad PreservedAnalyses claim.
  [[nodiscard]] std::vector<std::string> verifyCached();

  /// Accumulate the per-kind statistics into the process counter registry
  /// as opt.analysis.<name>.{hits,misses,invalidations} (nonzero only).
  void flushCounters() const;

private:
  struct FunctionEntry {
    ir::Function *MutF = nullptr; ///< for AccessAnalysis recomputation
    unsigned BuiltEpoch = 0;
    std::unique_ptr<analysis::DominatorTree> DT;
    std::unique_ptr<analysis::PostDominatorTree> PDT;
    std::unique_ptr<analysis::Reachability> RA;
    std::unique_ptr<analysis::DivergenceAnalysis> DV;
    std::unique_ptr<AccessAnalysis> AA;
    bool AAAssumes = false;

    [[nodiscard]] bool empty() const {
      return !DT && !PDT && !RA && !DV && !AA;
    }
  };

  static constexpr std::size_t idx(AnalysisKind K) {
    return static_cast<std::size_t>(K);
  }
  void countInvalidation(AnalysisKind K) {
    ++Invalidations[idx(K)];
  }
  /// Drop E's non-preserved slots (counting each live one) and return true
  /// when the entry became empty.
  bool invalidateEntry(FunctionEntry &E, const PreservedAnalyses &PA);

  std::unordered_map<const ir::Function *, FunctionEntry> Entries;
  std::array<std::uint64_t, NumAnalysisKinds> Hits{};
  std::array<std::uint64_t, NumAnalysisKinds> Misses{};
  std::array<std::uint64_t, NumAnalysisKinds> Invalidations{};
  unsigned Epoch = 0;
};

} // namespace codesign::opt
