#include "opt/AnalysisManager.hpp"

#include "support/Stats.hpp"

namespace codesign::opt {

const analysis::DominatorTree &
AnalysisManager::dominators(const ir::Function &F) {
  FunctionEntry &E = Entries[&F];
  if (E.DT) {
    ++Hits[idx(AnalysisKind::Dominators)];
  } else {
    ++Misses[idx(AnalysisKind::Dominators)];
    E.DT = std::make_unique<analysis::DominatorTree>(F);
    E.BuiltEpoch = Epoch;
  }
  return *E.DT;
}

const analysis::PostDominatorTree &
AnalysisManager::postDominators(const ir::Function &F) {
  FunctionEntry &E = Entries[&F];
  if (E.PDT) {
    ++Hits[idx(AnalysisKind::PostDominators)];
  } else {
    ++Misses[idx(AnalysisKind::PostDominators)];
    E.PDT = std::make_unique<analysis::PostDominatorTree>(F);
    E.BuiltEpoch = Epoch;
  }
  return *E.PDT;
}

const analysis::Reachability &
AnalysisManager::reachability(const ir::Function &F) {
  FunctionEntry &E = Entries[&F];
  if (E.RA) {
    ++Hits[idx(AnalysisKind::Reachability)];
  } else {
    ++Misses[idx(AnalysisKind::Reachability)];
    E.RA = std::make_unique<analysis::Reachability>(F);
    E.BuiltEpoch = Epoch;
  }
  return *E.RA;
}

const analysis::DivergenceAnalysis &
AnalysisManager::divergence(const ir::Function &F) {
  // Probe before calling postDominators() so a divergence hit does not
  // also count a post-dominator hit.
  if (const analysis::DivergenceAnalysis *Cached = Entries[&F].DV.get()) {
    ++Hits[idx(AnalysisKind::Divergence)];
    return *Cached;
  }
  const analysis::PostDominatorTree &PDT = postDominators(F);
  FunctionEntry &E = Entries[&F];
  ++Misses[idx(AnalysisKind::Divergence)];
  E.DV = std::make_unique<analysis::DivergenceAnalysis>(F, PDT);
  E.BuiltEpoch = Epoch;
  return *E.DV;
}

const AccessAnalysis &AnalysisManager::accesses(ir::Function &F,
                                                bool CollectAssumes) {
  FunctionEntry &E = Entries[&F];
  if (E.AA && E.AAAssumes == CollectAssumes) {
    ++Hits[idx(AnalysisKind::Accesses)];
  } else {
    ++Misses[idx(AnalysisKind::Accesses)];
    E.AA = std::make_unique<AccessAnalysis>(F, CollectAssumes);
    E.AAAssumes = CollectAssumes;
    E.MutF = &F;
    E.BuiltEpoch = Epoch;
  }
  return *E.AA;
}

bool AnalysisManager::invalidateEntry(FunctionEntry &E,
                                      const PreservedAnalyses &PA) {
  if (E.DT && E.DT->invalidatedBy(PA)) {
    countInvalidation(AnalysisKind::Dominators);
    E.DT.reset();
  }
  if (E.PDT && E.PDT->invalidatedBy(PA)) {
    countInvalidation(AnalysisKind::PostDominators);
    E.PDT.reset();
  }
  if (E.RA && E.RA->invalidatedBy(PA)) {
    countInvalidation(AnalysisKind::Reachability);
    E.RA.reset();
  }
  if (E.DV && E.DV->invalidatedBy(PA)) {
    countInvalidation(AnalysisKind::Divergence);
    E.DV.reset();
  }
  if (E.AA && E.AA->invalidatedBy(PA)) {
    countInvalidation(AnalysisKind::Accesses);
    E.AA.reset();
  }
  return E.empty();
}

void AnalysisManager::invalidate(const PreservedAnalyses &PA) {
  if (PA.preservedAll())
    return;
  ++Epoch;
  for (auto It = Entries.begin(); It != Entries.end();)
    It = invalidateEntry(It->second, PA) ? Entries.erase(It) : std::next(It);
}

void AnalysisManager::invalidate(const ir::Function &F,
                                 const PreservedAnalyses &PA) {
  if (PA.preservedAll())
    return;
  ++Epoch;
  auto It = Entries.find(&F);
  if (It != Entries.end() && invalidateEntry(It->second, PA))
    Entries.erase(It);
}

void AnalysisManager::invalidateAll() {
  invalidate(PreservedAnalyses::none());
}

std::uint64_t AnalysisManager::totalHits() const {
  std::uint64_t N = 0;
  for (std::uint64_t V : Hits)
    N += V;
  return N;
}

std::uint64_t AnalysisManager::totalMisses() const {
  std::uint64_t N = 0;
  for (std::uint64_t V : Misses)
    N += V;
  return N;
}

std::uint64_t AnalysisManager::totalInvalidations() const {
  std::uint64_t N = 0;
  for (std::uint64_t V : Invalidations)
    N += V;
  return N;
}

std::vector<std::string> AnalysisManager::verifyCached() {
  std::vector<std::string> Stale;
  auto Report = [&](AnalysisKind K, const ir::Function *F) {
    Stale.push_back(std::string(analysis::analysisName(K)) + ":" + F->name());
  };
  for (auto &[F, E] : Entries) {
    if (E.DT && !E.DT->equivalentTo(analysis::DominatorTree(*F)))
      Report(AnalysisKind::Dominators, F);
    if (E.PDT && !E.PDT->equivalentTo(analysis::PostDominatorTree(*F)))
      Report(AnalysisKind::PostDominators, F);
    if (E.RA && !E.RA->equivalentTo(analysis::Reachability(*F)))
      Report(AnalysisKind::Reachability, F);
    if (E.DV &&
        !E.DV->equivalentTo(
            analysis::DivergenceAnalysis(*F, analysis::PostDominatorTree(*F))))
      Report(AnalysisKind::Divergence, F);
    if (E.AA && !E.AA->equivalentTo(AccessAnalysis(*E.MutF, E.AAAssumes)))
      Report(AnalysisKind::Accesses, F);
  }
  return Stale;
}

void AnalysisManager::flushCounters() const {
  auto Flush = [](const char *What, AnalysisKind K, std::uint64_t V) {
    if (V)
      Counters::global().add(std::string("opt.analysis.") +
                                 std::string(analysis::analysisName(K)) + "." +
                                 What,
                             V);
  };
  for (unsigned I = 0; I < NumAnalysisKinds; ++I) {
    const auto K = static_cast<AnalysisKind>(I);
    Flush("hits", K, Hits[I]);
    Flush("misses", K, Misses[I]);
    Flush("invalidations", K, Invalidations[I]);
  }
}

} // namespace codesign::opt
