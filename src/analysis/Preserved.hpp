//===- analysis/Preserved.hpp - Analysis identity & preservation sets ------===//
//
// The vocabulary shared between the analyses and the pass manager: every
// cacheable analysis has an AnalysisKind, and every pass that changes IR
// reports a PreservedAnalyses set describing which cached results survive
// the change. Mirrors LLVM's PreservedAnalyses, sized for this project: a
// fixed bitmask over the five analyses the optimizer caches (paper §IV
// runs "multiple times" inside a pass manager precisely because analyses
// are cached and invalidated, not recomputed per pass).
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cstdint>
#include <string_view>

namespace codesign::analysis {

/// Identity of one cacheable analysis, keyed by (Function, kind) in the
/// AnalysisManager.
enum class AnalysisKind : unsigned {
  Dominators,     ///< analysis::DominatorTree
  PostDominators, ///< analysis::PostDominatorTree
  Reachability,   ///< analysis::Reachability
  Accesses,       ///< opt::AccessAnalysis (field-sensitive, §IV-B1)
  Divergence,     ///< analysis::DivergenceAnalysis (thread uniformity)
};

/// Number of AnalysisKind values (array sizing).
inline constexpr unsigned NumAnalysisKinds = 5;

/// Stable dotted-counter-friendly name ("dominators", "accesses", ...).
constexpr std::string_view analysisName(AnalysisKind K) {
  switch (K) {
  case AnalysisKind::Dominators:
    return "dominators";
  case AnalysisKind::PostDominators:
    return "postdominators";
  case AnalysisKind::Reachability:
    return "reachability";
  case AnalysisKind::Accesses:
    return "accesses";
  case AnalysisKind::Divergence:
    return "divergence";
  }
  return "unknown";
}

/// The set of analyses a pass left intact. Passes return one of these from
/// every invocation; the pass manager invalidates whatever is absent.
class PreservedAnalyses {
public:
  /// Nothing survives (the safe default for structural passes).
  static PreservedAnalyses none() { return PreservedAnalyses(0); }
  /// Everything survives (the implicit claim of a no-change run).
  static PreservedAnalyses all() { return PreservedAnalyses(AllMask); }
  /// The CFG-shape analyses survive: dominators, post-dominators and
  /// reachability. The claim of passes that rewrite values or erase
  /// non-terminator instructions without touching block structure.
  /// Divergence is deliberately absent: it depends on values, not just on
  /// block shape, so value rewrites can change uniformity.
  static PreservedAnalyses cfg() {
    return PreservedAnalyses(bit(AnalysisKind::Dominators) |
                             bit(AnalysisKind::PostDominators) |
                             bit(AnalysisKind::Reachability));
  }

  /// Mark one analysis as surviving.
  PreservedAnalyses &preserve(AnalysisKind K) {
    Mask |= bit(K);
    return *this;
  }
  /// Mark one analysis as invalidated.
  PreservedAnalyses &abandon(AnalysisKind K) {
    Mask &= ~bit(K);
    return *this;
  }

  /// True when the given analysis survives the pass.
  [[nodiscard]] bool isPreserved(AnalysisKind K) const {
    return (Mask & bit(K)) != 0;
  }
  /// True when every analysis survives.
  [[nodiscard]] bool preservedAll() const { return Mask == AllMask; }
  /// True when no analysis survives.
  [[nodiscard]] bool preservedNone() const { return Mask == 0; }

  friend bool operator==(const PreservedAnalyses &A,
                         const PreservedAnalyses &B) {
    return A.Mask == B.Mask;
  }

private:
  explicit PreservedAnalyses(unsigned Mask) : Mask(Mask) {}
  static constexpr unsigned bit(AnalysisKind K) {
    return 1U << static_cast<unsigned>(K);
  }
  static constexpr unsigned AllMask = (1U << NumAnalysisKinds) - 1;

  unsigned Mask;
};

} // namespace codesign::analysis
