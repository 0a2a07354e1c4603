//===- opt/AccessAnalysis.hpp - Field-sensitive access analysis (IV-B1) ----===//
//
// Categorizes every access to an analyzable memory object into bins by
// (constant offset, size), with unknown offsets and conditional locations
// (the Figure 7b select-dummy writes) tracked separately — a direct
// implementation of the paper's Section IV-B1:
//
//   "we perform an analysis that categorizes accesses into bins based on
//    their relative (constant) offset in bytes and access size. Unknown
//    offsets or users are binned separately."
//
// Analyzable objects are internal globals, allocas and device-malloc
// results whose every use is visible in the analyzed function ("we
// generally require it to be an internal global variable, a stack
// allocation, or the result of a known memory allocation function").
// Assumed-memory-content facts (Section IV-B3) are extracted from
// assume(load(P) == V) patterns and recorded as pseudo-writes.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <map>
#include <vector>

#include "analysis/Preserved.hpp"
#include "ir/Module.hpp"

namespace codesign::opt {

using ir::AddrSpace;
using ir::Function;
using ir::GlobalVariable;
using ir::Instruction;
using ir::Value;

/// How an access touches memory.
enum class AccessKind : std::uint8_t {
  Load,
  Store,
  Atomic,    ///< AtomicRMW (read-modify-write)
  AssumedEq, ///< assume(load(P) == V): known content at this point (IV-B3)
};

/// One categorized access.
struct MemAccess {
  Instruction *I = nullptr;
  AccessKind Kind = AccessKind::Load;
  bool OffsetKnown = false;
  std::int64_t Offset = 0;
  unsigned Size = 0;
  /// Stored value (Store), exchanged value (Atomic) or asserted content
  /// (AssumedEq); null for loads.
  Value *Stored = nullptr;
  /// The *location* is conditional: the pointer came through a select or
  /// phi, so this instruction may or may not touch this object (Fig. 7b).
  bool Conditional = false;

  /// True when this access may overlap [Off, Off+Sz).
  [[nodiscard]] bool overlaps(bool OtherKnown, std::int64_t Off,
                              unsigned Sz) const {
    if (!OffsetKnown || !OtherKnown)
      return true;
    return Offset < Off + static_cast<std::int64_t>(Sz) &&
           Off < Offset + static_cast<std::int64_t>(Size);
  }
  /// True when this access has exactly the given offset and size ("exact"
  /// matches in the paper's terminology).
  [[nodiscard]] bool exactMatch(std::int64_t Off, unsigned Sz) const {
    return OffsetKnown && Offset == Off && Size == Sz;
  }
};

/// Everything known about one memory object.
struct ObjectInfo {
  const Value *Base = nullptr; ///< GlobalVariable, Alloca or Malloc result
  AddrSpace Space = AddrSpace::Global;
  std::uint64_t Size = 0;
  bool ZeroInit = true;
  /// False when a use escaped analysis (stored as a value, passed to a
  /// call/native op, converted to an integer, returned, ...).
  bool Analyzable = true;
  std::vector<MemAccess> Accesses;

  [[nodiscard]] bool isThreadPrivate() const {
    return Space == AddrSpace::Local;
  }
  /// True when every write stores literal zero/null and no atomics exist —
  /// the condition under which any load folds to zero even at unknown
  /// offsets (the thread-states-array deduction of Section IV-B1).
  [[nodiscard]] bool allWritesAreZero() const;
  /// True when the object has any Load/Atomic access.
  [[nodiscard]] bool hasReads() const;
};

/// Where a given memory instruction lands.
struct AccessLocation {
  const ObjectInfo *Object = nullptr;
  const MemAccess *Access = nullptr;
};

/// Function-scoped access analysis (run post-inlining so the runtime's
/// state manipulation is visible inside the kernel).
class AccessAnalysis {
public:
  static constexpr analysis::AnalysisKind Kind =
      analysis::AnalysisKind::Accesses;

  /// Analyze F. When CollectAssumes is set, assume(load == V) patterns are
  /// registered as AssumedEq accesses (Section IV-B3).
  AccessAnalysis(Function &F, bool CollectAssumes);

  /// All objects discovered (analyzable or not).
  [[nodiscard]] const std::vector<ObjectInfo> &objects() const {
    return Objects;
  }

  /// Locations an instruction may access; empty for instructions that do
  /// not touch analyzed objects. An instruction can map to several objects
  /// (conditional-pointer stores).
  [[nodiscard]] std::vector<AccessLocation>
  locationsOf(const Instruction *I) const;

  /// Object info for a base value (GlobalVariable / Alloca / Malloc), or
  /// null when it was not analyzed.
  [[nodiscard]] const ObjectInfo *objectFor(const Value *Base) const;

  /// Structural equality against another AccessAnalysis over the same
  /// function (differential checking of cached results).
  [[nodiscard]] bool equivalentTo(const AccessAnalysis &Other) const;

  /// Invalidation hook: true when a pass reporting PA requires this
  /// analysis to be recomputed.
  [[nodiscard]] bool invalidatedBy(const analysis::PreservedAnalyses &PA) const {
    return !PA.isPreserved(Kind);
  }

private:
  void analyzeObject(const Value *Base, AddrSpace Space, std::uint64_t Size,
                     bool ZeroInit, Function &F);
  void collectAssumedFacts(Function &F);

  std::vector<ObjectInfo> Objects;
  std::multimap<const Instruction *, std::pair<std::size_t, std::size_t>>
      InstIndex; // instruction -> (object idx, access idx)
};

} // namespace codesign::opt
