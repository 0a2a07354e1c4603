//===- analysis/Liveness.hpp - SSA liveness & register estimation ---------===//
//
// Backward liveness over SSA values. The register estimate — the maximum
// number of simultaneously live values at any program point — stands in for
// the "#Regs" column of the paper's Figure 11: the runtime state the
// optimizer fails to eliminate shows up as loop-carried and cross-barrier
// live values, which is precisely how the paper explains its register-count
// reductions ("they reduce the live register count as there is no loop
// carried state").
//
//===----------------------------------------------------------------------===//
#pragma once

#include <unordered_map>
#include <unordered_set>

#include "ir/Function.hpp"

namespace codesign::analysis {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Value;

/// Per-function liveness information.
class Liveness {
public:
  explicit Liveness(const Function &F);

  /// The function this analysis was built for.
  [[nodiscard]] const Function &function() const { return F; }

  /// Values live on entry to BB.
  [[nodiscard]] const std::unordered_set<const Value *> &
  liveIn(const BasicBlock *BB) const;

  /// Values live on exit from BB.
  [[nodiscard]] const std::unordered_set<const Value *> &
  liveOut(const BasicBlock *BB) const;

  /// Maximum number of simultaneously live SSA values across the function.
  [[nodiscard]] unsigned maxLive() const { return MaxLive; }

private:
  const Function &F;
  std::unordered_map<const BasicBlock *, std::unordered_set<const Value *>>
      LiveInMap;
  std::unordered_map<const BasicBlock *, std::unordered_set<const Value *>>
      LiveOutMap;
  unsigned MaxLive = 0;
};

/// Estimated hardware register count for a kernel: a fixed base (ABI and
/// address registers) plus the liveness peak. Only relative movement across
/// build configurations is meaningful, as in the paper.
unsigned estimateRegisters(const Function &Kernel);

} // namespace codesign::analysis
