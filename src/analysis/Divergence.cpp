//===- analysis/Divergence.cpp - Thread/team uniformity dataflow -----------===//
#include "analysis/Divergence.hpp"

#include <algorithm>

#include "ir/Global.hpp"

namespace codesign::analysis {

using namespace ir;

DivergenceAnalysis::DivergenceAnalysis(const Function &F,
                                       const PostDominatorTree &PDT)
    : F(F) {
  CODESIGN_ASSERT(!F.isDeclaration(), "divergence analysis on declaration");
  CODESIGN_ASSERT(&PDT.function() == &F, "post-dominator tree mismatch");
  compute(PDT);
}

Uniformity DivergenceAnalysis::uniformity(const Value *V) const {
  if (auto It = ValueClass.find(V); It != ValueClass.end())
    return It->second;
  // Base classifications for non-instruction values. Constants, globals
  // (their address) and function addresses are identical everywhere;
  // arguments are uniform by the calling-context assumption documented in
  // the header.
  if (isa<Argument>(V))
    return Uniformity::Team;
  return Uniformity::League;
}

const Instruction *
DivergenceAnalysis::divergenceCause(const BasicBlock *BB) const {
  auto It = Cause.find(BB);
  return It == Cause.end() ? nullptr : It->second;
}

std::vector<const Value *>
DivergenceAnalysis::provenance(const Value *V) const {
  std::vector<const Value *> Chain;
  const Value *Cur = V;
  while (Cur && uniformity(Cur) == Uniformity::Divergent) {
    // Cycles through phis are possible; stop at the first repeat.
    if (std::find(Chain.begin(), Chain.end(), Cur) != Chain.end())
      break;
    Chain.push_back(Cur);
    auto It = Why.find(Cur);
    Cur = It == Why.end() ? nullptr : It->second;
  }
  return Chain;
}

std::string DivergenceAnalysis::provenanceString(const Value *V) const {
  std::string Out;
  for (const Value *Link : provenance(V)) {
    if (!Out.empty())
      Out += " <- ";
    // Only instructions are ever classified divergent, so each link is one.
    const auto *I = cast<Instruction>(Link);
    Out += opcodeName(I->opcode());
    if (!I->name().empty()) {
      Out += " %";
      Out += I->name();
    }
  }
  return Out;
}

Uniformity DivergenceAnalysis::seedUniformity(const Instruction *I) const {
  switch (I->opcode()) {
  case Opcode::ThreadId:
    return Uniformity::Divergent;
  case Opcode::BlockId:
    return Uniformity::Team;
  case Opcode::BlockDim:
  case Opcode::GridDim:
    return Uniformity::League;
  case Opcode::Load: {
    // Memory contents are not tracked: another thread may have written a
    // different value. The one provable exception is constant memory,
    // which is immutable and device-wide.
    if (const auto *G = dynCast<GlobalVariable>(I->pointerOperand()))
      if (G->space() == AddrSpace::Constant)
        return Uniformity::League;
    return Uniformity::Divergent;
  }
  case Opcode::AtomicRMW:
    // Each thread observes a different point in the modification order.
    return Uniformity::Divergent;
  case Opcode::Alloca:
  case Opcode::Malloc:
    // The pointer denotes per-thread storage.
    return Uniformity::Divergent;
  case Opcode::Call:
    // Unknown callee behaviour (calls surviving to this analysis are
    // opaque runtime entry points or indirect).
    return Uniformity::Divergent;
  case Opcode::NativeOp:
    return I->nativeFlags().Divergent ? Uniformity::Divergent
                                      : Uniformity::Team;
  default:
    // Pure dataflow: the join of the operands (computed by the caller);
    // League is the lattice bottom.
    return Uniformity::League;
  }
}

void DivergenceAnalysis::compute(const PostDominatorTree &PDT) {
  // Reachable blocks in layout order (deterministic iteration).
  std::unordered_set<const BasicBlock *> Reachable;
  {
    std::vector<const BasicBlock *> Work{F.entry()};
    while (!Work.empty()) {
      const BasicBlock *BB = Work.back();
      Work.pop_back();
      if (!Reachable.insert(BB).second)
        continue;
      for (const BasicBlock *S : BB->successors())
        Work.push_back(S);
    }
  }

  // Seed-or-join transfer function for one instruction under the current
  // state; records provenance when the classification is divergent.
  auto classify = [&](const Instruction *I) {
    Uniformity U = seedUniformity(I);
    const Value *Reason = nullptr;
    // Seeds own their divergence; only join operands for pure dataflow ops
    // (a divergent pointer operand does not make a load "more divergent"
    // than the seed already says, but it is a better provenance link).
    for (unsigned Idx = 0; Idx < I->numOperands(); ++Idx) {
      const Value *Op = I->operand(Idx);
      Uniformity OpU = uniformity(Op);
      if (OpU > U)
        U = OpU;
      if (!Reason && OpU == Uniformity::Divergent)
        Reason = Op;
    }
    if (I->opcode() == Opcode::Phi) {
      // A phi merging paths guarded by a divergent branch receives its
      // value from different predecessors on different threads.
      for (const BasicBlock *P : I->parent()->predecessors()) {
        const Instruction *T = P->terminator();
        const bool DivergentEdge =
            DivergentBlocks.count(P) != 0 ||
            (T && T->opcode() == Opcode::CondBr && isDivergent(T->operand(0)));
        if (DivergentEdge) {
          U = Uniformity::Divergent;
          if (!Reason) {
            const Instruction *Branch =
                DivergentBlocks.count(P) ? divergenceCause(P) : T;
            if (Branch && Branch->numOperands() > 0)
              Reason = Branch->operand(0);
          }
          break;
        }
      }
    }
    return std::pair(U, Reason);
  };

  // Outer fixpoint: value uniformity and block divergence feed each other
  // (divergent values make branches divergent; divergent branches make
  // phis divergent). Both lattices only grow, so this terminates.
  bool OuterChanged = true;
  while (OuterChanged) {
    OuterChanged = false;

    // Inner fixpoint over values (phis form cycles).
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const auto &BB : F.blocks()) {
        if (!Reachable.count(BB.get()))
          continue;
        for (const auto &I : BB->instructions()) {
          if (I->type().isVoid())
            continue;
          auto [U, Reason] = classify(I.get());
          auto It = ValueClass.find(I.get());
          if (It == ValueClass.end() || It->second < U) {
            ValueClass[I.get()] = U;
            if (U == Uniformity::Divergent && Reason)
              Why[I.get()] = Reason;
            Changed = true;
          }
        }
      }
    }

    // Mark the influence region of every divergent branch: all blocks
    // strictly between the branch and its immediate post-dominator (where
    // the threads of the team rejoin). A branch that reaches no common
    // rejoin point (no ipdom) taints everything it reaches.
    for (const auto &BB : F.blocks()) {
      if (!Reachable.count(BB.get()))
        continue;
      const Instruction *T = BB->terminator();
      if (!T || T->opcode() != Opcode::CondBr || !isDivergent(T->operand(0)))
        continue;
      const BasicBlock *Join = PDT.ipdom(BB.get());
      auto Succs = BB->successors();
      std::vector<const BasicBlock *> Work(Succs.begin(), Succs.end());
      std::unordered_set<const BasicBlock *> Seen;
      while (!Work.empty()) {
        const BasicBlock *Cur = Work.back();
        Work.pop_back();
        if (Cur == Join || !Seen.insert(Cur).second)
          continue;
        if (DivergentBlocks.insert(Cur).second) {
          Cause[Cur] = T;
          OuterChanged = true;
        }
        for (const BasicBlock *S : Cur->successors())
          Work.push_back(S);
      }
    }
  }
}

bool DivergenceAnalysis::equivalentTo(const DivergenceAnalysis &Other) const {
  if (&F != &Other.F)
    return false;
  if (ValueClass.size() != Other.ValueClass.size() ||
      DivergentBlocks.size() != Other.DivergentBlocks.size())
    return false;
  for (const auto &[V, U] : ValueClass) {
    auto It = Other.ValueClass.find(V);
    if (It == Other.ValueClass.end() || It->second != U)
      return false;
  }
  for (const BasicBlock *BB : DivergentBlocks)
    if (!Other.DivergentBlocks.count(BB))
      return false;
  return true;
}

} // namespace codesign::analysis
