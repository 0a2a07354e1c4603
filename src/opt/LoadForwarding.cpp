//===- opt/LoadForwarding.cpp - Conditional value propagation (IV-B) -------===//
//
// Replaces loads from analyzable objects with known values, using:
//
//   * the zero-initialized-region rule (IV-B1): when every write to a
//     zero-initialized object stores zero, any load — even at a statically
//     unknown offset such as thread_states[tid] — folds to zero;
//   * dominating exact stores filtered through reachability/dominance
//     interference checks (IV-B2);
//   * assumed memory content after broadcast barriers (IV-B3), harvested
//     from assume(load(P) == V) by the access analysis;
//   * invariant value propagation (IV-B4): non-constant stored values are
//     forwarded when they are available at the load and, for memory other
//     threads read, team-uniform by analysis::DivergenceAnalysis (grid
//     intrinsics, kernel arguments, and arithmetic over them).
//
// Concurrency discipline: for shared-memory objects a real store may only
// be forwarded across threads when an aligned barrier separates it from
// the load (the broadcast idiom); thread-private (alloca) objects use plain
// sequential reasoning. Disabling EnableAlignedExecReasoning (IV-C ablation)
// makes every barrier a clobber.
//
//===----------------------------------------------------------------------===//
#include "analysis/Divergence.hpp"
#include "analysis/Dominators.hpp"
#include "analysis/Reachability.hpp"
#include "opt/AccessAnalysis.hpp"
#include "opt/PassManager.hpp"
#include "opt/Pipeline.hpp"

#include <set>

namespace codesign::opt {

using namespace ir;
using analysis::DominatorTree;
using analysis::Reachability;

namespace {

/// Collect every base allocation a pointer may refer to, walking geps,
/// selects and phis. Returns false when provenance is unknown (arguments,
/// loaded pointers, integer casts) — callers must then stay conservative.
/// This guards against the incomplete-analysis trap: an instruction's
/// recorded locations cover only *analyzed* objects, so a select-dummy
/// store whose real target aborted analysis would otherwise look like a
/// pure dummy write.
bool traceBases(const Value *Ptr, std::vector<const Value *> &Bases) {
  std::vector<const Value *> Work{Ptr};
  std::set<const Value *> Seen;
  while (!Work.empty()) {
    const Value *V = Work.back();
    Work.pop_back();
    if (!Seen.insert(V).second)
      continue;
    if (isa<GlobalVariable>(V)) {
      Bases.push_back(V);
      continue;
    }
    const auto *I = dynCast<Instruction>(V);
    if (!I)
      return false; // argument / null / undef: unknown memory
    switch (I->opcode()) {
    case Opcode::Alloca:
    case Opcode::Malloc:
      Bases.push_back(I);
      break;
    case Opcode::Gep:
      Work.push_back(I->operand(0));
      break;
    case Opcode::Select:
      Work.push_back(I->operand(1));
      Work.push_back(I->operand(2));
      break;
    case Opcode::Phi:
      for (unsigned Op = 0; Op < I->numOperands(); ++Op)
        Work.push_back(I->operand(Op));
      break;
    default:
      return false;
    }
  }
  return true;
}

Value *zeroOfType(Module &M, Type Ty) {
  if (Ty.isPointer())
    return M.nullPtr();
  if (Ty.isFloat())
    return M.constFP(Ty, 0.0);
  return M.constInt(Ty, 0);
}

class Forwarder {
public:
  Forwarder(Function &F, AnalysisManager &AM, const OptOptions &Options,
            const AccessAnalysis &AA, const DominatorTree &DT,
            const Reachability &RA)
      : F(F), M(*F.parent()), AM(AM), Options(Options), AA(AA), DT(DT),
        RA(RA) {
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        if (I->isBarrier())
          Barriers.push_back(I.get());
  }

  bool run() {
    bool Changed = false;
    for (const ObjectInfo &Obj : AA.objects()) {
      if (!Obj.Analyzable)
        continue;
      // IV-B1 zero rule.
      if (Obj.ZeroInit && Obj.allWritesAreZero()) {
        for (const MemAccess &A : Obj.Accesses) {
          if (A.Kind != AccessKind::Load || A.Conditional)
            continue;
          // Only fold when this load provably reads this object alone.
          if (!readsOnly(A.I, Obj))
            continue;
          Value *Zero = zeroOfType(M, A.I->type());
          if (!A.I->useEmpty()) {
            A.I->replaceAllUsesWith(Zero);
            Changed = true;
          }
        }
        continue;
      }
      // Per-load forwarding.
      for (const MemAccess &A : Obj.Accesses) {
        if (A.Kind != AccessKind::Load || !A.OffsetKnown || A.Conditional ||
            A.I->useEmpty())
          continue;
        if (!readsOnly(A.I, Obj))
          continue;
        if (Value *V = forwardedValue(Obj, A)) {
          A.I->replaceAllUsesWith(V);
          Changed = true;
        }
      }
    }
    return Changed;
  }

private:
  /// True when the load's pointer provably refers to Obj and nothing else.
  bool readsOnly(const Instruction *Load, const ObjectInfo &Obj) const {
    std::vector<const Value *> Bases;
    if (!traceBases(Load->operand(0), Bases))
      return false;
    return Bases.size() == 1 && Bases[0] == Obj.Base;
  }

  /// True when Inst lies strictly between From and To on some path.
  bool between(const Instruction *From, const Instruction *To,
               const Instruction *Inst) const {
    return RA.isBetween(From, Inst, To);
  }

  /// Interference: a write that may overlap [Off,Off+Sz) and can execute
  /// between S and L.
  bool hasInterference(const ObjectInfo &Obj, const Instruction *S,
                       const Instruction *L, std::int64_t Off,
                       unsigned Sz) const {
    for (const MemAccess &A : Obj.Accesses) {
      if (A.Kind == AccessKind::Load || A.Kind == AccessKind::AssumedEq)
        continue;
      if (A.I == S)
        continue;
      if (!A.overlaps(true, Off, Sz))
        continue;
      if (between(S, L, A.I))
        return true;
    }
    if (!Options.EnableAlignedExecReasoning) {
      // IV-C ablation: no reasoning across synchronization — any barrier
      // between the definition point and the load clobbers.
      for (const Instruction *B : Barriers)
        if (between(S, L, B))
          return true;
    }
    return false;
  }

  /// An aligned barrier on the way from S to L (broadcast evidence).
  bool alignedBarrierBetween(const Instruction *S,
                             const Instruction *L) const {
    for (const Instruction *B : Barriers)
      if (B->opcode() == Opcode::AlignedBarrier && DT.dominates(S, B) &&
          DT.dominates(B, L))
        return true;
    return false;
  }

  /// Is V available and meaningful at load L (IV-B4)?
  bool valueUsableAt(const ObjectInfo &Obj, Value *V,
                     const Instruction *L) {
    if (V->isConstant())
      return true;
    if (!Options.EnableInvariantProp)
      return false;
    // SSA availability.
    if (const auto *Def = dynCast<Instruction>(V)) {
      if (!DT.dominates(Def, L))
        return false;
    }
    // Cross-thread meaning: shared state written by one thread and read by
    // another only forwards team-uniform values. The divergence analysis is
    // requested here, on first need, so a function whose forwarding never
    // asks costs nothing extra.
    if (Obj.isThreadPrivate())
      return true;
    if (!Divergence)
      Divergence = &AM.divergence(F);
    return Divergence->isUniform(V);
  }

  Value *forwardedValue(const ObjectInfo &Obj, const MemAccess &L) {
    // Collect forwarding candidates: unconditional exact stores and
    // assumed-content facts dominating the load.
    std::vector<const MemAccess *> Dominating;
    bool AllStoresSameConstant = true;
    Value *CommonStored = nullptr;
    for (const MemAccess &A : Obj.Accesses) {
      const bool IsFact = A.Kind == AccessKind::AssumedEq;
      if (A.Kind == AccessKind::Store || IsFact) {
        if (A.Kind == AccessKind::Store &&
            A.overlaps(true, L.Offset, L.Size)) {
          if (!A.Stored->isConstant() ||
              (CommonStored && CommonStored != A.Stored))
            AllStoresSameConstant = false;
          else
            CommonStored = A.Stored;
        }
        if (!IsFact && A.Conditional)
          continue; // Fig. 7b: written location unknown; facts cover these
        if (!A.exactMatch(L.Offset, L.Size))
          continue;
        if (!DT.dominates(A.I, L.I))
          continue;
        Dominating.push_back(&A);
      } else if (A.Kind == AccessKind::Atomic &&
                 A.overlaps(true, L.Offset, L.Size)) {
        AllStoresSameConstant = false;
      }
    }
    if (Dominating.empty())
      return nullptr;
    // Nearest dominating candidate: dominated by every other candidate
    // that dominates L (dominators of a point form a chain).
    const MemAccess *Nearest = Dominating.front();
    for (const MemAccess *A : Dominating)
      if (A != Nearest && DT.dominates(Nearest->I, A->I))
        Nearest = A;

    // IV-B2 ablation: restrict to same-block forwarding.
    if (!Options.EnableInterprocDominance &&
        Nearest->I->parent() != L.I->parent())
      return nullptr;

    Value *V = Nearest->Stored;
    if (!valueUsableAt(Obj, V, L.I))
      return nullptr;
    if (hasInterference(Obj, Nearest->I, L.I, L.Offset, L.Size))
      return nullptr;

    if (Nearest->Kind == AccessKind::AssumedEq)
      return V; // content asserted program-wide at that point (IV-B3)

    // Real store: sequential reasoning suffices for thread-private
    // objects; shared objects need broadcast evidence, or the "every
    // write stores the same constant" argument under which all race
    // outcomes agree (requires non-zero-init to have been overwritten —
    // the dominating store guarantees the writer ran).
    if (Obj.isThreadPrivate())
      return V;
    if (AllStoresSameConstant && V->isConstant())
      return V;
    if (Options.EnableAlignedExecReasoning &&
        alignedBarrierBetween(Nearest->I, L.I))
      return V;
    return nullptr;
  }

  Function &F;
  Module &M;
  AnalysisManager &AM;
  const OptOptions &Options;
  const AccessAnalysis &AA;
  const DominatorTree &DT;
  const Reachability &RA;
  const analysis::DivergenceAnalysis *Divergence = nullptr;
  std::vector<const Instruction *> Barriers;
};

/// Dead-store elimination over one function; analyses come from the
/// manager so unchanged functions reuse what load forwarding computed.
bool eliminateDeadStores(Function &F, const AccessAnalysis &AA,
                         const Reachability &RA) {
  bool Changed = false;
  // A store is erasable only when its pointer provenance is fully known
  // and every base it may write is an analyzable object with no
  // (reachable) readers of the stored range.
  std::vector<Instruction *> Dead;
  for (const auto &BB : F.blocks()) {
    for (const auto &Inst : BB->instructions()) {
      if (Inst->opcode() != ir::Opcode::Store)
        continue;
      Instruction *S = Inst.get();
      std::vector<const Value *> Bases;
      if (!traceBases(S->pointerOperand(), Bases) || Bases.empty())
        continue;
      bool Erasable = true;
      for (const Value *Base : Bases) {
        const ObjectInfo *O = AA.objectFor(Base);
        if (!O || !O->Analyzable) {
          Erasable = false;
          break;
        }
        // The store's recorded access in this object (for offset info);
        // analyzable objects have complete access lists.
        const MemAccess *StoreAcc = nullptr;
        for (const MemAccess &A : O->Accesses)
          if (A.I == S && A.Kind == AccessKind::Store)
            StoreAcc = &A;
        if (!StoreAcc) {
          Erasable = false;
          break;
        }
        for (const MemAccess &R : O->Accesses) {
          if (R.Kind == AccessKind::Store)
            continue;
          if (!R.overlaps(StoreAcc->OffsetKnown, StoreAcc->Offset,
                          StoreAcc->Size))
            continue;
          if (O->isThreadPrivate()) {
            // Sequential: only readers reachable from the store matter.
            if (RA.canReach(S, R.I)) {
              Erasable = false;
              break;
            }
          } else {
            // Concurrent object: another thread may read at any time.
            Erasable = false;
            break;
          }
        }
        if (!Erasable)
          break;
      }
      if (Erasable)
        Dead.push_back(S);
    }
  }
  for (Instruction *S : Dead) {
    CODESIGN_ASSERT(S->useEmpty(), "store with uses");
    S->parent()->erase(S);
    Changed = true;
  }
  return Changed;
}

} // namespace

PassResult runLoadForwarding(Module &M, AnalysisManager &AM,
                             const OptOptions &Options) {
  if (!Options.EnableFieldSensitiveProp)
    return PassResult::unchanged();
  PassResult Res;
  // Value rewrites only: CFG-shape analyses survive. The access analysis
  // does not (stored operands are rewritten in place). Invalidation is
  // scoped to the functions actually touched.
  Res.Preserved = analysis::PreservedAnalyses::cfg();
  Res.PerFunction = true;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    const AccessAnalysis &AA =
        AM.accesses(*F, Options.EnableAssumedMemoryContent);
    const DominatorTree &DT = AM.dominators(*F);
    const Reachability &RA = AM.reachability(*F);
    Forwarder Fw(*F, AM, Options, AA, DT, RA);
    if (Fw.run()) {
      Res.Changed = true;
      Res.ChangedFunctions.push_back(F.get());
    }
  }
  return Res;
}

bool runLoadForwarding(Module &M, const OptOptions &Options) {
  AnalysisManager AM(M);
  return runLoadForwarding(M, AM, Options).Changed;
}

PassResult runDeadStoreElim(Module &M, AnalysisManager &AM,
                            const OptOptions &Options) {
  if (!Options.EnableFieldSensitiveProp)
    return PassResult::unchanged();
  PassResult Res;
  // Erasing stores keeps block structure; the access analysis is stale
  // afterwards.
  Res.Preserved = analysis::PreservedAnalyses::cfg();
  Res.PerFunction = true;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    const AccessAnalysis &AA =
        AM.accesses(*F, Options.EnableAssumedMemoryContent);
    const Reachability &RA = AM.reachability(*F);
    if (eliminateDeadStores(*F, AA, RA)) {
      Res.Changed = true;
      Res.ChangedFunctions.push_back(F.get());
    }
  }
  return Res;
}

bool runDeadStoreElim(Module &M, const OptOptions &Options) {
  AnalysisManager AM(M);
  return runDeadStoreElim(M, AM, Options).Changed;
}

} // namespace codesign::opt
