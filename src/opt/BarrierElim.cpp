//===- opt/BarrierElim.cpp - Aligned barrier elimination (IV-D) ------------===//
//
// "Our barrier elimination pass detects consecutive aligned barriers in the
//  same basic block that do not have non-thread-local side-effects in
//  between them. During this identification process we also consider the
//  kernel entry and exit as implicit aligned barriers."
//
// Following Section VII, *reads* of non-thread-local memory also block the
// elimination: removing a barrier may change what such a load observes
// (GridMini's memory-resident loop bound is the paper's example).
//
// The implicit entry/exit barriers only exist for threads that actually
// execute the block: a block guarded by a divergent branch is reached by
// part of the team, so treating its trailing barrier as exit-aligned would
// "eliminate" a barrier that other threads still sit at. Both implicit
// rules are therefore gated on the DivergenceAnalysis reporting the block
// as uniformly executed.
//
//===----------------------------------------------------------------------===//
#include <algorithm>

#include "opt/PassManager.hpp"
#include "opt/Pipeline.hpp"

namespace codesign::opt {

using namespace ir;

namespace {

/// Trace a pointer to its base allocation; true when it is a per-thread
/// alloca (accesses through it are thread-local).
bool isThreadLocalPointer(const Value *Ptr) {
  for (;;) {
    const auto *I = dynCast<Instruction>(Ptr);
    if (!I)
      return false;
    if (I->opcode() == Opcode::Alloca)
      return true;
    if (I->opcode() == Opcode::Gep) {
      Ptr = I->operand(0);
      continue;
    }
    return false;
  }
}

/// True when I could observe or publish cross-thread state, i.e. a barrier
/// separating it from its neighbours is potentially meaningful.
bool blocksBarrierMerge(const Instruction &I) {
  switch (I.opcode()) {
  case Opcode::Load:
  case Opcode::Store:
    return !isThreadLocalPointer(I.pointerOperand());
  case Opcode::AtomicRMW:
  case Opcode::Malloc:
  case Opcode::Free:
  case Opcode::Call:
  case Opcode::Barrier: // an unaligned barrier is itself a sync point
    return true;
  case Opcode::NativeOp:
    return I.nativeFlags().ReadsMemory || I.nativeFlags().WritesMemory;
  default:
    return false;
  }
}

} // namespace

PassResult runBarrierElim(Module &M, AnalysisManager &AM,
                          const OptOptions &Options) {
  if (!Options.EnableBarrierElim)
    return PassResult::unchanged();
  PassResult Result;
  Result.PerFunction = true;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    const bool IsKernel = F->hasAttr(FnAttr::Kernel);
    // Lazily fetched: most functions have no elimination candidate.
    const analysis::DivergenceAnalysis *DA = nullptr;
    auto IsDivergentBlock = [&](const BasicBlock *BB) {
      if (!DA)
        DA = &AM.divergence(*F);
      return DA->isDivergentBlock(BB);
    };
    bool FnChanged = false;
    for (const auto &BB : F->blocks()) {
      std::vector<Instruction *> Dead;
      // Elimination reasons about team-wide rendezvous points; a block only
      // part of the team executes has none, and the barriers inside it are
      // the lint's problem (guaranteed deadlock), not this pass's.
      if (IsKernel && IsDivergentBlock(BB.get()))
        continue;
      // "CleanSince": an aligned synchronization point (previous aligned
      // barrier, or the kernel entry for the entry block) with no blocking
      // instruction observed since.
      bool HaveSyncPoint = IsKernel && BB.get() == F->entry();
      for (std::size_t Idx = 0; Idx < BB->size(); ++Idx) {
        Instruction *I = BB->inst(Idx);
        if (I->opcode() == Opcode::AlignedBarrier) {
          if (HaveSyncPoint)
            Dead.push_back(I); // redundant: nothing to publish since
          HaveSyncPoint = true;
          continue;
        }
        if (I->opcode() == Opcode::Ret && IsKernel) {
          // Kernel exit is an implicit aligned barrier: a pending aligned
          // barrier with nothing blocking behind it is redundant. Scan
          // backwards for such a barrier in this block.
          break; // handled below
        }
        if (blocksBarrierMerge(*I))
          HaveSyncPoint = false;
      }
      // Exit rule: trailing aligned barrier followed only by benign
      // instructions up to a kernel return. Only valid when every thread
      // of the team reaches this return together (uniform block).
      if (IsKernel) {
        Instruction *T = BB->terminator();
        if (T && T->opcode() == Opcode::Ret) {
          for (std::size_t Idx = BB->size() - 1; Idx-- > 0;) {
            Instruction *I = BB->inst(Idx);
            if (I->opcode() == Opcode::AlignedBarrier) {
              if (std::find(Dead.begin(), Dead.end(), I) == Dead.end())
                Dead.push_back(I);
              break;
            }
            if (blocksBarrierMerge(*I))
              break;
          }
        }
      }
      for (Instruction *I : Dead) {
        BB->erase(I);
        FnChanged = true;
      }
    }
    if (FnChanged) {
      Result.Changed = true;
      Result.ChangedFunctions.push_back(F.get());
    }
  }
  if (Result.Changed)
    Result.Preserved = PreservedAnalyses::cfg()
                           .preserve(AnalysisKind::Accesses)
                           .preserve(AnalysisKind::Divergence);
  return Result;
}

bool runBarrierElim(Module &M, const OptOptions &Options) {
  AnalysisManager AM(M);
  return runBarrierElim(M, AM, Options).Changed;
}

} // namespace codesign::opt
