//===- opt/GlobalizationElim.cpp - Shared-allocation demotion (IV-A2) ------===//
//
// Two demotions for __kmpc_alloc_shared calls (variable globalization):
//
//  (a) Thread-private use: when the allocated pointer never escapes the
//      allocating thread (no stores of the pointer itself, no opaque
//      calls), the allocation demotes to a plain per-thread alloca and the
//      matching __kmpc_free_shared calls disappear. This is the common
//      case after SPMDization: each thread packs and reads its own
//      argument block.
//
//  (b) Leader-allocated team scratch: a constant-size allocation executed
//      only under a "tid == 0" guard (and then broadcast) becomes a
//      dedicated static shared global — the shape Clang uses for
//      known-size globalization in SPMD kernels. The shared-memory stack
//      is bypassed entirely; when nothing else uses it, it dies with the
//      rest of the runtime state.
//
//===----------------------------------------------------------------------===//
#include <set>

#include "opt/Pipeline.hpp"
#include "rt/RuntimeABI.hpp"

namespace codesign::opt {

using namespace ir;
namespace abi = codesign::rt;

namespace {

bool isAllocSharedCall(const Instruction *I) {
  if (I->opcode() != Opcode::Call)
    return false;
  const Function *Callee = I->calledFunction();
  return Callee && Callee->name() == abi::AllocSharedName;
}

bool isFreeSharedOf(const Instruction *I, const Value *Ptr) {
  if (I->opcode() != Opcode::Call)
    return false;
  const Function *Callee = I->calledFunction();
  return Callee && Callee->name() == abi::FreeSharedName &&
         I->numCallArgs() == 2 && I->callArg(0) == Ptr;
}

/// Classify every use of the allocation result. Returns false when a use
/// prevents any demotion.
struct UseSummary {
  bool EscapesToMemory = false; ///< pointer stored somewhere
  bool OpaqueUse = false;       ///< call / native / ptrtoint / return
  std::vector<Instruction *> Frees;
};

bool summarizeUses(const Instruction *Alloc, UseSummary &S) {
  std::vector<const Value *> Work{Alloc};
  std::set<const Value *> Seen;
  while (!Work.empty()) {
    const Value *V = Work.back();
    Work.pop_back();
    if (!Seen.insert(V).second)
      continue;
    for (const Use &U : V->uses()) {
      Instruction *I = U.User;
      switch (I->opcode()) {
      case Opcode::Gep:
        if (U.OpIdx == 0)
          Work.push_back(I);
        break;
      case Opcode::Load:
        break;
      case Opcode::Store:
        if (U.OpIdx == 0)
          S.EscapesToMemory = true;
        break;
      case Opcode::AtomicRMW:
        if (U.OpIdx != 0)
          S.EscapesToMemory = true;
        break;
      case Opcode::ICmp:
        break;
      case Opcode::Call:
        if (V == Alloc && isFreeSharedOf(I, Alloc)) {
          S.Frees.push_back(I);
          break;
        }
        S.OpaqueUse = true;
        break;
      case Opcode::Phi:
      case Opcode::Select:
        // Merged pointers are beyond this simple demotion.
        S.OpaqueUse = true;
        break;
      default:
        S.OpaqueUse = true;
        break;
      }
    }
  }
  return !S.OpaqueUse;
}

/// Gather every __kmpc_free_shared of the allocation, following aliases
/// that keep the same base pointer: phis, selects, and the result of the
/// __kmpc_broadcast_ptr helper. Returns false when a free could exist
/// behind a construct we do not model (unknown call receiving the pointer
/// that is not broadcast/free — the caller must then keep the stack path).
bool collectFreesThroughAliases(Instruction *Alloc,
                                std::vector<Instruction *> &Frees) {
  std::vector<const Value *> Work{Alloc};
  std::set<const Value *> Seen;
  while (!Work.empty()) {
    const Value *V = Work.back();
    Work.pop_back();
    if (!Seen.insert(V).second)
      continue;
    for (const Use &U : V->uses()) {
      Instruction *I = U.User;
      switch (I->opcode()) {
      case Opcode::Phi:
      case Opcode::Select:
        Work.push_back(I);
        break;
      case Opcode::Call: {
        const Function *Callee = I->calledFunction();
        if (Callee && Callee->name() == abi::FreeSharedName && U.OpIdx == 1) {
          Frees.push_back(I); // arg0 of the call => operand index 1
          break;
        }
        if (Callee && Callee->name() == abi::BroadcastPtrName &&
            U.OpIdx == 1) {
          Work.push_back(I); // the broadcast result aliases the pointer
          break;
        }
        return false; // pointer handed to code we cannot see through
      }
      default:
        break; // geps/loads/stores through the pointer are fine
      }
    }
  }
  return true;
}

/// True when BB executes only under a "threadId == 0" condition (single
/// predecessor whose conditional branch takes the compared edge).
bool isLeaderGuarded(const BasicBlock *BB) {
  std::vector<BasicBlock *> Preds = BB->predecessors();
  if (Preds.size() != 1)
    return false;
  const Instruction *T = Preds[0]->terminator();
  if (!T || T->opcode() != Opcode::CondBr || T->blockOperand(0) != BB)
    return false;
  const auto *Cmp = dynCast<Instruction>(T->operand(0));
  if (!Cmp || Cmp->opcode() != Opcode::ICmp || Cmp->pred() != CmpPred::EQ)
    return false;
  const auto *Tid = dynCast<Instruction>(Cmp->operand(0));
  const auto *Zero = dynCast<ConstantInt>(Cmp->operand(1));
  return Tid && Tid->opcode() == Opcode::ThreadId && Zero && Zero->isZero();
}

} // namespace

bool runGlobalizationElim(Module &M, const OptOptions &Options,
                          bool AllowTeamScratch) {
  if (!Options.EnableGlobalizationElim)
    return false;
  bool Changed = false;
  unsigned ScratchId = 0;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    // Snapshot the candidate calls first; rewriting mutates blocks.
    std::vector<Instruction *> Candidates;
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        if (isAllocSharedCall(I.get()))
          Candidates.push_back(I.get());

    for (Instruction *Alloc : Candidates) {
      const auto *Size = dynCast<ConstantInt>(Alloc->callArg(0));
      if (!Size || Size->value() <= 0)
        continue;
      UseSummary S;
      const bool SimpleUses = summarizeUses(Alloc, S);

      if (SimpleUses && !S.EscapesToMemory) {
        // (a) Thread-private: demote to alloca.
        BasicBlock *BB = Alloc->parent();
        const std::size_t Pos = BB->indexOf(Alloc);
        auto NewAlloca =
            std::make_unique<Instruction>(Opcode::Alloca, Type::ptr());
        NewAlloca->setImm(Size->value());
        NewAlloca->setName("deglobalized");
        Instruction *AllocaPtr = BB->insertAt(Pos, std::move(NewAlloca));
        for (Instruction *FreeCall : S.Frees) {
          FreeCall->dropOperands();
          FreeCall->parent()->erase(FreeCall);
        }
        Alloc->replaceAllUsesWith(AllocaPtr);
        BB->erase(Alloc);
        Options.remark(RemarkKind::Passed, "globalization-elim", F->name(),
                       "shared allocation demoted to thread-local stack");
        Changed = true;
        continue;
      }

      if (AllowTeamScratch && isLeaderGuarded(Alloc->parent())) {
        // (b) Leader-allocated team scratch: dedicated shared global. The
        // pointer may flow through the broadcast helper and phis — those
        // aliases (and their frees) must be accounted for, because the
        // replacement global is team-visible by construction.
        std::vector<Instruction *> Frees;
        if (!collectFreesThroughAliases(Alloc, Frees)) {
          Options.remark(
              RemarkKind::Missed, "globalization-elim", F->name(),
              "team scratch has unrecognized frees; kept on the stack");
          continue;
        }
        GlobalVariable *G = M.createGlobal(
            F->name() + ".team_scratch" + std::to_string(ScratchId++),
            AddrSpace::Shared, static_cast<std::uint64_t>(Size->value()), 16);
        for (Instruction *FreeCall : Frees) {
          FreeCall->dropOperands();
          FreeCall->parent()->erase(FreeCall);
        }
        Alloc->replaceAllUsesWith(G);
        Alloc->parent()->erase(Alloc);
        Options.remark(RemarkKind::Passed, "globalization-elim", F->name(),
                       "team scratch lowered to static shared memory");
        Changed = true;
        continue;
      }

      Options.remark(RemarkKind::Missed, "globalization-elim", F->name(),
                     "shared allocation escapes to other threads; "
                     "the data-sharing stack stays live");
    }
  }
  return Changed;
}

} // namespace codesign::opt
