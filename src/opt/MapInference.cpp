//===- opt/MapInference.cpp - Static map-clause inference ------------------===//
#include "opt/MapInference.hpp"

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "support/Stats.hpp"

namespace codesign::opt {

namespace {

using namespace ir;

/// Shared state of one inference run: memoized per-(function, argument)
/// usage with a cycle guard for recursive call chains.
struct UsageCtx {
  AnalysisManager &AM;
  std::map<std::pair<const Function *, unsigned>, ArgUsage> Memo;
  std::set<std::pair<const Function *, unsigned>> InProgress;
};

ArgUsage argUsage(UsageCtx &Ctx, Function &F, unsigned ArgIdx);

/// A tracked pointer was stored *as a value* by St. Resolve the slot
/// through the field-sensitive access analysis: when the destination
/// object is fully analyzable and the slot offset is known, every load
/// overlapping the slot may yield the tracked pointer and continues the
/// walk (the codegen arg-block pack/unpack idiom). Anything else escapes.
void followStoredValue(UsageCtx &Ctx, Function &F, Instruction *St,
                       ArgUsage &U, std::vector<Value *> &Work) {
  const AccessAnalysis &AA = Ctx.AM.accesses(F, /*CollectAssumes=*/false);
  const auto Locs = AA.locationsOf(St);
  if (Locs.empty()) {
    U.Escaped = true;
    return;
  }
  for (const AccessLocation &L : Locs) {
    if (!L.Object->Analyzable || !L.Access->OffsetKnown) {
      U.Escaped = true;
      continue;
    }
    for (const MemAccess &A : L.Object->Accesses) {
      if (A.Kind == AccessKind::Load &&
          A.overlaps(true, L.Access->Offset, L.Access->Size))
        Work.push_back(A.I);
      else if (A.Kind == AccessKind::Atomic &&
               A.overlaps(true, L.Access->Offset, L.Access->Size))
        U.Escaped = true; // the slot is raced over; give up on pairing
    }
  }
}

/// Walk every transitive use of Root inside F, accumulating into U.
void walkValue(UsageCtx &Ctx, Function &F, Value *Root, ArgUsage &U) {
  std::vector<Value *> Work{Root};
  std::set<const Value *> Seen;
  while (!Work.empty()) {
    if (U.Read && U.Written && U.Escaped)
      return; // saturated; nothing left to learn
    Value *V = Work.back();
    Work.pop_back();
    if (!Seen.insert(V).second)
      continue;
    for (const Use &Us : V->uses()) {
      Instruction *I = Us.User;
      switch (I->opcode()) {
      case Opcode::Gep:
        // Base position: still our pointer (shifted). Offset position: the
        // pointer laundered into arithmetic — escape.
        if (Us.OpIdx == 0)
          Work.push_back(I);
        else
          U.Escaped = true;
        break;
      case Opcode::Select:
        if (Us.OpIdx != 0) // value arms alias; the condition is an i1
          Work.push_back(I);
        break;
      case Opcode::Phi:
        Work.push_back(I);
        break;
      case Opcode::Load:
        U.Read = true;
        break;
      case Opcode::Store:
        if (Us.OpIdx == 1)
          U.Written = true; // store *through* the pointer
        else
          followStoredValue(Ctx, F, I, U, Work); // stored *as a value*
        break;
      case Opcode::AtomicRMW:
        if (Us.OpIdx == 0) {
          U.Read = true;
          U.Written = true;
        } else {
          U.Escaped = true; // the pointer itself is the exchanged value
        }
        break;
      case Opcode::Call: {
        if (Us.OpIdx == 0) {
          U.Escaped = true; // our data pointer used as a callee
          break;
        }
        Function *Callee = I->calledFunction();
        if (!Callee || Callee->isDeclaration()) {
          U.Escaped = true; // indirect or opaque: effects unknown
          break;
        }
        const ArgUsage Sub = argUsage(Ctx, *Callee, Us.OpIdx - 1);
        U.Read |= Sub.Read;
        U.Written |= Sub.Written;
        U.Escaped |= Sub.Escaped;
        break;
      }
      case Opcode::NativeOp: {
        const NativeOpFlags Flags = I->nativeFlags();
        if (Flags.readsOperand(Us.OpIdx))
          U.Read = true;
        if (Flags.writesOperand(Us.OpIdx))
          U.Written = true;
        break;
      }
      case Opcode::ICmp:
        break; // comparing the address touches no memory
      default:
        // PtrToInt, Ret, anything unanticipated: out of the provable
        // region.
        U.Escaped = true;
        break;
      }
    }
  }
}

ArgUsage argUsage(UsageCtx &Ctx, Function &F, unsigned ArgIdx) {
  const auto Key = std::make_pair(static_cast<const Function *>(&F), ArgIdx);
  if (auto It = Ctx.Memo.find(Key); It != Ctx.Memo.end())
    return It->second;
  if (!Ctx.InProgress.insert(Key).second)
    return {}; // recursive cycle: the outer frame accumulates the effects
  ArgUsage U;
  if (F.isDeclaration() || ArgIdx >= F.numArgs()) {
    U.Escaped = true;
  } else if (F.arg(ArgIdx)->type().isPointer()) {
    walkValue(Ctx, F, F.arg(ArgIdx), U);
  }
  Ctx.InProgress.erase(Key);
  Ctx.Memo.emplace(Key, U);
  return U;
}

/// Spell out proven usage for remarks ("reads, never writes").
std::string usageText(const ArgUsage &U) {
  std::string Out = U.Read ? "reads" : "never reads";
  Out += U.Written ? ", writes" : ", never writes";
  if (U.Escaped)
    Out += ", escapes";
  return Out;
}

} // namespace

std::vector<ArgUsage> computeArgUsage(ir::Function &Kernel,
                                      AnalysisManager &AM) {
  UsageCtx Ctx{AM, {}, {}};
  std::vector<ArgUsage> Out(Kernel.numArgs());
  for (unsigned I = 0; I < Kernel.numArgs(); ++I)
    if (Kernel.arg(I)->type().isPointer())
      Out[I] = argUsage(Ctx, Kernel, I);
  return Out;
}

ir::MapKind inferredMapFor(const ArgUsage &U) {
  if (U.Escaped)
    return ir::MapKind::ToFrom;
  if (U.Read && U.Written)
    return ir::MapKind::ToFrom;
  if (U.Read)
    return ir::MapKind::To;
  if (U.Written)
    return ir::MapKind::From;
  return ir::MapKind::Alloc;
}

std::size_t inferModuleMaps(ir::Module &M, AnalysisManager &AM,
                            const OptOptions &Options) {
  std::size_t Annotated = 0;
  for (const auto &F : M.functions()) {
    if (!F->hasAttr(ir::FnAttr::Kernel) || F->isDeclaration())
      continue;
    const std::vector<ArgUsage> Usage = computeArgUsage(*F, AM);
    bool AnyPointer = false;
    for (unsigned I = 0; I < F->numArgs(); ++I) {
      if (!F->arg(I)->type().isPointer())
        continue;
      AnyPointer = true;
      const ir::MapKind K = inferredMapFor(Usage[I]);
      F->setInferredArgMap(I, K);
      ++Annotated;
      Counters::global().add(std::string("opt.mapinfer.") +
                             ir::mapKindName(K));
      if (Usage[I].Escaped)
        Counters::global().add("opt.mapinfer.escaped");
      Options.remark(RemarkKind::Analysis, "infer-maps", F->name(),
                     "argument #" + std::to_string(I) + " " +
                         usageText(Usage[I]) + ": inferred map(" +
                         ir::mapKindName(K) + ")");
    }
    if (AnyPointer)
      Counters::global().add("opt.mapinfer.kernels");
  }
  return Annotated;
}

} // namespace codesign::opt
