#include "opt/AccessAnalysis.hpp"

#include <optional>
#include <unordered_map>

namespace codesign::opt {

using namespace ir;

bool ObjectInfo::allWritesAreZero() const {
  for (const MemAccess &A : Accesses) {
    if (A.Kind == AccessKind::Atomic)
      return false;
    if (A.Kind != AccessKind::Store)
      continue;
    const Value *V = A.Stored;
    if (isa<ConstantNull>(V))
      continue;
    if (const auto *C = dynCast<ConstantInt>(V); C && C->isZero())
      continue;
    if (const auto *FC = dynCast<ConstantFP>(V); FC && FC->value() == 0.0)
      continue;
    return false;
  }
  return true;
}

bool ObjectInfo::hasReads() const {
  for (const MemAccess &A : Accesses)
    if (A.Kind == AccessKind::Load || A.Kind == AccessKind::Atomic)
      return true;
  return false;
}

namespace {

/// Traversal state for one derived pointer.
struct DerivedState {
  bool OffsetKnown = true;
  std::int64_t Offset = 0;
  bool Conditional = false;

  friend bool operator==(const DerivedState &A, const DerivedState &B) {
    return A.OffsetKnown == B.OffsetKnown && A.Offset == B.Offset &&
           A.Conditional == B.Conditional;
  }
};

} // namespace

AccessAnalysis::AccessAnalysis(Function &F, bool CollectAssumes) {
  Module &M = *F.parent();
  // Candidate objects: internal module globals, allocas in F, mallocs in F.
  for (const auto &G : M.globals()) {
    if (!G->isInternal() || G->isConstant())
      continue;
    analyzeObject(G.get(), G->space(), G->sizeBytes(), G->isZeroInit(), F);
  }
  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      if (I->opcode() == Opcode::Alloca)
        analyzeObject(I.get(), AddrSpace::Local,
                      static_cast<std::uint64_t>(I->imm()), /*ZeroInit=*/false,
                      F);
      else if (I->opcode() == Opcode::Malloc)
        analyzeObject(I.get(), AddrSpace::Global, 0, /*ZeroInit=*/false, F);
    }
  }
  if (CollectAssumes)
    collectAssumedFacts(F);
}

void AccessAnalysis::analyzeObject(const Value *Base, AddrSpace Space,
                                   std::uint64_t Size, bool ZeroInit,
                                   Function &F) {
  ObjectInfo Info;
  Info.Base = Base;
  Info.Space = Space;
  Info.Size = Size;
  Info.ZeroInit = ZeroInit;

  const std::size_t ObjIdx = Objects.size();
  std::unordered_map<const Value *, DerivedState> Visited;
  std::vector<std::pair<Value *, DerivedState>> Work;
  Work.emplace_back(const_cast<Value *>(Base), DerivedState{});

  auto addAccess = [&](Instruction *I, AccessKind K, const DerivedState &S,
                       unsigned Sz, Value *Stored) {
    MemAccess A;
    A.I = I;
    A.Kind = K;
    A.OffsetKnown = S.OffsetKnown;
    A.Offset = S.Offset;
    A.Size = Sz;
    A.Stored = Stored;
    A.Conditional = S.Conditional;
    InstIndex.emplace(I, std::make_pair(ObjIdx, Info.Accesses.size()));
    Info.Accesses.push_back(A);
  };

  while (!Work.empty() && Info.Analyzable) {
    auto [V, State] = Work.back();
    Work.pop_back();
    auto It = Visited.find(V);
    if (It != Visited.end()) {
      if (It->second == State)
        continue;
      // Conflicting states: widen to unknown offset + conditional and
      // revisit once.
      DerivedState Widened;
      Widened.OffsetKnown = false;
      Widened.Conditional = true;
      if (It->second == Widened)
        continue;
      State = Widened;
      It->second = Widened;
    } else {
      Visited.emplace(V, State);
    }

    for (const Use &U : V->uses()) {
      Instruction *I = U.User;
      // A use in a different function means the object is manipulated by
      // code this analysis cannot see (e.g. a NoInline runtime helper).
      if (I->function() != &F) {
        Info.Analyzable = false;
        break;
      }
      switch (I->opcode()) {
      case Opcode::Gep: {
        if (U.OpIdx != 0)
          break; // offset operand is an integer, not a pointer
        DerivedState Next = State;
        if (const auto *C = dynCast<ConstantInt>(I->operand(1))) {
          if (Next.OffsetKnown)
            Next.Offset += C->value();
        } else {
          Next.OffsetKnown = false;
        }
        Work.emplace_back(I, Next);
        break;
      }
      case Opcode::Select: {
        if (U.OpIdx == 0)
          break;
        DerivedState Next = State;
        Next.Conditional = true;
        Work.emplace_back(I, Next);
        break;
      }
      case Opcode::Phi: {
        DerivedState Next = State;
        Next.Conditional = true;
        Next.OffsetKnown = false;
        Work.emplace_back(I, Next);
        break;
      }
      case Opcode::Load:
        addAccess(I, AccessKind::Load, State, I->type().sizeInBytes(),
                  nullptr);
        break;
      case Opcode::Store:
        if (U.OpIdx == 1)
          addAccess(I, AccessKind::Store, State, I->accessSize(),
                    I->operand(0));
        else
          Info.Analyzable = false; // our pointer stored as a value: escapes
        break;
      case Opcode::AtomicRMW:
        if (U.OpIdx == 0)
          addAccess(I, AccessKind::Atomic, State, I->accessSize(),
                    I->operand(1));
        else
          Info.Analyzable = false;
        break;
      case Opcode::ICmp:
        break; // pointer comparisons do not access memory
      case Opcode::Free:
        break; // lifetime end; no content effect
      default:
        // PtrToInt, calls, native ops, returns, ... : escaped.
        Info.Analyzable = false;
        break;
      }
      if (!Info.Analyzable)
        break;
    }
  }

  Objects.push_back(std::move(Info));
}

void AccessAnalysis::collectAssumedFacts(Function &F) {
  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      if (I->opcode() != Opcode::Assume)
        continue;
      const auto *Cmp = dynCast<Instruction>(I->operand(0));
      if (!Cmp || Cmp->opcode() != Opcode::ICmp ||
          Cmp->pred() != CmpPred::EQ)
        continue;
      for (int Side = 0; Side < 2; ++Side) {
        const auto *Ld = dynCast<Instruction>(Cmp->operand(Side));
        Value *Other = Cmp->operand(1 - Side);
        if (!Ld || Ld->opcode() != Opcode::Load)
          continue;
        // Find the load's unique unconditional location.
        auto Range = InstIndex.equal_range(Ld);
        std::optional<std::pair<std::size_t, std::size_t>> Unique;
        bool Multiple = false;
        for (auto It = Range.first; It != Range.second; ++It) {
          if (Unique) {
            Multiple = true;
            break;
          }
          Unique = It->second;
        }
        if (!Unique || Multiple)
          continue;
        ObjectInfo &Obj = Objects[Unique->first];
        const MemAccess &LoadAcc = Obj.Accesses[Unique->second];
        if (!LoadAcc.OffsetKnown || LoadAcc.Conditional)
          continue;
        MemAccess Fact;
        Fact.I = I.get();
        Fact.Kind = AccessKind::AssumedEq;
        Fact.OffsetKnown = true;
        Fact.Offset = LoadAcc.Offset;
        Fact.Size = LoadAcc.Size;
        Fact.Stored = Other;
        InstIndex.emplace(I.get(),
                          std::make_pair(Unique->first, Obj.Accesses.size()));
        Obj.Accesses.push_back(Fact);
        break;
      }
    }
  }
}

std::vector<AccessLocation>
AccessAnalysis::locationsOf(const Instruction *I) const {
  std::vector<AccessLocation> Out;
  auto Range = InstIndex.equal_range(I);
  for (auto It = Range.first; It != Range.second; ++It)
    Out.push_back(AccessLocation{&Objects[It->second.first],
                                 &Objects[It->second.first]
                                      .Accesses[It->second.second]});
  return Out;
}

const ObjectInfo *AccessAnalysis::objectFor(const Value *Base) const {
  for (const ObjectInfo &O : Objects)
    if (O.Base == Base)
      return &O;
  return nullptr;
}

bool AccessAnalysis::equivalentTo(const AccessAnalysis &Other) const {
  auto SameAccess = [](const MemAccess &A, const MemAccess &B) {
    return A.I == B.I && A.Kind == B.Kind && A.OffsetKnown == B.OffsetKnown &&
           A.Offset == B.Offset && A.Size == B.Size && A.Stored == B.Stored &&
           A.Conditional == B.Conditional;
  };
  if (Objects.size() != Other.Objects.size() || InstIndex != Other.InstIndex)
    return false;
  for (std::size_t I = 0; I < Objects.size(); ++I) {
    const ObjectInfo &A = Objects[I], &B = Other.Objects[I];
    if (A.Base != B.Base || A.Space != B.Space || A.Size != B.Size ||
        A.ZeroInit != B.ZeroInit || A.Analyzable != B.Analyzable ||
        A.Accesses.size() != B.Accesses.size())
      return false;
    for (std::size_t J = 0; J < A.Accesses.size(); ++J)
      if (!SameAccess(A.Accesses[J], B.Accesses[J]))
        return false;
  }
  return true;
}

} // namespace codesign::opt
