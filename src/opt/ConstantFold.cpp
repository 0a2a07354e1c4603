//===- opt/ConstantFold.cpp - Constant folding and instsimplify -----------===//
//
// A value operation whose operands are all constants folds to what the
// device computes: the folder evaluates it with ir/Eval.hpp, the evaluator
// every execution backend runs, so folding never changes a kernel's
// results. The identity rules (x+0, a==a, null checks, select, gep, phi)
// need no evaluation.
//
//===----------------------------------------------------------------------===//
#include <cstring>
#include <optional>

#include "ir/IRBuilder.hpp"
#include "opt/Pipeline.hpp"

namespace codesign::opt {

using namespace ir;

namespace {

/// Canonical bits of a constant operand (the null pointer is 0), or
/// nothing when V is not a constant. Undef is left alone.
std::optional<std::uint64_t> constantBits(const Value *V) {
  if (const auto *C = dynCast<ConstantInt>(V))
    return C->bits();
  if (const auto *C = dynCast<ConstantFP>(V))
    return C->bits();
  if (isa<ConstantNull>(V))
    return 0;
  return std::nullopt;
}

/// The constant of type Ty with canonical bits Bits, or null when Ty has no
/// such constant (a pointer other than null).
Value *constantOf(Module &M, Type Ty, std::uint64_t Bits) {
  if (Ty.isInteger())
    return M.constInt(Ty, static_cast<std::int64_t>(Bits));
  if (Ty.isFloat())
    return M.constFP(Ty, eval::decodeF(Ty.kind(), Bits));
  if (Ty.isPointer() && Bits == 0)
    return M.nullPtr();
  return nullptr;
}

/// Fold a value operation whose operands are all constants to the constant
/// it computes on the device (ir/Eval.hpp). Returns null when an operand is
/// not constant, or when the operation traps: a division or remainder by
/// zero stays for the runtime to trap on.
Value *foldValueOp(Module &M, const Instruction &I) {
  if (I.numOperands() == 0 || I.numOperands() > 3)
    return nullptr;
  std::uint64_t Ops[3] = {};
  for (unsigned K = 0; K < I.numOperands(); ++K) {
    const std::optional<std::uint64_t> Bits = constantBits(I.operand(K));
    if (!Bits)
      return nullptr;
    Ops[K] = *Bits;
  }
  std::uint64_t R = 0;
  if (eval::evaluate(I.opcode(), I.pred(), I.type().kind(),
                     I.operand(0)->type().kind(), Ops, R))
    return nullptr;
  return constantOf(M, I.type(), R);
}

/// True when V is statically known to be a nonzero "address" (function
/// addresses and global variables are never null).
bool isKnownNonNullAddress(const Value *V) {
  return V->kind() == ValueKind::Function ||
         V->kind() == ValueKind::GlobalVariable;
}

/// Trace a pointer to (base, constant offset); base may be any Value.
std::pair<const Value *, std::int64_t> traceConstGep(const Value *Ptr) {
  std::int64_t Off = 0;
  while (const auto *I = dynCast<Instruction>(Ptr)) {
    if (I->opcode() != Opcode::Gep)
      break;
    const auto *C = dynCast<ConstantInt>(I->operand(1));
    if (!C)
      break;
    Off += C->value();
    Ptr = I->operand(0);
  }
  return {Ptr, Off};
}

/// Fold a load from a constant-initialized, constant-space global at a
/// constant offset. This is how the runtime "reads compile-time flags":
/// @__omp_rtl_debug_kind, the oversubscription globals (Sections III-F/G).
Value *foldConstGlobalLoad(Module &M, const Instruction &Load) {
  auto [Base, Off] = traceConstGep(Load.operand(0));
  const auto *G = dynCast<GlobalVariable>(Base);
  if (!G || !G->isConstant())
    return nullptr;
  const Type Ty = Load.type();
  const unsigned Size = Ty.sizeInBytes();
  if (Off < 0 || static_cast<std::uint64_t>(Off) + Size > G->sizeBytes())
    return nullptr;
  if (Ty.isPointer())
    return nullptr; // pointer loads from initializers are not supported
  std::uint64_t Raw = 0;
  if (!G->initializer().empty())
    std::memcpy(&Raw, G->initializer().data() + Off, Size);
  // The canonical value TeamModel::load reads from these bytes.
  return constantOf(M, Ty, eval::canonBits(Ty.kind(), Raw));
}

/// Try to simplify one instruction; returns the replacement or null.
/// Mutated is set when the instruction was rewritten in place.
Value *simplify(Module &M, Instruction &I, bool &Mutated) {
  const auto *CA =
      I.numOperands() > 0 ? dynCast<ConstantInt>(I.operand(0)) : nullptr;
  const auto *CB =
      I.numOperands() > 1 ? dynCast<ConstantInt>(I.operand(1)) : nullptr;

  switch (I.opcode()) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::SDiv:
  case Opcode::UDiv:
  case Opcode::SRem:
  case Opcode::URem:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::LShr:
  case Opcode::AShr: {
    if (CA && CB)
      return foldValueOp(M, I);
    // Identities.
    Value *A = I.operand(0), *B = I.operand(1);
    switch (I.opcode()) {
    case Opcode::Add:
      if (CB && CB->isZero())
        return A;
      if (CA && CA->isZero())
        return B;
      break;
    case Opcode::Sub:
      if (CB && CB->isZero())
        return A;
      if (A == B)
        return M.constInt(I.type(), 0);
      break;
    case Opcode::Mul:
      if (CB && CB->value() == 1)
        return A;
      if (CA && CA->value() == 1)
        return B;
      if ((CB && CB->isZero()) || (CA && CA->isZero()))
        return M.constInt(I.type(), 0);
      break;
    case Opcode::And:
      if ((CB && CB->isZero()) || (CA && CA->isZero()))
        return M.constInt(I.type(), 0);
      if (A == B)
        return A;
      break;
    case Opcode::Or:
      if (CB && CB->isZero())
        return A;
      if (CA && CA->isZero())
        return B;
      if (A == B)
        return A;
      break;
    case Opcode::Xor:
      if (A == B)
        return M.constInt(I.type(), 0);
      if (CB && CB->isZero())
        return A;
      break;
    case Opcode::Shl:
    case Opcode::LShr:
    case Opcode::AShr:
      if (CB && CB->isZero())
        return A;
      break;
    default:
      break;
    }
    return nullptr;
  }
  case Opcode::ICmp: {
    if (Value *C = foldValueOp(M, I))
      return C;
    Value *A = I.operand(0), *B = I.operand(1);
    if (A == B) {
      switch (I.pred()) {
      case CmpPred::EQ:
      case CmpPred::SLE:
      case CmpPred::SGE:
      case CmpPred::ULE:
      case CmpPred::UGE:
        return M.constBool(true);
      case CmpPred::NE:
      case CmpPred::SLT:
      case CmpPred::SGT:
      case CmpPred::ULT:
      case CmpPred::UGT:
        return M.constBool(false);
      default:
        break;
      }
    }
    // ptr-as-int null checks against known-nonnull addresses.
    auto knownNonZeroInt = [](const Value *V) {
      const auto *P2I = dynCast<Instruction>(V);
      return P2I && P2I->opcode() == Opcode::PtrToInt &&
             isKnownNonNullAddress(P2I->operand(0));
    };
    const bool AZero = CA && CA->isZero();
    const bool BZero = CB && CB->isZero();
    if ((BZero && knownNonZeroInt(A)) || (AZero && knownNonZeroInt(B))) {
      if (I.pred() == CmpPred::EQ)
        return M.constBool(false);
      if (I.pred() == CmpPred::NE)
        return M.constBool(true);
    }
    // Direct pointer compares against null.
    if (I.operand(0)->type().isPointer()) {
      const bool ANull = isa<ConstantNull>(A), BNull = isa<ConstantNull>(B);
      if ((ANull && isKnownNonNullAddress(B)) ||
          (BNull && isKnownNonNullAddress(A))) {
        if (I.pred() == CmpPred::EQ)
          return M.constBool(false);
        if (I.pred() == CmpPred::NE)
          return M.constBool(true);
      }
    }
    return nullptr;
  }
  case Opcode::FCmp:
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
  case Opcode::ZExt:
  case Opcode::SExt:
  case Opcode::Trunc:
  case Opcode::SIToFP:
  case Opcode::FPToSI:
  case Opcode::FPCast:
  case Opcode::PtrToInt:
  case Opcode::IntToPtr:
    return foldValueOp(M, I);
  case Opcode::Select: {
    if (CA)
      return CA->isZero() ? I.operand(2) : I.operand(1);
    if (I.operand(1) == I.operand(2))
      return I.operand(1);
    return nullptr;
  }
  case Opcode::Gep: {
    if (CB && CB->isZero())
      return I.operand(0);
    // Collapse gep-of-gep with constant offsets.
    const auto *BaseGep = dynCast<Instruction>(I.operand(0));
    if (CB && BaseGep && BaseGep->opcode() == Opcode::Gep) {
      if (const auto *InnerOff = dynCast<ConstantInt>(BaseGep->operand(1))) {
        auto *NewI = const_cast<Instruction *>(&I);
        NewI->setOperand(0, BaseGep->operand(0));
        NewI->setOperand(
            1, M.constI64(InnerOff->value() + CB->value()));
        Mutated = true;
        return nullptr;
      }
    }
    return nullptr;
  }
  case Opcode::Phi: {
    // All incomings identical (ignoring undef) => that value.
    Value *Common = nullptr;
    for (unsigned OpIdx = 0; OpIdx < I.numOperands(); ++OpIdx) {
      Value *V = I.operand(OpIdx);
      if (isa<UndefValue>(V) || V == &I)
        continue;
      if (Common && Common != V)
        return nullptr;
      Common = V;
    }
    // A def must dominate its uses; incoming values of a phi dominate the
    // incoming edges, which is not enough in general. It is safe when the
    // common value is a constant, argument, global or function — or when
    // the phi has a single real incoming that dominates the block (we
    // conservatively require non-instruction values here; SimplifyCFG's
    // single-predecessor merge handles the rest).
    if (Common && !isa<Instruction>(Common))
      return Common;
    // Single real incoming instruction: safe when it is the only incoming.
    if (Common && I.numOperands() == 1)
      return Common;
    return nullptr;
  }
  case Opcode::Load:
    return foldConstGlobalLoad(M, I);
  default:
    return nullptr;
  }
}

} // namespace

bool runConstantFold(Module &M) {
  bool Changed = false;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    bool LocalChanged = true;
    while (LocalChanged) {
      LocalChanged = false;
      for (const auto &BB : F->blocks()) {
        // Index-based iteration: simplification never inserts, only
        // replaces uses; erasure is left to DCE.
        for (std::size_t Idx = 0; Idx < BB->size(); ++Idx) {
          Instruction *I = BB->inst(Idx);
          if (I->type().isVoid() || I->useEmpty())
            continue;
          bool Mutated = false;
          Value *R = simplify(M, *I, Mutated);
          if (Mutated) {
            LocalChanged = true;
            Changed = true;
          }
          if (R && R != I) {
            I->replaceAllUsesWith(R);
            LocalChanged = true;
            Changed = true;
          }
        }
      }
    }
  }
  return Changed;
}

} // namespace codesign::opt
