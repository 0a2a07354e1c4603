#include "ir/IRBuilder.hpp"

namespace codesign::ir {

Instruction *IRBuilder::insert(std::unique_ptr<Instruction> I) {
  CODESIGN_ASSERT(BB, "no insertion point set");
  return BB->append(std::move(I));
}

Value *IRBuilder::binop(Opcode Op, Value *A, Value *B) {
  CODESIGN_ASSERT(A->type() == B->type(), "binop operand type mismatch");
  auto I = std::make_unique<Instruction>(Op, A->type());
  I->addOperand(A);
  I->addOperand(B);
  return insert(std::move(I));
}

Value *IRBuilder::cmp(CmpPred P, Value *A, Value *B) {
  CODESIGN_ASSERT(A->type() == B->type(), "cmp operand type mismatch");
  const bool IsFloat = P >= CmpPred::OEQ;
  auto I = std::make_unique<Instruction>(
      IsFloat ? Opcode::FCmp : Opcode::ICmp, Type::i1());
  I->setPred(P);
  I->addOperand(A);
  I->addOperand(B);
  return insert(std::move(I));
}

Value *IRBuilder::select(Value *Cond, Value *TrueV, Value *FalseV) {
  CODESIGN_ASSERT(Cond->type().isI1(), "select condition must be i1");
  CODESIGN_ASSERT(TrueV->type() == FalseV->type(),
                  "select arm type mismatch");
  auto I = std::make_unique<Instruction>(Opcode::Select, TrueV->type());
  I->addOperand(Cond);
  I->addOperand(TrueV);
  I->addOperand(FalseV);
  return insert(std::move(I));
}

Value *IRBuilder::castOp(Opcode Op, Value *V, Type To) {
  auto I = std::make_unique<Instruction>(Op, To);
  I->addOperand(V);
  return insert(std::move(I));
}

Value *IRBuilder::allocaBytes(std::uint64_t SizeBytes, std::string Name) {
  auto I = std::make_unique<Instruction>(Opcode::Alloca, Type::ptr());
  I->setImm(static_cast<std::int64_t>(SizeBytes));
  I->setName(std::move(Name));
  return insert(std::move(I));
}

Value *IRBuilder::load(Type Ty, Value *Ptr) {
  CODESIGN_ASSERT(Ptr->type().isPointer(), "load pointer operand not ptr");
  auto I = std::make_unique<Instruction>(Opcode::Load, Ty);
  I->addOperand(Ptr);
  return insert(std::move(I));
}

Instruction *IRBuilder::store(Value *Val, Value *Ptr) {
  CODESIGN_ASSERT(Ptr->type().isPointer(), "store pointer operand not ptr");
  auto I = std::make_unique<Instruction>(Opcode::Store, Type::voidTy());
  I->addOperand(Val);
  I->addOperand(Ptr);
  return insert(std::move(I));
}

Value *IRBuilder::gep(Value *Base, Value *Offset) {
  CODESIGN_ASSERT(Base->type().isPointer(), "gep base not ptr");
  CODESIGN_ASSERT(Offset->type() == Type::i64(), "gep offset must be i64");
  auto I = std::make_unique<Instruction>(Opcode::Gep, Type::ptr());
  I->addOperand(Base);
  I->addOperand(Offset);
  return insert(std::move(I));
}

Value *IRBuilder::gep(Value *Base, std::int64_t Offset) {
  return gep(Base, i64(Offset));
}

Value *IRBuilder::atomicRMW(AtomicOp Op, Value *Ptr, Value *V) {
  auto I = std::make_unique<Instruction>(Opcode::AtomicRMW, V->type());
  I->setImm(static_cast<std::int64_t>(Op));
  I->addOperand(Ptr);
  I->addOperand(V);
  return insert(std::move(I));
}

Value *IRBuilder::mallocOp(Value *SizeBytes) {
  auto I = std::make_unique<Instruction>(Opcode::Malloc, Type::ptr());
  I->addOperand(SizeBytes);
  return insert(std::move(I));
}

Instruction *IRBuilder::freeOp(Value *Ptr) {
  auto I = std::make_unique<Instruction>(Opcode::Free, Type::voidTy());
  I->addOperand(Ptr);
  return insert(std::move(I));
}

Instruction *IRBuilder::br(BasicBlock *Target) {
  auto I = std::make_unique<Instruction>(Opcode::Br, Type::voidTy());
  I->addBlockOperand(Target);
  return insert(std::move(I));
}

Instruction *IRBuilder::condBr(Value *Cond, BasicBlock *TrueBB,
                               BasicBlock *FalseBB) {
  CODESIGN_ASSERT(Cond->type().isI1(), "condbr condition must be i1");
  auto I = std::make_unique<Instruction>(Opcode::CondBr, Type::voidTy());
  I->addOperand(Cond);
  I->addBlockOperand(TrueBB);
  I->addBlockOperand(FalseBB);
  return insert(std::move(I));
}

Instruction *IRBuilder::retVoid() {
  auto I = std::make_unique<Instruction>(Opcode::Ret, Type::voidTy());
  return insert(std::move(I));
}

Instruction *IRBuilder::ret(Value *V) {
  auto I = std::make_unique<Instruction>(Opcode::Ret, Type::voidTy());
  I->addOperand(V);
  return insert(std::move(I));
}

Instruction *IRBuilder::phi(Type Ty) {
  return insert(std::make_unique<Instruction>(Opcode::Phi, Ty));
}

Value *IRBuilder::call(Function *Callee, std::span<Value *const> Args) {
  CODESIGN_ASSERT(Args.size() == Callee->numArgs(),
                  "call argument count mismatch");
  auto I = std::make_unique<Instruction>(Opcode::Call, Callee->returnType());
  I->addOperand(Callee->asValue());
  for (Value *A : Args)
    I->addOperand(A);
  return insert(std::move(I));
}

Value *IRBuilder::callIndirect(Type RetTy, Value *Callee,
                               std::span<Value *const> Args) {
  CODESIGN_ASSERT(Callee->type().isPointer(), "indirect callee must be ptr");
  auto I = std::make_unique<Instruction>(Opcode::Call, RetTy);
  I->addOperand(Callee);
  for (Value *A : Args)
    I->addOperand(A);
  return insert(std::move(I));
}

Value *IRBuilder::threadId() {
  return insert(std::make_unique<Instruction>(Opcode::ThreadId, Type::i32()));
}
Value *IRBuilder::blockId() {
  return insert(std::make_unique<Instruction>(Opcode::BlockId, Type::i32()));
}
Value *IRBuilder::blockDim() {
  return insert(std::make_unique<Instruction>(Opcode::BlockDim, Type::i32()));
}
Value *IRBuilder::gridDim() {
  return insert(std::make_unique<Instruction>(Opcode::GridDim, Type::i32()));
}

Instruction *IRBuilder::barrier(int Id) {
  auto I = std::make_unique<Instruction>(Opcode::Barrier, Type::voidTy());
  I->setImm(Id);
  return insert(std::move(I));
}

Instruction *IRBuilder::alignedBarrier(int Id) {
  auto I =
      std::make_unique<Instruction>(Opcode::AlignedBarrier, Type::voidTy());
  I->setImm(Id);
  return insert(std::move(I));
}

Instruction *IRBuilder::assume(Value *Cond) {
  CODESIGN_ASSERT(Cond->type().isI1(), "assume condition must be i1");
  auto I = std::make_unique<Instruction>(Opcode::Assume, Type::voidTy());
  I->addOperand(Cond);
  return insert(std::move(I));
}

Instruction *IRBuilder::assertCond(Value *Cond, std::string Msg) {
  CODESIGN_ASSERT(Cond->type().isI1(), "assert condition must be i1");
  auto I = std::make_unique<Instruction>(Opcode::AssertFail, Type::voidTy());
  I->addOperand(Cond);
  I->setStr(std::move(Msg));
  return insert(std::move(I));
}

Value *IRBuilder::nativeOp(std::int64_t FnId, Type RetTy,
                           std::span<Value *const> Args, NativeOpFlags Flags) {
  auto I = std::make_unique<Instruction>(Opcode::NativeOp, RetTy);
  I->setImm(FnId);
  I->setNativeFlags(Flags);
  for (Value *A : Args)
    I->addOperand(A);
  return insert(std::move(I));
}

} // namespace codesign::ir
