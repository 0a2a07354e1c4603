#include "ir/IRBuilder.hpp"
#include "ir/Verifier.hpp"

#include <gtest/gtest.h>

namespace codesign::ir {
namespace {

/// Build a small loop: sum 0..n-1, return the sum. Exercises phis, branches
/// and arithmetic, and must verify cleanly.
TEST(Builder, LoopWithPhisVerifies) {
  Module M;
  Function *F = M.createFunction("sum", Type::i64(), {Type::i64()});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");

  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.br(Header);

  B.setInsertPoint(Header);
  Instruction *IV = B.phi(Type::i64());
  Instruction *Acc = B.phi(Type::i64());
  Value *Cond = B.icmpSLT(IV, F->arg(0));
  B.condBr(Cond, Body, Exit);

  B.setInsertPoint(Body);
  Value *NextAcc = B.add(Acc, IV);
  Value *NextIV = B.add(IV, B.i64(1));
  B.br(Header);

  B.setInsertPoint(Exit);
  B.ret(Acc);

  IV->addIncoming(B.i64(0), Entry);
  IV->addIncoming(NextIV, Body);
  Acc->addIncoming(B.i64(0), Entry);
  Acc->addIncoming(NextAcc, Body);

  EXPECT_TRUE(verifyFunction(*F).empty())
      << verifyFunction(*F).front();
  EXPECT_EQ(F->instructionCount(), 9u);
}

TEST(Builder, MemoryOps) {
  Module M;
  Function *F = M.createFunction("mem", Type::i32(), {Type::ptr()});
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  Value *Slot = B.allocaBytes(4, "tmp");
  B.store(B.i32(5), Slot);
  Value *Elt = B.gep(F->arg(0), 8);
  Value *V = B.load(Type::i32(), Elt);
  Value *W = B.load(Type::i32(), Slot);
  B.ret(B.add(V, W));
  EXPECT_TRUE(verifyFunction(*F).empty());
}

TEST(Builder, GpuIntrinsicsAndBarriers) {
  Module M;
  Function *F = M.createFunction("k", Type::voidTy(), {});
  F->addAttr(FnAttr::Kernel);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  Value *Tid = B.threadId();
  Value *Dim = B.blockDim();
  Value *IsMain = B.icmpEQ(Tid, B.sub(Dim, B.i32(1)));
  B.assume(IsMain);
  B.alignedBarrier(3);
  B.barrier(1);
  B.retVoid();
  EXPECT_TRUE(verifyFunction(*F).empty());
  Instruction *AB = BB->inst(5);
  EXPECT_EQ(AB->opcode(), Opcode::AlignedBarrier);
  EXPECT_EQ(AB->imm(), 3);
  EXPECT_TRUE(AB->isBarrier());
}

TEST(Builder, DirectAndIndirectCalls) {
  Module M;
  Function *Callee = M.createFunction("callee", Type::i32(), {Type::i32()});
  {
    IRBuilder B(M);
    B.setInsertPoint(Callee->createBlock("entry"));
    B.ret(Callee->arg(0));
  }
  Function *Caller = M.createFunction("caller", Type::i32(), {Type::ptr()});
  IRBuilder B(M);
  B.setInsertPoint(Caller->createBlock("entry"));
  Value *Direct = B.call(Callee, {B.i32(1)});
  Value *Indirect = B.callIndirect(Type::i32(), Caller->arg(0), {B.i32(2)});
  B.ret(B.add(Direct, Indirect));

  EXPECT_TRUE(verifyModule(M).empty());
  auto *DirectCall = cast<Instruction>(Direct);
  EXPECT_EQ(DirectCall->calledFunction(), Callee);
  auto *IndirectCall = cast<Instruction>(Indirect);
  EXPECT_EQ(IndirectCall->calledFunction(), nullptr);
  EXPECT_EQ(IndirectCall->numCallArgs(), 1u);
}

TEST(Builder, NativeOpCarriesFlags) {
  Module M;
  Function *F = M.createFunction("k", Type::voidTy(), {Type::ptr()});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  NativeOpFlags Flags;
  Flags.ReadsMemory = true;
  Flags.WritesMemory = false;
  Flags.Divergent = false;
  Value *R = B.nativeOp(42, Type::f64(), {F->arg(0)}, Flags);
  B.retVoid();
  auto *N = cast<Instruction>(R);
  EXPECT_EQ(N->imm(), 42);
  EXPECT_FALSE(N->nativeFlags().WritesMemory);
  EXPECT_TRUE(N->nativeFlags().ReadsMemory);
  EXPECT_TRUE(N->mayReadMemory());
  EXPECT_FALSE(N->mayWriteMemory());
}

TEST(Builder, AtomicOps) {
  Module M;
  Function *F = M.createFunction("a", Type::i64(), {Type::ptr()});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  Value *Old = B.atomicRMW(AtomicOp::Add, F->arg(0), B.i64(2));
  B.ret(Old);
  EXPECT_TRUE(verifyFunction(*F).empty());
  EXPECT_EQ(cast<Instruction>(Old)->atomicOp(), AtomicOp::Add);
}

TEST(Builder, SideEffectClassification) {
  Module M;
  Function *F = M.createFunction("c", Type::voidTy(), {Type::ptr()});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  auto *Ld = cast<Instruction>(B.load(Type::i32(), F->arg(0)));
  auto *St = B.store(B.i32(0), F->arg(0));
  auto *Add = cast<Instruction>(B.add(B.i32(1), B.i32(2)));
  auto *Hint = B.assume(B.i1(true));
  B.retVoid();
  EXPECT_FALSE(Ld->hasSideEffects());
  EXPECT_TRUE(Ld->mayReadMemory());
  EXPECT_EQ(Ld->accessSize(), 4u);
  EXPECT_TRUE(Hint->hasSideEffects()) << "DCE must keep assumes";
  EXPECT_TRUE(St->hasSideEffects());
  EXPECT_TRUE(St->mayWriteMemory());
  EXPECT_FALSE(Add->hasSideEffects());
  EXPECT_EQ(St->storedValue(), M.constI32(0));
  EXPECT_EQ(St->pointerOperand(), F->arg(0));
  EXPECT_EQ(St->accessSize(), 4u);
}

} // namespace
} // namespace codesign::ir
