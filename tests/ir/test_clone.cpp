#include "ir/Clone.hpp"
#include "ir/IRBuilder.hpp"
#include "ir/Verifier.hpp"

#include <gtest/gtest.h>

namespace codesign::ir {
namespace {

/// Build max(a,b) with a diamond CFG + phi.
Function *buildMax(Module &M, const std::string &Name) {
  Function *F = M.createFunction(Name, Type::i32(), {Type::i32(), Type::i32()});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *TakeA = F->createBlock("take_a");
  BasicBlock *TakeB = F->createBlock("take_b");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  Value *Cond = B.cmp(CmpPred::SGT, F->arg(0), F->arg(1));
  B.condBr(Cond, TakeA, TakeB);
  B.setInsertPoint(TakeA);
  B.br(Join);
  B.setInsertPoint(TakeB);
  B.br(Join);
  B.setInsertPoint(Join);
  Instruction *P = B.phi(Type::i32());
  P->addIncoming(F->arg(0), TakeA);
  P->addIncoming(F->arg(1), TakeB);
  B.ret(P);
  return F;
}

TEST(Clone, WholeFunctionWithinModule) {
  Module M;
  Function *Src = buildMax(M, "max");
  Function *Dst = M.createFunction("max.clone", Type::i32(),
                                   {Type::i32(), Type::i32()});
  ValueMap VMap;
  VMap[Src->arg(0)] = Dst->arg(0);
  VMap[Src->arg(1)] = Dst->arg(1);
  ClonedBody Body = cloneBody(*Src, *Dst, VMap, identityResolver(), ".c");

  EXPECT_EQ(Body.Blocks.size(), 4u);
  EXPECT_EQ(Body.Rets.size(), 1u);
  EXPECT_EQ(Dst->instructionCount(), Src->instructionCount());
  EXPECT_TRUE(verifyFunction(*Dst).empty());
  // Clone must reference its own arguments, not the source's.
  for (const auto &BB : Dst->blocks())
    for (const auto &I : BB->instructions())
      for (unsigned Op = 0; Op < I->numOperands(); ++Op) {
        if (auto *A = dynCast<Argument>(I->operand(Op))) {
          EXPECT_EQ(A->parent(), Dst);
        }
      }
}

TEST(Clone, PhiEdgesRemapped) {
  Module M;
  Function *Src = buildMax(M, "max");
  Function *Dst = M.createFunction("d", Type::i32(),
                                   {Type::i32(), Type::i32()});
  ValueMap VMap;
  VMap[Src->arg(0)] = Dst->arg(0);
  VMap[Src->arg(1)] = Dst->arg(1);
  ClonedBody Body = cloneBody(*Src, *Dst, VMap, identityResolver(), "");
  // The phi in the cloned join must reference cloned blocks.
  BasicBlock *Join = Body.Blocks[3];
  Instruction *P = Join->inst(0);
  ASSERT_EQ(P->opcode(), Opcode::Phi);
  for (unsigned I = 0; I < P->numBlockOperands(); ++I)
    EXPECT_EQ(P->blockOperand(I)->parent(), Dst);
}

TEST(Clone, GlobalReferencesSurvive) {
  Module M;
  GlobalVariable *G = M.createGlobal("state", AddrSpace::Shared, 8);
  Function *Src = M.createFunction("touch", Type::voidTy(), {});
  IRBuilder B(M);
  B.setInsertPoint(Src->createBlock("entry"));
  B.store(B.i64(1), G);
  B.retVoid();

  Function *Dst = M.createFunction("touch.clone", Type::voidTy(), {});
  ValueMap VMap;
  cloneBody(*Src, *Dst, VMap, identityResolver(), "");
  // Both functions now use the global.
  EXPECT_EQ(G->numUses(), 2u);
}

TEST(Clone, PayloadFieldsCopied) {
  Module M;
  Function *Src = M.createFunction("payload", Type::voidTy(), {Type::ptr()});
  IRBuilder B(M);
  B.setInsertPoint(Src->createBlock("entry"));
  B.alignedBarrier(7);
  NativeOpFlags Flags;
  Flags.ReadsMemory = false;
  Flags.WritesMemory = true;
  Flags.Divergent = false;
  B.nativeOp(99, Type::voidTy(), {Src->arg(0)}, Flags);
  B.assertCond(B.i1(true), "must hold");
  B.retVoid();

  Function *Dst = M.createFunction("payload.clone", Type::voidTy(),
                                   {Type::ptr()});
  ValueMap VMap;
  VMap[Src->arg(0)] = Dst->arg(0);
  ClonedBody Body = cloneBody(*Src, *Dst, VMap, identityResolver(), "");
  BasicBlock *BB = Body.Entry;
  EXPECT_EQ(BB->inst(0)->imm(), 7);
  EXPECT_EQ(BB->inst(1)->imm(), 99);
  EXPECT_FALSE(BB->inst(1)->nativeFlags().ReadsMemory);
  EXPECT_TRUE(BB->inst(1)->nativeFlags().WritesMemory);
  EXPECT_EQ(BB->inst(2)->str(), "must hold");
}

TEST(Clone, CrossModuleMapsConstantsAndKeepsNames) {
  // Floating-point and undef operands resolve to the destination module's
  // own constants; instruction names carry over.
  Module Src, Dst;
  Function *F = Src.createFunction("f", Type::f64(), {Type::f64()});
  IRBuilder B(Src);
  B.setInsertPoint(F->createBlock("entry"));
  Value *Sum = B.fadd(F->arg(0), B.f64(2.5));
  Sum->setName("sum");
  B.ret(B.select(B.i1(true), Sum, Src.undef(Type::f64())));

  Function *G = Dst.createFunction("f", Type::f64(), {Type::f64()});
  ValueMap VMap;
  VMap[F->arg(0)] = G->arg(0);
  ClonedBody Body = cloneBody(*F, *G, VMap, crossModuleResolver(Dst), "");
  EXPECT_TRUE(verifyFunction(*G).empty());
  const Instruction *NewSum = Body.Entry->inst(0);
  EXPECT_EQ(NewSum->name(), "sum");
  EXPECT_EQ(NewSum->operand(1), Dst.constFP(Type::f64(), 2.5));
  EXPECT_EQ(Body.Entry->inst(1)->operand(2), Dst.undef(Type::f64()));
}

} // namespace
} // namespace codesign::ir
