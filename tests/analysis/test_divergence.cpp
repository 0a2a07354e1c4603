//===- tests/analysis/test_divergence.cpp - Uniformity dataflow oracle ----===//
//
// Hand-built CFGs with known uniformity classifications: uniform loops stay
// uniform, divergent diamonds taint exactly their influence region and
// rejoin at the post-dominator, and divergent values do not taint control
// they never feed.
//
//===----------------------------------------------------------------------===//
#include "analysis/Divergence.hpp"

#include <gtest/gtest.h>

#include "analysis/PostDominators.hpp"
#include "ir/IRBuilder.hpp"

namespace codesign::analysis {
namespace {

using namespace ir;

DivergenceAnalysis analyze(const Function &F) {
  PostDominatorTree PDT(F);
  return DivergenceAnalysis(F, PDT);
}

TEST(Divergence, SeedClassification) {
  Module M;
  Function *F = M.createFunction("f", Type::voidTy(), {Type::i64()});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  Value *Tid = B.threadId();
  Value *Team = B.blockId();
  Value *Dim = B.blockDim();
  B.retVoid();
  DivergenceAnalysis DA = analyze(*F);
  EXPECT_EQ(DA.uniformity(Tid), Uniformity::Divergent);
  EXPECT_EQ(DA.uniformity(Team), Uniformity::Team);
  EXPECT_EQ(DA.uniformity(Dim), Uniformity::League);
  EXPECT_EQ(DA.uniformity(F->arg(0)), Uniformity::Team);
  EXPECT_EQ(DA.uniformity(M.constI64(7)), Uniformity::League);
  EXPECT_TRUE(DA.isDivergent(Tid));
  EXPECT_TRUE(DA.isUniform(Team));
}

TEST(Divergence, MemoryAndNativeOpSeeds) {
  // Constant memory is device-wide; other loads and atomics are not. A
  // native op is team-uniform unless it declares itself divergent.
  Module M;
  GlobalVariable *Table = M.createGlobal("table", AddrSpace::Constant, 8);
  GlobalVariable *Cell = M.createGlobal("cell", AddrSpace::Shared, 8);
  Function *F = M.createFunction("f", Type::voidTy(), {});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  Value *FromTable = B.load(Type::i64(), Table);
  Value *FromCell = B.load(Type::i64(), Cell);
  Value *Old = B.atomicRMW(AtomicOp::Add, Cell, B.i64(1));
  NativeOpFlags Flags;
  Flags.Divergent = false;
  Value *Same = B.nativeOp(1, Type::i64(), {}, Flags);
  Flags.Divergent = true;
  Value *Own = B.nativeOp(2, Type::i64(), {}, Flags);
  B.retVoid();
  // A block no edge reaches is not analyzed: its values keep the default.
  B.setInsertPoint(F->createBlock("dead"));
  Value *DeadTid = B.threadId();
  B.retVoid();
  DivergenceAnalysis DA = analyze(*F);
  EXPECT_EQ(DA.uniformity(DeadTid), Uniformity::League);
  EXPECT_EQ(DA.uniformity(FromTable), Uniformity::League);
  EXPECT_EQ(DA.uniformity(FromCell), Uniformity::Divergent);
  EXPECT_EQ(DA.uniformity(Old), Uniformity::Divergent);
  EXPECT_EQ(DA.uniformity(Same), Uniformity::Team);
  EXPECT_EQ(DA.uniformity(Own), Uniformity::Divergent);
}

TEST(Divergence, ProvenanceNamesEachLink) {
  // Named instructions print with their name, unnamed ones by opcode.
  Module M;
  Function *F = M.createFunction("f", Type::voidTy(), {});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  Value *Tid = B.threadId();
  Value *Wide = B.zext(Tid, Type::i64());
  Wide->setName("wide");
  Value *Sum = B.add(Wide, B.i64(1));
  B.retVoid();
  DivergenceAnalysis DA = analyze(*F);
  EXPECT_EQ(DA.provenanceString(Sum), "add <- zext %wide <- thread.id");
}

TEST(Divergence, UniformLoopStaysUniform) {
  // for (i = 0; i < n; ++i) {} with a team-uniform bound: every value and
  // every block is uniform.
  Module M;
  Function *F = M.createFunction("f", Type::voidTy(), {Type::i64()});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.br(Header);
  B.setInsertPoint(Header);
  Instruction *IV = B.phi(Type::i64());
  Value *Cmp = B.icmpSLT(IV, F->arg(0));
  B.condBr(Cmp, Body, Exit);
  B.setInsertPoint(Body);
  Value *Next = B.add(IV, B.i64(1));
  B.br(Header);
  B.setInsertPoint(Exit);
  B.retVoid();
  IV->addIncoming(B.i64(0), Entry);
  IV->addIncoming(Next, Body);

  DivergenceAnalysis DA = analyze(*F);
  EXPECT_TRUE(DA.isUniform(IV));
  EXPECT_TRUE(DA.isUniform(Cmp));
  EXPECT_TRUE(DA.isUniform(Next));
  for (const auto &BB : F->blocks()) {
    EXPECT_FALSE(DA.isDivergentBlock(BB.get())) << BB->name();
    EXPECT_EQ(DA.divergenceCause(BB.get()), nullptr);
  }
  EXPECT_TRUE(DA.provenance(IV).empty());
}

TEST(Divergence, DivergentDiamondRejoinsAtPostDominator) {
  // if (tid == 0) {...} else {...}; both arms are divergence-guarded, the
  // merge block (the branch's immediate post-dominator) is not, and a phi
  // merging the arms carries a divergent value.
  Module M;
  Function *F = M.createFunction("kern", Type::voidTy(), {});
  F->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Else = F->createBlock("else");
  BasicBlock *Merge = F->createBlock("merge");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  Value *Tid = B.threadId();
  Value *Cond = B.icmpEQ(Tid, B.i32(0));
  B.condBr(Cond, Then, Else);
  B.setInsertPoint(Then);
  B.br(Merge);
  B.setInsertPoint(Else);
  B.br(Merge);
  B.setInsertPoint(Merge);
  Instruction *Phi = B.phi(Type::i64());
  Phi->addIncoming(B.i64(1), Then);
  Phi->addIncoming(B.i64(2), Else);
  Value *AfterJoin = B.add(B.i64(3), B.i64(4));
  B.retVoid();

  DivergenceAnalysis DA = analyze(*F);
  EXPECT_TRUE(DA.isDivergent(Cond));
  EXPECT_TRUE(DA.isDivergentBlock(Then));
  EXPECT_TRUE(DA.isDivergentBlock(Else));
  EXPECT_FALSE(DA.isDivergentBlock(Entry));
  EXPECT_FALSE(DA.isDivergentBlock(Merge)) << "rejoined at post-dominator";
  EXPECT_EQ(DA.divergenceCause(Then), Entry->terminator());
  EXPECT_EQ(DA.divergenceCause(Else), Entry->terminator());
  // The phi merges arms selected by thread id: divergent even though both
  // incoming values are constants. Straight-line values after the join are
  // uniform again.
  EXPECT_TRUE(DA.isDivergent(Phi));
  EXPECT_TRUE(DA.isUniform(AfterJoin));
  // Provenance walks back to the thread-id seed.
  const std::string Chain = DA.provenanceString(Cond);
  EXPECT_NE(Chain.find("icmp"), std::string::npos) << Chain;
  EXPECT_NE(Chain.find("thread.id"), std::string::npos) << Chain;
}

TEST(Divergence, DivergentValueFeedingUniformBranchDoesNotTaintBlocks) {
  // A divergent value exists but the branch condition is team-uniform: no
  // block is divergence-guarded, and the divergent value stays confined.
  Module M;
  Function *F = M.createFunction("kern", Type::voidTy(), {Type::i64()});
  F->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  Value *Tid = B.threadId();
  Value *Widened = B.zext(Tid, Type::i64());
  Value *Cond = B.icmpSLT(F->arg(0), B.i64(5)); // uniform condition
  B.condBr(Cond, Then, Exit);
  B.setInsertPoint(Then);
  B.br(Exit);
  B.setInsertPoint(Exit);
  B.retVoid();

  DivergenceAnalysis DA = analyze(*F);
  EXPECT_TRUE(DA.isDivergent(Tid));
  EXPECT_TRUE(DA.isDivergent(Widened)) << "divergence flows through casts";
  EXPECT_TRUE(DA.isUniform(Cond));
  for (const auto &BB : F->blocks())
    EXPECT_FALSE(DA.isDivergentBlock(BB.get())) << BB->name();
}

TEST(Divergence, NestedDivergenceTaintsInnerRegionOnly) {
  // Uniform outer branch, divergent inner branch: only the inner arms are
  // guarded.
  Module M;
  Function *F = M.createFunction("kern", Type::voidTy(), {Type::i1()});
  F->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Outer = F->createBlock("outer");
  BasicBlock *InnerThen = F->createBlock("inner_then");
  BasicBlock *InnerMerge = F->createBlock("inner_merge");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.condBr(F->arg(0), Outer, Exit); // uniform branch
  B.setInsertPoint(Outer);
  Value *Cond = B.icmpEQ(B.threadId(), B.i32(0));
  B.condBr(Cond, InnerThen, InnerMerge); // divergent branch
  B.setInsertPoint(InnerThen);
  B.br(InnerMerge);
  B.setInsertPoint(InnerMerge);
  B.br(Exit);
  B.setInsertPoint(Exit);
  B.retVoid();

  DivergenceAnalysis DA = analyze(*F);
  EXPECT_FALSE(DA.isDivergentBlock(Entry));
  EXPECT_FALSE(DA.isDivergentBlock(Outer));
  EXPECT_TRUE(DA.isDivergentBlock(InnerThen));
  EXPECT_FALSE(DA.isDivergentBlock(InnerMerge)) << "ipdom of the inner branch";
  EXPECT_FALSE(DA.isDivergentBlock(Exit));
}

TEST(Divergence, EquivalentToDifferential) {
  Module M;
  Function *F = M.createFunction("kern", Type::voidTy(), {Type::i1()});
  F->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *A = F->createBlock("a");
  BasicBlock *Bb = F->createBlock("b");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.condBr(F->arg(0), A, Bb);
  B.setInsertPoint(A);
  B.retVoid();
  B.setInsertPoint(Bb);
  Instruction *Term = B.retVoid();

  DivergenceAnalysis First = analyze(*F);
  EXPECT_TRUE(First.equivalentTo(analyze(*F)))
      << "recomputation over an unchanged function is structurally equal";

  // Mutate: block b now computes a divergent value. A stale cached result
  // must be detected as non-equivalent.
  Bb->erase(Term);
  B.setInsertPoint(Bb);
  B.threadId();
  B.retVoid();
  DivergenceAnalysis Second = analyze(*F);
  EXPECT_FALSE(First.equivalentTo(Second));
  EXPECT_FALSE(Second.equivalentTo(First));
}

} // namespace
} // namespace codesign::analysis
