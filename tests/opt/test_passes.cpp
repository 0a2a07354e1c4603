//===- tests/opt/test_passes.cpp - Unit tests for individual passes --------===//
#include "opt/Pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>

#include "ir/IRBuilder.hpp"
#include "ir/Verifier.hpp"
#include "opt/AccessAnalysis.hpp"
#include "rt/RuntimeABI.hpp"

namespace codesign::opt {
namespace {

using namespace ir;

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

TEST(ConstantFold, ArithmeticAndCompare) {
  Module M;
  Function *F = M.createFunction("f", Type::i64(), {});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  Value *V = B.add(B.mul(B.i64(6), B.i64(7)), B.i64(0)); // 42
  Value *C = B.icmpSLT(V, B.i64(100));                   // true
  Value *R = B.select(C, V, B.i64(-1));
  B.ret(R);
  runConstantFold(M);
  runDCE(M);
  Instruction *Ret = F->entry()->inst(F->entry()->size() - 1);
  ASSERT_EQ(Ret->opcode(), Opcode::Ret);
  const auto *CI = dynCast<ConstantInt>(Ret->operand(0));
  ASSERT_NE(CI, nullptr);
  EXPECT_EQ(CI->value(), 42);
  EXPECT_EQ(F->entry()->size(), 1u) << "everything else folded + DCE'd";
}

TEST(ConstantFold, LoadFromConstantGlobal) {
  // The compile-time flag mechanism (Sections III-F/III-G): the runtime
  // "reads" @__omp_rtl_* constants via constant propagation.
  Module M;
  GlobalVariable *Flag = M.createGlobal("flag", AddrSpace::Constant, 4);
  Flag->setConstantFlag(true);
  Flag->setScalarInit(3, 4);
  Function *F = M.createFunction("f", Type::i32(), {});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.ret(B.load(Type::i32(), Flag));
  runConstantFold(M);
  const auto *CI =
      dynCast<ConstantInt>(F->entry()->inst(F->entry()->size() - 1)->operand(0));
  ASSERT_NE(CI, nullptr);
  EXPECT_EQ(CI->value(), 3);
}

TEST(ConstantFold, NonConstantGlobalNotFolded) {
  Module M;
  GlobalVariable *G = M.createGlobal("mut", AddrSpace::Global, 4);
  G->setScalarInit(3, 4);
  Function *F = M.createFunction("f", Type::i32(), {});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  Value *L = B.load(Type::i32(), G);
  B.ret(L);
  runConstantFold(M);
  EXPECT_FALSE(
      F->entry()->inst(F->entry()->size() - 1)->operand(0)->isConstant());
}

TEST(ConstantFold, FunctionAddressNullCheck) {
  // The state machine's "fn == null" exit test folds once the work
  // function constant-propagates.
  Module M;
  Function *Work = M.createFunction("work", Type::voidTy(), {});
  Function *F = M.createFunction("f", Type::i1(), {});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  Value *IsNull = B.icmpEQ(B.ptrToInt(Work->asValue()), B.i64(0));
  B.ret(IsNull);
  runConstantFold(M);
  const auto *CI =
      dynCast<ConstantInt>(F->entry()->inst(F->entry()->size() - 1)->operand(0));
  ASSERT_NE(CI, nullptr);
  EXPECT_EQ(CI->value(), 0) << "function addresses are never null";
}

TEST(ConstantFold, IdentitiesWithOneUnknownOperand) {
  // Each case folds @f(i64 %x) -> i64 to %x (ToX) or to a constant. @g is
  // a global, so its address is never null.
  using Build = std::function<Value *(IRBuilder &, Value *, Value *)>;
  struct Case {
    const char *What;
    std::optional<std::int64_t> Folded;
    Build Expr; ///< (builder, %x, @g)
  };
  constexpr std::nullopt_t ToX = std::nullopt;
  const auto Bool = [](IRBuilder &B, Value *C) {
    return B.zext(C, Type::i64());
  };
  const std::vector<Case> Cases = {
      {"x + 0", ToX,
       [](IRBuilder &B, Value *X, Value *) { return B.add(X, B.i64(0)); }},
      {"0 + x", ToX,
       [](IRBuilder &B, Value *X, Value *) { return B.add(B.i64(0), X); }},
      {"x - 0", ToX,
       [](IRBuilder &B, Value *X, Value *) { return B.sub(X, B.i64(0)); }},
      {"x - x", 0, [](IRBuilder &B, Value *X, Value *) { return B.sub(X, X); }},
      {"x * 1", ToX,
       [](IRBuilder &B, Value *X, Value *) { return B.mul(X, B.i64(1)); }},
      {"1 * x", ToX,
       [](IRBuilder &B, Value *X, Value *) { return B.mul(B.i64(1), X); }},
      {"x * 0", 0,
       [](IRBuilder &B, Value *X, Value *) { return B.mul(X, B.i64(0)); }},
      {"x & 0", 0,
       [](IRBuilder &B, Value *X, Value *) { return B.and_(X, B.i64(0)); }},
      {"x & x", ToX,
       [](IRBuilder &B, Value *X, Value *) { return B.and_(X, X); }},
      {"x | 0", ToX,
       [](IRBuilder &B, Value *X, Value *) { return B.or_(X, B.i64(0)); }},
      {"0 | x", ToX,
       [](IRBuilder &B, Value *X, Value *) { return B.or_(B.i64(0), X); }},
      {"x | x", ToX,
       [](IRBuilder &B, Value *X, Value *) { return B.or_(X, X); }},
      {"x ^ x", 0,
       [](IRBuilder &B, Value *X, Value *) { return B.xor_(X, X); }},
      {"x ^ 0", ToX,
       [](IRBuilder &B, Value *X, Value *) { return B.xor_(X, B.i64(0)); }},
      {"x << 0", ToX,
       [](IRBuilder &B, Value *X, Value *) { return B.shl(X, B.i64(0)); }},
      {"x == x", 1,
       [&](IRBuilder &B, Value *X, Value *) {
         return Bool(B, B.icmpEQ(X, X));
       }},
      {"x != x", 0,
       [&](IRBuilder &B, Value *X, Value *) {
         return Bool(B, B.icmpNE(X, X));
       }},
      {"x <s x", 0,
       [&](IRBuilder &B, Value *X, Value *) {
         return Bool(B, B.icmpSLT(X, X));
       }},
      {"(i64)@g != 0", 1,
       [&](IRBuilder &B, Value *, Value *G) {
         return Bool(B, B.icmpNE(B.ptrToInt(G), B.i64(0)));
       }},
      {"@g == null", 0,
       [&](IRBuilder &B, Value *, Value *G) {
         return Bool(B, B.icmpEQ(G, B.nullPtr()));
       }},
      {"null != @g", 1,
       [&](IRBuilder &B, Value *, Value *G) {
         return Bool(B, B.icmpNE(B.nullPtr(), G));
       }},
      {"select(x == 3, x, x)", ToX,
       [](IRBuilder &B, Value *X, Value *) {
         return B.select(B.icmpEQ(X, B.i64(3)), X, X);
       }},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.What);
    Module M;
    GlobalVariable *G = M.createGlobal("g", AddrSpace::Global, 8);
    Function *F = M.createFunction("f", Type::i64(), {Type::i64()});
    IRBuilder B(M);
    B.setInsertPoint(F->createBlock("entry"));
    B.ret(C.Expr(B, F->arg(0), G));
    ASSERT_TRUE(verifyModule(M).empty());
    runConstantFold(M);
    const Value *R = F->entry()->inst(F->entry()->size() - 1)->operand(0);
    if (!C.Folded) {
      EXPECT_EQ(R, F->arg(0));
      continue;
    }
    const auto *CI = dynCast<ConstantInt>(R);
    ASSERT_NE(CI, nullptr);
    EXPECT_EQ(CI->value(), *C.Folded);
  }
}

TEST(ConstantFold, GepOfConstantGepCollapses) {
  Module M;
  Function *F = M.createFunction("f", Type::ptr(), {Type::ptr()});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.ret(B.gep(B.gep(F->arg(0), 8), 16));
  runConstantFold(M);
  const auto *G = dynCast<Instruction>(
      F->entry()->inst(F->entry()->size() - 1)->operand(0));
  ASSERT_NE(G, nullptr);
  ASSERT_EQ(G->opcode(), Opcode::Gep);
  EXPECT_EQ(G->operand(0), F->arg(0));
  const auto *Off = dynCast<ConstantInt>(G->operand(1));
  ASSERT_NE(Off, nullptr);
  EXPECT_EQ(Off->value(), 24);
}

//===----------------------------------------------------------------------===//
// SimplifyCFG
//===----------------------------------------------------------------------===//

TEST(SimplifyCFG, ConstantBranchPrunesPath) {
  Module M;
  Function *F = M.createFunction("f", Type::i32(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Else = F->createBlock("else");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.condBr(B.i1(true), Then, Else);
  B.setInsertPoint(Then);
  B.ret(B.i32(1));
  B.setInsertPoint(Else);
  B.ret(B.i32(2));
  runSimplifyCFG(M);
  // 'else' unreachable and removed; entry merged with 'then'.
  EXPECT_EQ(F->blocks().size(), 1u);
  const auto *CI =
      dynCast<ConstantInt>(F->entry()->inst(F->entry()->size() - 1)->operand(0));
  ASSERT_NE(CI, nullptr);
  EXPECT_EQ(CI->value(), 1);
}

TEST(SimplifyCFG, PhiResolvedOnMerge) {
  Module M;
  Function *F = M.createFunction("f", Type::i32(), {Type::i32()});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Next = F->createBlock("next");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  Value *X = B.add(F->arg(0), B.i32(5));
  B.br(Next);
  B.setInsertPoint(Next);
  Instruction *P = B.phi(Type::i32());
  P->addIncoming(X, Entry);
  B.ret(P);
  runSimplifyCFG(M);
  EXPECT_EQ(F->blocks().size(), 1u);
  EXPECT_TRUE(verifyFunction(*F).empty());
}

TEST(SimplifyCFG, FoldedEdgesLeaveTheirPhisAndDeclarationsAreSkipped) {
  // @g: a constant branch drops the entry -> join edge, so join's phi
  // loses that incoming value and g returns 2. @h: a branch whose two
  // targets agree becomes a plain branch. @ext has no body to simplify.
  Module M;
  M.createFunction("ext", Type::voidTy(), {});
  IRBuilder B(M);
  Function *G = M.createFunction("g", Type::i32(), {});
  BasicBlock *Entry = G->createBlock("entry");
  BasicBlock *Via = G->createBlock("via");
  BasicBlock *Join = G->createBlock("join");
  B.setInsertPoint(Entry);
  B.condBr(B.i1(true), Via, Join);
  B.setInsertPoint(Via);
  B.br(Join);
  B.setInsertPoint(Join);
  Instruction *P = B.phi(Type::i32());
  P->addIncoming(B.i32(1), Entry);
  P->addIncoming(B.i32(2), Via);
  B.ret(P);
  Function *H = M.createFunction("h", Type::i32(), {Type::i1()});
  BasicBlock *HEntry = H->createBlock("entry");
  BasicBlock *Same = H->createBlock("same");
  B.setInsertPoint(HEntry);
  B.condBr(H->arg(0), Same, Same);
  B.setInsertPoint(Same);
  B.ret(B.i32(3));
  ASSERT_TRUE(verifyModule(M).empty());
  runSimplifyCFG(M);
  EXPECT_TRUE(verifyModule(M).empty());
  for (Function *F : {G, H}) {
    SCOPED_TRACE(F->name());
    ASSERT_EQ(F->blocks().size(), 1u);
    const auto *CI = dynCast<ConstantInt>(
        F->entry()->inst(F->entry()->size() - 1)->operand(0));
    ASSERT_NE(CI, nullptr);
    EXPECT_EQ(CI->value(), F == G ? 2 : 3);
  }
}

//===----------------------------------------------------------------------===//
// DCE
//===----------------------------------------------------------------------===//

TEST(DCE, RemovesDeadFunctionsAndGlobals) {
  Module M;
  GlobalVariable *DeadG = M.createGlobal("dead_state", AddrSpace::Shared, 64);
  Function *DeadF = M.createFunction("unused_feature", Type::voidTy(), {});
  DeadF->addAttr(FnAttr::Internal);
  IRBuilder B(M);
  B.setInsertPoint(DeadF->createBlock("entry"));
  B.store(B.i64(1), DeadG); // the global is used only by the dead function
  B.retVoid();
  Function *K = M.createFunction("kern", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  B.setInsertPoint(K->createBlock("entry"));
  B.retVoid();

  runDCE(M);
  EXPECT_EQ(M.findFunction("unused_feature"), nullptr)
      << "unused runtime features are statically pruned (Figure 1)";
  EXPECT_EQ(M.findGlobal("dead_state"), nullptr)
      << "their state goes with them (the SMem wins)";
  EXPECT_NE(M.findFunction("kern"), nullptr);
}

TEST(DCE, SpentAssumesRemoved) {
  Module M;
  Function *F = M.createFunction("f", Type::voidTy(), {});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.assume(B.i1(true));                     // spent
  B.assertCond(B.i1(true), "always holds"); // spent
  B.retVoid();
  runDCE(M);
  EXPECT_EQ(F->entry()->size(), 1u);
}

TEST(DCE, UnresolvedAssumeKept) {
  Module M;
  Function *F = M.createFunction("f", Type::voidTy(), {Type::i1()});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.assume(F->arg(0));
  B.retVoid();
  runDCE(M);
  EXPECT_EQ(F->entry()->size(), 2u) << "unconsumed assumptions stay";
  runStripAssumes(M);
  EXPECT_EQ(F->entry()->size(), 1u) << "release stripping removes them";
}

//===----------------------------------------------------------------------===//
// Inliner
//===----------------------------------------------------------------------===//

TEST(Inliner, InlinesAlwaysInlineAndRespectsNoInline) {
  Module M;
  IRBuilder B(M);
  Function *Yes = M.createFunction("yes", Type::i64(), {Type::i64()});
  Yes->addAttr(FnAttr::AlwaysInline);
  Yes->addAttr(FnAttr::Internal);
  B.setInsertPoint(Yes->createBlock("entry"));
  B.ret(B.mul(Yes->arg(0), B.i64(3)));
  Function *No = M.createFunction("no", Type::i64(), {Type::i64()});
  No->addAttr(FnAttr::NoInline);
  No->addAttr(FnAttr::Internal);
  B.setInsertPoint(No->createBlock("entry"));
  B.ret(B.add(No->arg(0), B.i64(1)));

  Function *K = M.createFunction("kern", Type::i64(), {Type::i64()});
  K->addAttr(FnAttr::Kernel);
  B.setInsertPoint(K->createBlock("entry"));
  Value *A = B.call(Yes, {K->arg(0)});
  Value *C = B.call(No, {A});
  B.ret(C);

  runInliner(M);
  EXPECT_TRUE(verifyModule(M).empty());
  unsigned Calls = 0;
  for (const auto &BB : K->blocks())
    for (const auto &I : BB->instructions())
      if (I->opcode() == Opcode::Call) {
        ++Calls;
        EXPECT_EQ(I->calledFunction(), No);
      }
  EXPECT_EQ(Calls, 1u) << "only the NoInline (legacy-runtime-style) call "
                          "survives";
}

TEST(Inliner, MultipleReturnsGetPhi) {
  Module M;
  IRBuilder B(M);
  Function *Abs = M.createFunction("abs", Type::i64(), {Type::i64()});
  Abs->addAttr(FnAttr::AlwaysInline);
  Abs->addAttr(FnAttr::Internal);
  BasicBlock *E = Abs->createBlock("entry");
  BasicBlock *Neg = Abs->createBlock("neg");
  BasicBlock *Pos = Abs->createBlock("pos");
  B.setInsertPoint(E);
  B.condBr(B.icmpSLT(Abs->arg(0), B.i64(0)), Neg, Pos);
  B.setInsertPoint(Neg);
  B.ret(B.sub(B.i64(0), Abs->arg(0)));
  B.setInsertPoint(Pos);
  B.ret(Abs->arg(0));

  Function *K = M.createFunction("kern", Type::i64(), {Type::i64()});
  K->addAttr(FnAttr::Kernel);
  B.setInsertPoint(K->createBlock("entry"));
  B.ret(B.call(Abs, {K->arg(0)}));

  runInliner(M);
  ASSERT_TRUE(verifyModule(M).empty());
  // Semantic check via structure: one phi merges the two returns.
  unsigned Phis = 0;
  for (const auto &BB : K->blocks())
    for (const auto &I : BB->instructions())
      Phis += I->opcode() == Opcode::Phi;
  EXPECT_EQ(Phis, 1u);
}

//===----------------------------------------------------------------------===//
// Load forwarding (Section IV-B)
//===----------------------------------------------------------------------===//

/// Shared scaffold: an internal shared global, kernel with store/barrier/
/// assume/load sequences.
struct ForwardingFixture {
  Module M;
  IRBuilder B{M};
  GlobalVariable *State = nullptr;
  Function *K = nullptr;

  ForwardingFixture() {
    State = M.createGlobal("state", AddrSpace::Shared, 16);
    K = M.createFunction("kern", Type::i32(), {Type::i32()});
    K->addAttr(FnAttr::Kernel);
    B.setInsertPoint(K->createBlock("entry"));
  }

  Value *loadState(std::int64_t Off = 0) {
    return B.load(Type::i32(), B.gep(State, Off));
  }
};

TEST(LoadForwarding, ZeroInitRuleFoldsDynamicIndexLoads) {
  // The thread-states-array deduction (IV-B1): zero-initialized object,
  // all writes are zeros => loads at UNKNOWN offsets fold to zero.
  ForwardingFixture Fx;
  auto &B = Fx.B;
  Value *DynOff = B.mul(B.zext(B.threadId(), Type::i64()), B.i64(4));
  B.store(B.i32(0), B.gep(Fx.State, DynOff)); // dynamic-offset zero store
  Value *L = B.load(Type::i32(), B.gep(Fx.State, DynOff));
  B.ret(L);
  runLoadForwarding(Fx.M, OptOptions{});
  Instruction *Ret = Fx.K->entry()->inst(Fx.K->entry()->size() - 1);
  const auto *CI = dynCast<ConstantInt>(Ret->operand(0));
  ASSERT_NE(CI, nullptr);
  EXPECT_EQ(CI->value(), 0);
}

TEST(LoadForwarding, ZeroRuleBlockedByNonZeroWrite) {
  ForwardingFixture Fx;
  auto &B = Fx.B;
  B.store(B.i32(7), B.gep(Fx.State, 4)); // non-zero write anywhere
  Value *L = Fx.loadState(0);
  B.ret(L);
  runLoadForwarding(Fx.M, OptOptions{});
  EXPECT_FALSE(
      Fx.K->entry()->inst(Fx.K->entry()->size() - 1)->operand(0)->isConstant());
}

TEST(LoadForwarding, AssumedContentAfterBroadcast) {
  // Figure 8b: conditional write + aligned barrier + assume => later loads
  // know the content.
  ForwardingFixture Fx;
  auto &B = Fx.B;
  GlobalVariable *Dummy = Fx.M.createGlobal("dummy", AddrSpace::Shared, 8);
  Value *IsMain = B.icmpEQ(B.threadId(), B.i32(0));
  Value *Target = B.select(IsMain, B.gep(Fx.State, std::int64_t{0}),
                           static_cast<Value *>(Dummy));
  B.store(B.i32(5), Target);
  B.alignedBarrier();
  B.assume(B.icmpEQ(Fx.loadState(0), B.i32(5)));
  Value *L = Fx.loadState(0); // must fold to 5
  B.ret(L);
  runLoadForwarding(Fx.M, OptOptions{});
  const auto *CI = dynCast<ConstantInt>(
      Fx.K->entry()->inst(Fx.K->entry()->size() - 1)->operand(0));
  ASSERT_NE(CI, nullptr);
  EXPECT_EQ(CI->value(), 5);
}

TEST(LoadForwarding, ConditionalWriteAloneDoesNotForward) {
  // Without the assume, the Figure 7b conditional write must NOT forward
  // (the written location is unknown; paper IV-B3).
  ForwardingFixture Fx;
  auto &B = Fx.B;
  GlobalVariable *Dummy = Fx.M.createGlobal("dummy", AddrSpace::Shared, 8);
  Value *IsMain = B.icmpEQ(B.threadId(), B.i32(0));
  Value *Target = B.select(IsMain, B.gep(Fx.State, std::int64_t{0}),
                           static_cast<Value *>(Dummy));
  B.store(B.i32(5), Target);
  B.alignedBarrier();
  Value *L = Fx.loadState(0);
  B.ret(L);
  runLoadForwarding(Fx.M, OptOptions{});
  EXPECT_FALSE(
      Fx.K->entry()->inst(Fx.K->entry()->size() - 1)->operand(0)->isConstant());
}

TEST(LoadForwarding, InterferingStoreBetweenFactAndLoadBlocks) {
  ForwardingFixture Fx;
  auto &B = Fx.B;
  B.store(B.i32(5), B.gep(Fx.State, std::int64_t{0}));
  B.alignedBarrier();
  B.assume(B.icmpEQ(Fx.loadState(0), B.i32(5)));
  B.store(B.i32(9), B.gep(Fx.State, std::int64_t{0})); // clobber
  Value *L = Fx.loadState(0);
  B.ret(L);
  runLoadForwarding(Fx.M, OptOptions{});
  Value *RetVal =
      Fx.K->entry()->inst(Fx.K->entry()->size() - 1)->operand(0);
  if (const auto *CI = dynCast<ConstantInt>(RetVal)) {
    EXPECT_EQ(CI->value(), 9) << "if folded, it must be the clobber value";
  }
}

TEST(LoadForwarding, SharedStoreWithoutBarrierNotForwarded) {
  // A plain store to shared memory with no aligned barrier before the load
  // cannot be forwarded cross-thread (unless all stores agree).
  ForwardingFixture Fx;
  auto &B = Fx.B;
  Value *Tid = B.threadId();
  B.store(Tid, B.gep(Fx.State, std::int64_t{0})); // divergent value!
  Value *L = Fx.loadState(0);
  B.ret(L);
  runLoadForwarding(Fx.M, OptOptions{});
  EXPECT_FALSE(isa<Instruction>(
                   Fx.K->entry()->inst(Fx.K->entry()->size() - 1)->operand(0))
                   ? false
                   : Fx.K->entry()
                         ->inst(Fx.K->entry()->size() - 1)
                         ->operand(0)
                         ->isConstant());
  // The load must still be a load (not replaced by the divergent Tid).
  const auto *RetOp = dynCast<Instruction>(
      Fx.K->entry()->inst(Fx.K->entry()->size() - 1)->operand(0));
  ASSERT_NE(RetOp, nullptr);
  EXPECT_EQ(RetOp->opcode(), Opcode::Load);
}

TEST(LoadForwarding, UniformValueForwardedAcrossBarrier) {
  // IV-B4: blockDim is team-invariant, so a broadcast store of it forwards.
  ForwardingFixture Fx;
  auto &B = Fx.B;
  Value *Dim = B.blockDim();
  B.store(Dim, B.gep(Fx.State, std::int64_t{0}));
  B.alignedBarrier();
  Value *L = Fx.loadState(0);
  B.ret(L);
  runLoadForwarding(Fx.M, OptOptions{});
  EXPECT_EQ(Fx.K->entry()->inst(Fx.K->entry()->size() - 1)->operand(0), Dim);
}

TEST(LoadForwarding, UniformPhiForwardedAcrossBarrier) {
  // A phi joining two team-uniform values under a uniform branch is itself
  // uniform (analysis::DivergenceAnalysis), so its broadcast forwards too.
  ForwardingFixture Fx;
  auto &B = Fx.B;
  BasicBlock *Entry = Fx.K->entry();
  BasicBlock *Then = Fx.K->createBlock("then");
  BasicBlock *Join = Fx.K->createBlock("join");
  B.condBr(B.icmpEQ(Fx.K->arg(0), B.i32(0)), Then, Join);
  B.setInsertPoint(Then);
  Value *Dim = B.blockDim();
  B.br(Join);
  B.setInsertPoint(Join);
  Instruction *P = B.phi(Type::i32());
  P->addIncoming(Dim, Then);
  P->addIncoming(Fx.K->arg(0), Entry);
  B.store(P, B.gep(Fx.State, std::int64_t{0}));
  B.alignedBarrier();
  Value *L = Fx.loadState(0);
  B.ret(L);
  ASSERT_TRUE(verifyModule(Fx.M).empty());
  runLoadForwarding(Fx.M, OptOptions{});
  EXPECT_EQ(Join->inst(Join->size() - 1)->operand(0), P);
}

TEST(LoadForwarding, OneConstantEverywhereForwardsWithoutBarrier) {
  // Every write of the shared word stores 5, so every race outcome reads
  // 5: no broadcast barrier is needed. Zero-initialized state that is
  // never written reads as 0.0 at any type.
  ForwardingFixture Fx;
  auto &B = Fx.B;
  B.store(B.i32(5), B.gep(Fx.State, std::int64_t{0}));
  GlobalVariable *Other = Fx.M.createGlobal("other", AddrSpace::Shared, 8);
  auto *Conv =
      cast<Instruction>(B.fptosi(B.load(Type::f64(), Other), Type::i32()));
  B.store(Conv, B.gep(Fx.State, 8));
  B.ret(Fx.loadState(0));
  runLoadForwarding(Fx.M, OptOptions{});
  const auto *CI = dynCast<ConstantInt>(
      Fx.K->entry()->inst(Fx.K->entry()->size() - 1)->operand(0));
  ASSERT_NE(CI, nullptr);
  EXPECT_EQ(CI->value(), 5);
  const auto *Zero = dynCast<ConstantFP>(Conv->operand(0));
  ASSERT_NE(Zero, nullptr);
  EXPECT_EQ(Zero->value(), 0.0);
}

TEST(LoadForwarding, InvariantPropDisableKeepsLoad) {
  ForwardingFixture Fx;
  auto &B = Fx.B;
  Value *Dim = B.blockDim();
  B.store(Dim, B.gep(Fx.State, std::int64_t{0}));
  B.alignedBarrier();
  Value *L = Fx.loadState(0);
  B.ret(L);
  OptOptions O;
  O.EnableInvariantProp = false; // IV-B4 ablation
  runLoadForwarding(Fx.M, O);
  EXPECT_NE(Fx.K->entry()->inst(Fx.K->entry()->size() - 1)->operand(0), Dim);
}

TEST(LoadForwarding, AllocaForwardingIsSequential) {
  // Thread-private memory needs no barriers.
  Module M;
  IRBuilder B(M);
  Function *K = M.createFunction("kern", Type::i64(), {Type::i64()});
  K->addAttr(FnAttr::Kernel);
  B.setInsertPoint(K->createBlock("entry"));
  Value *Slot = B.allocaBytes(8);
  B.store(K->arg(0), Slot);
  Value *L = B.load(Type::i64(), Slot);
  B.ret(L);
  runLoadForwarding(M, OptOptions{});
  EXPECT_EQ(K->entry()->inst(K->entry()->size() - 1)->operand(0), K->arg(0));
}

TEST(AccessAnalysis, ComparesAndFreesKeepAnObjectAndJoinsWiden) {
  // A compare or free of the pointer touches no memory. Two offsets that
  // meet in one select widen to an unknown, conditional location.
  Module M;
  Function *F = M.createFunction("f", Type::i64(), {Type::i1()});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  Value *P = B.mallocOp(B.i64(16));
  Value *Either =
      B.select(F->arg(0), B.gep(P, std::int64_t{0}), B.gep(P, 8));
  Value *L = B.load(Type::i64(), Either);
  B.icmpEQ(P, B.nullPtr());
  B.freeOp(P);
  B.ret(L);
  AccessAnalysis AA(*F, /*CollectAssumes=*/false);
  const ObjectInfo *O = AA.objectFor(P);
  ASSERT_NE(O, nullptr);
  EXPECT_TRUE(O->Analyzable);
  EXPECT_TRUE(std::any_of(O->Accesses.begin(), O->Accesses.end(),
                          [&](const MemAccess &A) {
                            return A.I == L && !A.OffsetKnown &&
                                   A.Conditional;
                          }));
}

//===----------------------------------------------------------------------===//
// Globalization elimination (Section IV-A2)
//===----------------------------------------------------------------------===//

/// @k(ptr %out) with one 8-byte __kmpc_alloc_shared; Use adds the uses of
/// the allocation, and a matching __kmpc_free_shared closes the function.
struct GlobalizedFixture {
  Module M;
  IRBuilder B{M};
  Function *K = nullptr;
  Instruction *Alloc = nullptr;
  RemarkCollector Remarks;

  explicit GlobalizedFixture(
      const std::function<void(GlobalizedFixture &)> &Use) {
    Function *AllocFn = M.createFunction(std::string(rt::AllocSharedName),
                                         Type::ptr(), {Type::i64()});
    Function *FreeFn = M.createFunction(std::string(rt::FreeSharedName),
                                        Type::voidTy(),
                                        {Type::ptr(), Type::i64()});
    K = M.createFunction("k", Type::voidTy(), {Type::ptr()});
    K->addAttr(FnAttr::Kernel);
    B.setInsertPoint(K->createBlock("entry"));
    Alloc = cast<Instruction>(B.call(AllocFn, {B.i64(8)}));
    Use(*this);
    B.call(FreeFn, {Alloc, B.i64(8)});
    B.retVoid();
  }

  bool run() {
    OptOptions O;
    O.Obs.Remarks = &Remarks;
    return runGlobalizationElim(M, O, /*AllowTeamScratch=*/true);
  }
};

TEST(GlobalizationElim, AtomicsAndComparesStayThreadPrivate) {
  GlobalizedFixture Fx([](GlobalizedFixture &Fx) {
    Fx.B.atomicRMW(AtomicOp::Add, Fx.Alloc, Fx.B.i64(1));
    Fx.B.store(Fx.B.zext(Fx.B.icmpEQ(Fx.Alloc, Fx.B.nullPtr()), Type::i64()),
               Fx.K->arg(0));
  });
  EXPECT_TRUE(Fx.run());
  EXPECT_EQ(Fx.Remarks.filtered(RemarkKind::Passed).size(), 1u);
  EXPECT_EQ(Fx.K->entry()->inst(0)->opcode(), Opcode::Alloca);
}

TEST(GlobalizationElim, EscapingOrOpaqueUsesKeepTheAllocation) {
  // The pointer as an atomic's operand escapes to memory; a ptrtoint is an
  // opaque use. Neither is demoted, and neither block is leader-guarded.
  for (const auto &Use : std::vector<std::function<void(GlobalizedFixture &)>>{
           [](GlobalizedFixture &Fx) {
             Fx.B.atomicRMW(AtomicOp::Exchange, Fx.K->arg(0), Fx.Alloc);
           },
           [](GlobalizedFixture &Fx) {
             Fx.B.store(Fx.B.ptrToInt(Fx.Alloc), Fx.K->arg(0));
           }}) {
    GlobalizedFixture Fx(Use);
    EXPECT_FALSE(Fx.run());
    EXPECT_EQ(Fx.Remarks.filtered(RemarkKind::Missed).size(), 1u);
  }
}

TEST(DeadStoreElim, RemovesWriteOnlyState) {
  ForwardingFixture Fx;
  auto &B = Fx.B;
  B.store(B.i32(1), B.gep(Fx.State, std::int64_t{0}));
  B.store(B.i32(2), B.gep(Fx.State, 4));
  B.ret(B.i32(0));
  runDeadStoreElim(Fx.M, OptOptions{});
  runDCE(Fx.M);
  EXPECT_EQ(Fx.K->entry()->size(), 1u) << "write-only state disappears";
  EXPECT_EQ(Fx.M.findGlobal("state"), nullptr)
      << "and the shared global with it (the SMem win)";
}

TEST(DeadStoreElim, KeepsStoresWithReaders) {
  ForwardingFixture Fx;
  auto &B = Fx.B;
  B.store(Fx.K->arg(0), B.gep(Fx.State, std::int64_t{0}));
  B.alignedBarrier();
  Value *L = Fx.loadState(0);
  B.ret(L);
  const std::size_t Before = Fx.K->entry()->size();
  runDeadStoreElim(Fx.M, OptOptions{});
  EXPECT_EQ(Fx.K->entry()->size(), Before);
}

//===----------------------------------------------------------------------===//
// Barrier elimination (Section IV-D)
//===----------------------------------------------------------------------===//

TEST(BarrierElim, ConsecutiveAlignedBarriersCollapse) {
  Module M;
  IRBuilder B(M);
  Function *K = M.createFunction("kern", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  B.setInsertPoint(K->createBlock("entry"));
  B.alignedBarrier(); // redundant with the implicit entry barrier
  Value *Slot = B.allocaBytes(8);
  B.store(B.i64(1), Slot); // thread-local: does not block merging
  B.alignedBarrier();      // redundant
  B.store(B.i64(2), K->arg(0)); // global store: blocks
  B.alignedBarrier();           // meaningful (publishes the store)...
  B.retVoid();                  // ...but the kernel exit is itself a barrier
  runBarrierElim(M, OptOptions{});
  unsigned Barriers = 0;
  for (const auto &I : K->entry()->instructions())
    Barriers += I->isBarrier();
  EXPECT_EQ(Barriers, 0u);
}

TEST(BarrierElim, GlobalLoadBlocksElimination) {
  // Section VII: a load from non-thread-local memory pins the barrier.
  Module M;
  IRBuilder B(M);
  Function *K = M.createFunction("kern", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  B.setInsertPoint(K->createBlock("entry"));
  B.load(Type::i64(), K->arg(0));
  B.alignedBarrier();
  B.load(Type::i64(), K->arg(0));
  B.retVoid();
  runBarrierElim(M, OptOptions{});
  unsigned Barriers = 0;
  for (const auto &I : K->entry()->instructions())
    Barriers += I->isBarrier();
  EXPECT_EQ(Barriers, 1u);
}

TEST(BarrierElim, UnalignedBarriersNeverRemoved) {
  // "Non-aligned barriers might synchronize with threads that diverged
  // earlier" — only aligned ones are trivially removable.
  Module M;
  IRBuilder B(M);
  Function *K = M.createFunction("kern", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  B.setInsertPoint(K->createBlock("entry"));
  B.barrier(1);
  B.barrier(2);
  B.retVoid();
  runBarrierElim(M, OptOptions{});
  unsigned Barriers = 0;
  for (const auto &I : K->entry()->instructions())
    Barriers += I->isBarrier();
  EXPECT_EQ(Barriers, 2u);
}

TEST(BarrierElim, DivergentTrailingBarrierNotRemoved) {
  // A trailing aligned barrier in a block guarded by a divergent branch is
  // NOT exit-aligned: the threads that skipped the block never arrive, so
  // "eliminating" it against the implicit kernel-exit barrier would be
  // miscompilation. The pass must consult the divergence analysis and
  // refuse.
  Module M;
  IRBuilder B(M);
  Function *K = M.createFunction("kern", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *Fin = K->createBlock("fin");
  BasicBlock *Skip = K->createBlock("skip");
  B.setInsertPoint(Entry);
  Value *Cond = B.icmpEQ(B.threadId(), B.i32(0));
  B.condBr(Cond, Fin, Skip);
  B.setInsertPoint(Fin);
  B.alignedBarrier();
  B.retVoid();
  B.setInsertPoint(Skip);
  B.retVoid();
  EXPECT_FALSE(runBarrierElim(M, OptOptions{}));
  unsigned Barriers = 0;
  for (const auto &I : Fin->instructions())
    Barriers += I->isBarrier();
  EXPECT_EQ(Barriers, 1u) << "divergence-guarded barrier must survive";
}

TEST(BarrierElim, UniformTrailingBarrierStillRemoved) {
  // The same shape under a *uniform* branch is safe: every thread takes the
  // same arm, so the trailing barrier merges with the kernel exit.
  Module M;
  IRBuilder B(M);
  Function *K = M.createFunction("kern", Type::voidTy(), {Type::i1()});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *Fin = K->createBlock("fin");
  BasicBlock *Skip = K->createBlock("skip");
  B.setInsertPoint(Entry);
  B.condBr(K->arg(0), Fin, Skip);
  B.setInsertPoint(Fin);
  B.alignedBarrier();
  B.retVoid();
  B.setInsertPoint(Skip);
  B.retVoid();
  EXPECT_TRUE(runBarrierElim(M, OptOptions{}));
  unsigned Barriers = 0;
  for (const auto &I : Fin->instructions())
    Barriers += I->isBarrier();
  EXPECT_EQ(Barriers, 0u);
}

TEST(BarrierElim, DisabledByOption) {
  Module M;
  IRBuilder B(M);
  Function *K = M.createFunction("kern", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  B.setInsertPoint(K->createBlock("entry"));
  B.alignedBarrier();
  B.retVoid();
  OptOptions O;
  O.EnableBarrierElim = false;
  EXPECT_FALSE(runBarrierElim(M, O));
}

} // namespace
} // namespace codesign::opt
