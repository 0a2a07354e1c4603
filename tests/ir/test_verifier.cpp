#include "ir/IRBuilder.hpp"
#include "ir/Verifier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

namespace codesign::ir {
namespace {

TEST(Verifier, MissingTerminator) {
  Module M;
  Function *F = M.createFunction("f", Type::voidTy(), {});
  F->createBlock("entry"); // left empty
  auto Errors = verifyFunction(*F);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("terminator"), std::string::npos);
}

TEST(Verifier, UseBeforeDefInBlock) {
  Module M;
  Function *F = M.createFunction("f", Type::i32(), {Type::i32()});
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  Value *A = B.add(F->arg(0), F->arg(0));
  Value *C = B.add(A, F->arg(0));
  B.ret(C);
  // Manually move C before A to break ordering.
  auto Owned = BB->detach(cast<Instruction>(C));
  BB->insertAt(0, std::move(Owned));
  auto Errors = verifyFunction(*F);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("use before def"), std::string::npos);
}

TEST(Verifier, DefMustDominateUseAcrossBlocks) {
  Module M;
  Function *F = M.createFunction("f", Type::i32(), {Type::i1(), Type::i32()});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.condBr(F->arg(0), Then, Join);
  B.setInsertPoint(Then);
  Value *OnlyInThen = B.add(F->arg(1), F->arg(1));
  B.br(Join);
  B.setInsertPoint(Join);
  B.ret(OnlyInThen); // invalid: 'then' does not dominate 'join'
  auto Errors = verifyFunction(*F);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("dominate"), std::string::npos);
}

TEST(Verifier, PhiIncomingMustMatchPreds) {
  Module M;
  Function *F = M.createFunction("f", Type::i32(), {Type::i1()});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *A = F->createBlock("a");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.condBr(F->arg(0), A, Join);
  B.setInsertPoint(A);
  B.br(Join);
  B.setInsertPoint(Join);
  Instruction *P = B.phi(Type::i32());
  P->addIncoming(M.constI32(1), Entry); // missing incoming from A
  B.ret(P);
  auto Errors = verifyFunction(*F);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("phi"), std::string::npos);
}

TEST(Verifier, BinopTypeMismatchViaRawConstruction) {
  Module M;
  Function *F = M.createFunction("f", Type::i32(), {Type::i32()});
  BasicBlock *BB = F->createBlock("entry");
  // Bypass the builder to create an ill-typed instruction.
  auto Bad = std::make_unique<Instruction>(Opcode::Add, Type::i32());
  Bad->addOperand(F->arg(0));
  Bad->addOperand(M.constI64(1)); // wrong width
  Instruction *BadPtr = BB->append(std::move(Bad));
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.ret(BadPtr);
  auto Errors = verifyFunction(*F);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("binop"), std::string::npos);
}

TEST(Verifier, CallArgumentCountChecked) {
  Module M;
  Function *Callee = M.createFunction("callee", Type::voidTy(), {Type::i32()});
  Function *F = M.createFunction("f", Type::voidTy(), {});
  BasicBlock *BB = F->createBlock("entry");
  auto Call = std::make_unique<Instruction>(Opcode::Call, Type::voidTy());
  Call->addOperand(Callee->asValue()); // no arguments supplied
  BB->append(std::move(Call));
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.retVoid();
  auto Errors = verifyFunction(*F);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("argument count"), std::string::npos);
}

TEST(Verifier, KernelDeclarationRejectedAtModuleLevel) {
  Module M;
  Function *K = M.createFunction("kern", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  auto Errors = verifyModule(M);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("no body"), std::string::npos);
}

TEST(Verifier, BarrierWithOperandOrResultRejected) {
  Module M;
  Function *F = M.createFunction("f", Type::voidTy(), {Type::i32()});
  BasicBlock *BB = F->createBlock("entry");
  // Bypass the builder: barriers carry no operands and produce no value.
  auto Bad = std::make_unique<Instruction>(Opcode::AlignedBarrier,
                                           Type::voidTy());
  Bad->addOperand(F->arg(0));
  BB->append(std::move(Bad));
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.retVoid();
  auto Errors = verifyFunction(*F);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("barrier"), std::string::npos);
}

TEST(Verifier, BarrierWithNegativeIdRejected) {
  Module M;
  Function *F = M.createFunction("f", Type::voidTy(), {});
  BasicBlock *BB = F->createBlock("entry");
  auto Bad = std::make_unique<Instruction>(Opcode::Barrier, Type::voidTy());
  Bad->setImm(-1);
  BB->append(std::move(Bad));
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.retVoid();
  auto Errors = verifyFunction(*F);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("negative id"), std::string::npos);
}

TEST(Verifier, BarrierInUnreachableBlockRejected) {
  // A barrier nobody can reach is a guaranteed hang for any thread that
  // somehow arrives; the verifier rejects it statically.
  Module M;
  Function *F = M.createFunction("f", Type::voidTy(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Orphan = F->createBlock("orphan"); // no predecessors
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.retVoid();
  B.setInsertPoint(Orphan);
  B.alignedBarrier();
  B.retVoid();
  auto Errors = verifyFunction(*F);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("statically-unreachable"), std::string::npos);
}

TEST(Verifier, ReachableBarrierAccepted) {
  Module M;
  Function *F = M.createFunction("kern", Type::voidTy(), {});
  F->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.barrier(3);
  B.alignedBarrier(7);
  B.retVoid();
  EXPECT_TRUE(verifyFunction(*F).empty());
}

/// Append an unchecked instruction to BB, bypassing the builder's asserts.
Instruction *raw(BasicBlock *BB, Opcode Op, Type Ty,
                 std::initializer_list<Value *> Ops,
                 std::initializer_list<BasicBlock *> Blocks = {}) {
  auto I = std::make_unique<Instruction>(Op, Ty);
  for (Value *V : Ops)
    I->addOperand(V);
  for (BasicBlock *Target : Blocks)
    I->addBlockOperand(Target);
  return BB->append(std::move(I));
}

TEST(Verifier, EveryRuleRejectsItsMalformedModule) {
  // One malformed module per rule; each must report that rule's message.
  // @f(i32 %a, f64 %x, ptr %p) -> i32 and @v() -> void start with an
  // empty entry block; @g(i64) -> i32 is a well-formed callee.
  struct Fn {
    Module &M;
    Function *F, *V, *G;
    BasicBlock *Entry, *VEntry;
    Value *A, *X, *P;
  };
  struct Rule {
    const char *Message;
    std::function<void(Fn &)> Build; ///< leaves @f's entry unterminated
  };
  const std::vector<Rule> Rules = {
      {"(float binop)",
       [](Fn &S) { raw(S.Entry, Opcode::FAdd, Type::f64(), {S.X, S.A}); }},
      {"(icmp)",
       [](Fn &S) { raw(S.Entry, Opcode::ICmp, Type::i1(), {S.A, S.X}); }},
      {"(fcmp)",
       [](Fn &S) { raw(S.Entry, Opcode::FCmp, Type::i1(), {S.A, S.A}); }},
      {"(select)",
       [](Fn &S) {
         raw(S.Entry, Opcode::Select, Type::i32(), {S.A, S.A, S.A});
       }},
      {"(load)",
       [](Fn &S) { raw(S.Entry, Opcode::Load, Type::i32(), {S.A}); }},
      {"(store)",
       [](Fn &S) { raw(S.Entry, Opcode::Store, Type::voidTy(), {S.A, S.A}); }},
      {"(gep)",
       [](Fn &S) { raw(S.Entry, Opcode::Gep, Type::ptr(), {S.P, S.A}); }},
      {"(call (callee))",
       [](Fn &S) { raw(S.Entry, Opcode::Call, Type::i32(), {S.A}); }},
      {"(call (argument type))",
       [](Fn &S) {
         raw(S.Entry, Opcode::Call, Type::i32(), {S.G->asValue(), S.A});
       }},
      {"(call (return type))",
       [](Fn &S) {
         raw(S.Entry, Opcode::Call, Type::i64(),
             {S.G->asValue(), S.M.constI64(1)});
       }},
      {"(assume/assert)",
       [](Fn &S) { raw(S.Entry, Opcode::Assume, Type::voidTy(), {S.A}); }},
      {"(ret (value type mismatch))",
       [](Fn &S) { raw(S.Entry, Opcode::Ret, Type::voidTy(), {S.X}); }},
      {"(ret (void function returns a value))",
       [](Fn &S) { raw(S.VEntry, Opcode::Ret, Type::voidTy(), {S.A}); }},
      {"(br)",
       [](Fn &S) {
         BasicBlock *Next = S.F->createBlock("next");
         raw(S.Entry, Opcode::Br, Type::voidTy(), {S.A}, {Next});
         raw(Next, Opcode::Ret, Type::voidTy(), {S.A});
       }},
      {"(condbr)",
       [](Fn &S) {
         BasicBlock *Next = S.F->createBlock("next");
         raw(S.Entry, Opcode::CondBr, Type::voidTy(), {S.A}, {Next, Next});
         raw(Next, Opcode::Ret, Type::voidTy(), {S.A});
       }},
      {"terminator mid-block",
       [](Fn &S) { raw(S.Entry, Opcode::Ret, Type::voidTy(), {S.A}); }},
      {"phi after non-phi",
       [](Fn &S) {
         raw(S.Entry, Opcode::Add, Type::i32(), {S.A, S.A});
         raw(S.Entry, Opcode::Phi, Type::i32(), {});
       }},
      {"phi value/block count mismatch",
       [](Fn &S) { raw(S.Entry, Opcode::Phi, Type::i32(), {S.A}); }},
      {"operand defined outside this function",
       [](Fn &S) {
         BasicBlock *GEntry = S.G->createBlock("entry");
         Value *Foreign = raw(GEntry, Opcode::Trunc, Type::i32(),
                              {S.G->arg(0)});
         raw(GEntry, Opcode::Ret, Type::voidTy(), {Foreign});
         raw(S.Entry, Opcode::Add, Type::i32(), {Foreign, S.A});
       }},
      {"has a map clause but is not a kernel",
       [](Fn &S) { S.F->setArgMap(2, MapKind::To); }},
      {"argument #0 has a map(from) clause but is not a pointer",
       [](Fn &S) {
         S.F->addAttr(FnAttr::Kernel);
         S.F->setArgMap(0, MapKind::From);
       }},
  };
  for (const Rule &R : Rules) {
    SCOPED_TRACE(R.Message);
    Module M;
    Function *F = M.createFunction(
        "f", Type::i32(), {Type::i32(), Type::f64(), Type::ptr()});
    Function *V = M.createFunction("v", Type::voidTy(), {});
    Function *G = M.createFunction("g", Type::i32(), {Type::i64()});
    Fn S{M, F, V, G, F->createBlock("entry"), V->createBlock("entry"),
         F->arg(0), F->arg(1), F->arg(2)};
    R.Build(S);
    raw(S.Entry, Opcode::Ret, Type::voidTy(), {S.A});
    raw(S.VEntry, Opcode::Ret, Type::voidTy(), {});
    const std::vector<std::string> Errors = verifyModule(M);
    EXPECT_TRUE(std::any_of(Errors.begin(), Errors.end(),
                            [&](const std::string &E) {
                              return E.find(R.Message) != std::string::npos;
                            }))
        << ::testing::PrintToString(Errors);
  }
}

TEST(Verifier, ValidModulePasses) {
  Module M;
  Function *F = M.createFunction("ok", Type::i32(), {Type::i32()});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.ret(B.mul(F->arg(0), B.i32(3)));
  EXPECT_TRUE(verifyModule(M).empty());
}

} // namespace
} // namespace codesign::ir
