#include "ir/IRBuilder.hpp"
#include "ir/Printer.hpp"

#include <gtest/gtest.h>

namespace codesign::ir {
namespace {

TEST(Printer, FunctionHeaderAndBody) {
  Module M;
  Function *F = M.createFunction("axpy", Type::f64(),
                                 {Type::f64(), Type::f64()});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  Value *R = B.fmul(F->arg(0), F->arg(1));
  B.ret(R);
  std::string Out = printFunction(*F);
  EXPECT_NE(Out.find("define f64 @axpy(f64 %0, f64 %1)"), std::string::npos);
  EXPECT_NE(Out.find("fmul"), std::string::npos);
  EXPECT_NE(Out.find("ret"), std::string::npos);
}

TEST(Printer, DeclarationsPrintAsDeclare) {
  Module M;
  M.createFunction("ext", Type::voidTy(), {Type::i32()});
  std::string Out = printModule(M);
  EXPECT_NE(Out.find("declare void @ext"), std::string::npos);
}

TEST(Printer, KernelAndModeAnnotations) {
  Module M;
  Function *F = M.createFunction("k", Type::voidTy(), {});
  F->addAttr(FnAttr::Kernel);
  F->setExecMode(ExecMode::SPMD);
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.retVoid();
  std::string Out = printFunction(*F);
  EXPECT_NE(Out.find("kernel"), std::string::npos);
  EXPECT_NE(Out.find("exec_mode(spmd)"), std::string::npos);
}

TEST(Printer, GlobalsListedInModuleDump) {
  Module M;
  M.createGlobal("icv_state", AddrSpace::Shared, 48);
  std::string Out = printModule(M);
  EXPECT_NE(Out.find("@icv_state = shared [48 x i8]"), std::string::npos);
}

TEST(Printer, BranchTargetsUseLabels) {
  Module M;
  Function *F = M.createFunction("b", Type::voidTy(), {Type::i1()});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Else = F->createBlock("else");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.condBr(F->arg(0), Then, Else);
  B.setInsertPoint(Then);
  B.retVoid();
  B.setInsertPoint(Else);
  B.retVoid();
  std::string Out = printFunction(*F);
  EXPECT_NE(Out.find("label then, label else"), std::string::npos);
}

TEST(Printer, ConstantsAndGlobalRefs) {
  Module M;
  GlobalVariable *G = M.createGlobal("g", AddrSpace::Global, 8);
  Function *F = M.createFunction("c", Type::voidTy(), {});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.store(B.i64(123), G);
  B.retVoid();
  std::string Out = printFunction(*F);
  EXPECT_NE(Out.find("store 123, @g"), std::string::npos);
}

TEST(Printer, AttributesAtomicsAndHeapOps) {
  Module M;
  GlobalVariable *Table = M.createGlobal("table", AddrSpace::Constant, 8);
  Table->setConstantFlag(true);
  Function *F = M.createFunction("h", Type::voidTy(), {Type::ptr()});
  F->setArgMap(0, MapKind::ToFrom);
  F->addAttr(FnAttr::NoInline);
  F->addAttr(FnAttr::AlwaysInline);
  F->addAttr(FnAttr::Pure);
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  for (AtomicOp Op : {AtomicOp::Add, AtomicOp::Max, AtomicOp::Min,
                      AtomicOp::Exchange})
    B.atomicRMW(Op, F->arg(0), B.load(Type::i64(), Table));
  Value *P = B.mallocOp(B.i64(16));
  B.store(M.undef(Type::i64()), P);
  B.freeOp(P);
  B.retVoid();
  const std::string Out = printModule(M);
  for (const char *Want :
       {"@table = constant [8 x i8] constant",
        "define void @h(ptr %0 map(tofrom)) noinline alwaysinline pure {",
        "atomicrmw i64 add %0", "atomicrmw i64 max %0",
        "atomicrmw i64 min %0", "atomicrmw i64 xchg %0",
        "= malloc ptr 16", "store undef, %", "free %"})
    EXPECT_NE(Out.find(Want), std::string::npos) << Want << "\n" << Out;
}

} // namespace
} // namespace codesign::ir
