#include "vgpu/VirtualGPU.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "exec/Backend.hpp"
#include "ir/IRBuilder.hpp"
#include "ir/Verifier.hpp"

namespace codesign::vgpu {
namespace {

using namespace ir;

TEST(Safety, CrossThreadLocalAccessCaughtInDebug) {
  // Thread 0 publishes a pointer to its *local* (stack) variable through
  // shared memory; another thread dereferences it. On a real GPU this reads
  // garbage — it is the exact bug OpenMP variable globalization prevents
  // (paper Section IV-A2). The debug execution must flag it.
  Module M;
  GlobalVariable *Slot = M.createGlobal("escape", AddrSpace::Shared, 8);
  Function *K = M.createFunction("leak", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *Pub = K->createBlock("pub");
  BasicBlock *Join = K->createBlock("join");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  Value *Tid = B.threadId();
  Value *Mine = B.allocaBytes(8, "local_var");
  B.store(B.i64(7), Mine);
  B.condBr(B.icmpEQ(Tid, B.i32(0)), Pub, Join);
  B.setInsertPoint(Pub);
  B.store(Mine, Slot);
  B.br(Join);
  B.setInsertPoint(Join);
  B.barrier();
  Value *Stolen = B.load(Type::ptr(), Slot);
  Value *V = B.load(Type::i64(), Stolen); // thread != 0 reads thread 0's stack
  B.store(V, K->arg(0));
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());

  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  DeviceAddr Buf = GPU.allocate(8);
  std::uint64_t Args[] = {Buf.Bits};
  LaunchResult R = GPU.launch(*Image, "leak", Args, 1, 4);
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("globalized"), std::string::npos) << R.Error;
}

TEST(Safety, AssertFailTrapsInDebugOnly) {
  Module M;
  Function *K = M.createFunction("asserting", Type::voidTy(), {Type::i64()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.assertCond(B.icmpEQ(K->arg(0), B.i64(1)), "argument must be one");
  B.retVoid();

  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  std::uint64_t Bad[] = {std::uint64_t(2)};
  LaunchResult R = GPU.launch(*Image, "asserting", Bad, 1, 2);
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("argument must be one"), std::string::npos);

  std::uint64_t Good[] = {std::uint64_t(1)};
  EXPECT_TRUE(GPU.launch(*Image, "asserting", Good, 1, 2).Ok);

  // Release mode: the failed check is skipped entirely (the optimizer would
  // have removed it; the interpreter models the same policy).
  GPU.setDebugChecks(false);
  EXPECT_TRUE(GPU.launch(*Image, "asserting", Bad, 1, 2).Ok);
}

TEST(Safety, ViolatedAssumeCaughtInDebug) {
  // The paper (Section III-G): assumptions "are implicitly checked in debug
  // runs to verify correctness".
  Module M;
  Function *K = M.createFunction("assuming", Type::voidTy(), {Type::i64()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.assume(B.icmpSLT(K->arg(0), B.i64(10)));
  B.retVoid();
  for (const std::string &Backend : exec::BackendRegistry::global().names()) {
    SCOPED_TRACE(Backend);
    VirtualGPU GPU;
    ASSERT_TRUE(GPU.setExecBackend(Backend).hasValue());
    auto Image = GPU.loadImage(M);
    std::uint64_t Bad[] = {std::uint64_t(50)};
    LaunchResult R = GPU.launch(*Image, "assuming", Bad, 1, 1);
    ASSERT_FALSE(R.Ok);
    EXPECT_EQ(R.Error, "thread 0 of team 0: compiler assumption violated at "
                       "runtime (in @assuming, block 'entry')");
    std::uint64_t Good[] = {std::uint64_t(5)};
    EXPECT_TRUE(GPU.launch(*Image, "assuming", Good, 1, 1).Ok);
  }
}

TEST(Safety, NullDereferenceTraps) {
  // A load and an atomic through null, on every backend.
  Module M;
  IRBuilder B(M);
  Function *Load = M.createFunction("nullderef", Type::voidTy(), {});
  Load->addAttr(FnAttr::Kernel);
  B.setInsertPoint(Load->createBlock("entry"));
  B.load(Type::i64(), B.nullPtr());
  B.retVoid();
  Function *Atomic = M.createFunction("nullatomic", Type::voidTy(), {});
  Atomic->addAttr(FnAttr::Kernel);
  B.setInsertPoint(Atomic->createBlock("entry"));
  B.atomicRMW(AtomicOp::Add, B.nullPtr(), B.i64(1));
  B.retVoid();
  for (const std::string &Backend : exec::BackendRegistry::global().names()) {
    SCOPED_TRACE(Backend);
    VirtualGPU GPU;
    ASSERT_TRUE(GPU.setExecBackend(Backend).hasValue());
    auto Image = GPU.loadImage(M);
    for (const char *Kernel : {"nullderef", "nullatomic"}) {
      LaunchResult R = GPU.launch(*Image, Kernel, {}, 1, 1);
      ASSERT_FALSE(R.Ok) << Kernel;
      EXPECT_EQ(R.Error, "thread 0 of team 0: null pointer dereference");
    }
  }
}

TEST(Safety, DivisionByZeroTraps) {
  Module M;
  Function *K = M.createFunction("div0", Type::voidTy(), {Type::i64()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.sdiv(B.i64(1), K->arg(0));
  B.retVoid();
  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  std::uint64_t Args[] = {std::uint64_t(0)};
  LaunchResult R = GPU.launch(*Image, "div0", Args, 1, 1);
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("division by zero"), std::string::npos);
}

TEST(Safety, RunawayLoopHitsInstructionBudget) {
  Module M;
  Function *K = M.createFunction("spin", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *Loop = K->createBlock("loop");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.br(Loop);
  B.setInsertPoint(Loop);
  B.br(Loop);

  DeviceConfig Cfg;
  Cfg.MaxDynamicInstPerThread = 10000;
  VirtualGPU GPU(Cfg);
  auto Image = GPU.loadImage(M);
  LaunchResult R = GPU.launch(*Image, "spin", {}, 1, 1);
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

TEST(Safety, LaunchValidation) {
  Module M;
  Function *K = M.createFunction("k", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  Function *NotKernel = M.createFunction("plain", Type::voidTy(), {});
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.retVoid();
  B.setInsertPoint(NotKernel->createBlock("entry"));
  B.retVoid();
  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  EXPECT_FALSE(GPU.launch(*Image, "plain", {}, 1, 1).Ok);
  EXPECT_FALSE(GPU.launch(*Image, "missing", {}, 1, 1).Ok);
  EXPECT_FALSE(GPU.launch(*Image, "k", {}, 0, 1).Ok);
  EXPECT_FALSE(GPU.launch(*Image, "k", {}, 1, 1 << 20).Ok);
  std::uint64_t Args[] = {std::uint64_t(1)};
  EXPECT_FALSE(GPU.launch(*Image, "k", Args, 1, 1).Ok)
      << "argument count mismatch";
  EXPECT_TRUE(GPU.launch(*Image, "k", {}, 1, 1).Ok);
}

} // namespace
} // namespace codesign::vgpu
