//===- tests/vgpu/test_parallel_launch.cpp - Parallel launch engine --------===//
//
// The launch engine's contract: executing teams on N host threads produces
// results (memory, metrics, errors) bit-identical to HostThreads=1 serial
// execution, and cross-team global-memory atomics neither tear nor lose
// updates.
//
//===----------------------------------------------------------------------===//
#include "vgpu/VirtualGPU.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "exec/Backend.hpp"
#include "ir/IRBuilder.hpp"
#include "ir/Verifier.hpp"

namespace codesign::vgpu {
namespace {

using namespace ir;

DeviceConfig withHostThreads(std::uint32_t N) {
  DeviceConfig C;
  C.HostThreads = N;
  return C;
}

/// Kernel: every thread of every team atomically adds (gid+1) into a single
/// global counter — maximum cross-team contention on one word.
void buildAtomicSumKernel(Module &M) {
  Function *K =
      M.createFunction("atomic_sum", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  Value *Tid = B.zext(B.threadId(), Type::i64());
  Value *Bid = B.zext(B.blockId(), Type::i64());
  Value *Dim = B.zext(B.blockDim(), Type::i64());
  Value *Gid = B.add(B.mul(Bid, Dim), Tid);
  B.atomicRMW(AtomicOp::Add, K->arg(0), B.add(Gid, B.i64(1)));
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());
}

TEST(ParallelLaunch, AtomicSumLosesNoUpdates) {
  Module M;
  buildAtomicSumKernel(M);
  VirtualGPU GPU(withHostThreads(4));
  auto Image = GPU.loadImage(M);
  DeviceAddr Counter = GPU.allocate(8);
  const std::uint64_t Zero8[1] = {0};
  GPU.write(Counter, std::span(reinterpret_cast<const std::uint8_t *>(Zero8),
                               8));
  constexpr std::uint32_t Teams = 32, Threads = 64;
  std::uint64_t Args[] = {Counter.Bits};
  LaunchResult R = GPU.launch(*Image, "atomic_sum", Args, Teams, Threads);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::int64_t Sum = 0;
  GPU.read(Counter, std::span(reinterpret_cast<std::uint8_t *>(&Sum), 8));
  const std::int64_t N = std::int64_t(Teams) * Threads;
  EXPECT_EQ(Sum, N * (N + 1) / 2) << "lost atomic updates";
  EXPECT_EQ(R.Metrics.Atomics, static_cast<std::uint64_t>(N));
}

TEST(ParallelLaunch, MetricsBitIdenticalToSerial) {
  constexpr std::uint32_t Teams = 12, Threads = 32;
  auto RunWith = [&](std::uint32_t HostThreads) {
    Module M;
    buildAtomicSumKernel(M);
    VirtualGPU GPU(withHostThreads(HostThreads));
    auto Image = GPU.loadImage(M);
    DeviceAddr Counter = GPU.allocate(8);
    const std::uint64_t Zero8[1] = {0};
    GPU.write(Counter,
              std::span(reinterpret_cast<const std::uint8_t *>(Zero8), 8));
    std::uint64_t Args[] = {Counter.Bits};
    return GPU.launch(*Image, "atomic_sum", Args, Teams, Threads);
  };
  const LaunchResult Serial = RunWith(1);
  const LaunchResult Parallel = RunWith(4);
  ASSERT_TRUE(Serial.Ok) << Serial.Error;
  ASSERT_TRUE(Parallel.Ok) << Parallel.Error;
  const LaunchMetrics &S = Serial.Metrics, &P = Parallel.Metrics;
  EXPECT_EQ(S.KernelCycles, P.KernelCycles);
  EXPECT_EQ(S.DynamicInstructions, P.DynamicInstructions);
  EXPECT_EQ(S.GlobalLoads, P.GlobalLoads);
  EXPECT_EQ(S.GlobalStores, P.GlobalStores);
  EXPECT_EQ(S.SharedLoads, P.SharedLoads);
  EXPECT_EQ(S.SharedStores, P.SharedStores);
  EXPECT_EQ(S.LocalAccesses, P.LocalAccesses);
  EXPECT_EQ(S.Atomics, P.Atomics);
  EXPECT_EQ(S.Barriers, P.Barriers);
  EXPECT_EQ(S.Calls, P.Calls);
  EXPECT_EQ(S.NativeCycles, P.NativeCycles);
  EXPECT_EQ(S.DeviceMallocs, P.DeviceMallocs);
  EXPECT_EQ(S.TeamsPerSM, P.TeamsPerSM);
}

TEST(ParallelLaunch, TrapReportsLowestTeamLikeSerial) {
  // Team-dependent trap: every odd team loads through a null pointer.
  // Serial stops at team 1; the parallel merge must report the same team.
  auto RunWith = [&](std::uint32_t HostThreads) {
    Module M;
    Function *K = M.createFunction("trap_odd", Type::voidTy(), {});
    K->addAttr(FnAttr::Kernel);
    BasicBlock *Entry = K->createBlock("entry");
    BasicBlock *Bad = K->createBlock("bad");
    BasicBlock *Ok = K->createBlock("ok");
    IRBuilder B(M);
    B.setInsertPoint(Entry);
    Value *Odd = B.icmpEQ(B.and_(B.zext(B.blockId(), Type::i64()), B.i64(1)),
                          B.i64(1));
    B.condBr(Odd, Bad, Ok);
    B.setInsertPoint(Bad);
    B.load(Type::i64(), M.nullPtr());
    B.retVoid();
    B.setInsertPoint(Ok);
    B.retVoid();
    VirtualGPU GPU(withHostThreads(HostThreads));
    auto Image = GPU.loadImage(M);
    return GPU.launch(*Image, "trap_odd", {}, /*Teams=*/8, /*Threads=*/4);
  };
  const LaunchResult Serial = RunWith(1);
  const LaunchResult Parallel = RunWith(4);
  ASSERT_FALSE(Serial.Ok);
  ASSERT_FALSE(Parallel.Ok);
  EXPECT_EQ(Serial.Error, Parallel.Error);
  EXPECT_NE(Serial.Error.find("team 1"), std::string::npos) << Serial.Error;
}

TEST(ParallelLaunch, DeviceMallocExhaustionYieldsNullNotAbort) {
  // Kernel: p = malloc(huge); out[0] = (p == null). Every backend allocates
  // through the shared team model.
  Module M;
  Function *K = M.createFunction("oom", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  Value *P = B.mallocOp(B.i64(std::int64_t(1) << 40));
  Value *IsNull = B.icmpEQ(B.ptrToInt(P), B.i64(0));
  B.store(B.zext(IsNull, Type::i64()), K->arg(0));
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());
  for (const std::string &Backend : exec::BackendRegistry::global().names()) {
    SCOPED_TRACE(Backend);
    VirtualGPU GPU(withHostThreads(2));
    ASSERT_TRUE(GPU.setExecBackend(Backend).hasValue());
    auto Image = GPU.loadImage(M);
    DeviceAddr Out = GPU.allocate(8);
    std::uint64_t Args[] = {Out.Bits};
    LaunchResult R = GPU.launch(*Image, "oom", Args, 1, 1);
    ASSERT_TRUE(R.Ok) << R.Error;
    std::uint64_t Flag = 0;
    GPU.read(Out, std::span(reinterpret_cast<std::uint8_t *>(&Flag), 8));
    EXPECT_EQ(Flag, 1u) << "device malloc OOM must return null";
  }
}

TEST(ParallelLaunchDeathTest, ForkedChildLaunchesAfterWorkersStarted) {
  // The executor's workers live in the parent only. A child forked after a
  // parallel launch started them must still run a 64-team launch.
  Module M;
  buildAtomicSumKernel(M);
  VirtualGPU GPU(withHostThreads(4));
  auto Image = GPU.loadImage(M);
  DeviceAddr Counter = GPU.allocate(8);
  constexpr std::uint32_t Teams = 64, Threads = 4;
  std::uint64_t Args[] = {Counter.Bits};
  ASSERT_TRUE(GPU.launch(*Image, "atomic_sum", Args, Teams, Threads).Ok);
  EXPECT_EXIT(
      {
        const std::uint64_t Zero8[1] = {0};
        GPU.write(Counter, std::span(
                               reinterpret_cast<const std::uint8_t *>(Zero8),
                               8));
        const LaunchResult R =
            GPU.launch(*Image, "atomic_sum", Args, Teams, Threads);
        std::int64_t Sum = 0;
        GPU.read(Counter,
                 std::span(reinterpret_cast<std::uint8_t *>(&Sum), 8));
        const std::int64_t N = std::int64_t(Teams) * Threads;
        std::exit(R.Ok && Sum == N * (N + 1) / 2 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace codesign::vgpu
