//===- tests/vgpu/test_barriers.cpp - Barrier semantics on every backend ---===//
//
// Each scenario runs on the device's configured backend (Barriers.*: the
// default, or whatever CODESIGN_EXEC_BACKEND selects) and on each backend
// pinned explicitly (BarriersOnBackend.*/<backend>). The rendezvous is the
// shared team model's, so outputs, trap messages and barrier counts agree
// everywhere; the native backend charges no ALU or memory cycles, so cycle
// checks apply to the interpreting backends only.
//
//===----------------------------------------------------------------------===//
#include "vgpu/VirtualGPU.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ir/IRBuilder.hpp"
#include "ir/Verifier.hpp"

namespace codesign::vgpu {
namespace {

using namespace ir;

/// Pin GPU to Backend; empty keeps the configured default.
void pin(VirtualGPU &GPU, std::string_view Backend) {
  if (!Backend.empty())
    CODESIGN_ASSERT(GPU.setExecBackend(Backend).hasValue(),
                    "bad backend name in test");
}

bool chargesCycles(std::string_view Backend) { return Backend != "native"; }

void broadcastThroughShared(std::string_view Backend) {
  // Thread 0 writes a value to shared memory; after an aligned barrier all
  // threads read it — the broadcast idiom of the paper's Figure 7a.
  Module M;
  GlobalVariable *State = M.createGlobal("state", AddrSpace::Shared, 8);
  Function *K = M.createFunction("bcast", Type::voidTy(),
                                 {Type::ptr(), Type::i64()});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *WriteBB = K->createBlock("write");
  BasicBlock *JoinBB = K->createBlock("join");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  Value *Tid = B.threadId();
  B.condBr(B.icmpEQ(Tid, B.i32(0)), WriteBB, JoinBB);
  B.setInsertPoint(WriteBB);
  B.store(K->arg(1), State);
  B.br(JoinBB);
  B.setInsertPoint(JoinBB);
  B.barrier(); // unaligned: threads arrive from different blocks
  Value *V = B.load(Type::i64(), State);
  // out[bid * T + tid] = v: teams run on concurrent host threads, so each
  // writes its own slice.
  Value *Gid = B.add(B.mul(B.zext(B.blockId(), Type::i64()),
                           B.zext(B.blockDim(), Type::i64())),
                     B.zext(Tid, Type::i64()));
  B.store(V, B.gep(K->arg(0), B.mul(Gid, B.i64(8))));
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());

  VirtualGPU GPU;
  pin(GPU, Backend);
  auto Image = GPU.loadImage(M);
  constexpr std::uint32_t Teams = 3, T = 32;
  DeviceAddr Buf = GPU.allocate(Teams * T * 8);
  std::uint64_t Args[] = {Buf.Bits, 4242};
  LaunchResult R = GPU.launch(*Image, "bcast", Args, Teams, T);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Metrics.Barriers, Teams) << "one rendezvous per team";
  std::vector<std::uint8_t> Raw(Teams * T * 8);
  GPU.read(Buf, Raw);
  for (std::uint32_t I = 0; I < Teams * T; ++I) {
    std::int64_t V;
    std::memcpy(&V, Raw.data() + I * 8, 8);
    EXPECT_EQ(V, 4242) << "thread " << I;
  }
}

void sharedStateIsPerTeam(std::string_view Backend) {
  // Each team's main thread writes its team id; threads must observe their
  // own team's value, never another team's.
  Module M;
  GlobalVariable *State = M.createGlobal("state", AddrSpace::Shared, 8);
  Function *K = M.createFunction("perteam", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *WriteBB = K->createBlock("write");
  BasicBlock *JoinBB = K->createBlock("join");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  Value *Tid = B.threadId();
  Value *Bid = B.blockId();
  B.condBr(B.icmpEQ(Tid, B.i32(0)), WriteBB, JoinBB);
  B.setInsertPoint(WriteBB);
  B.store(B.zext(Bid, Type::i64()), State);
  B.br(JoinBB);
  B.setInsertPoint(JoinBB);
  B.barrier();
  Value *V = B.load(Type::i64(), State);
  // out[bid * T + tid] = v
  Value *Dim = B.zext(B.blockDim(), Type::i64());
  Value *Idx = B.add(B.mul(B.zext(Bid, Type::i64()), Dim),
                     B.zext(Tid, Type::i64()));
  B.store(V, B.gep(K->arg(0), B.mul(Idx, B.i64(8))));
  B.retVoid();

  VirtualGPU GPU;
  pin(GPU, Backend);
  auto Image = GPU.loadImage(M);
  constexpr std::uint32_t Teams = 5, T = 16;
  DeviceAddr Buf = GPU.allocate(Teams * T * 8);
  std::uint64_t Args[] = {Buf.Bits};
  LaunchResult R = GPU.launch(*Image, "perteam", Args, Teams, T);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::vector<std::uint8_t> Raw(Teams * T * 8);
  GPU.read(Buf, Raw);
  for (std::uint32_t Team = 0; Team < Teams; ++Team)
    for (std::uint32_t I = 0; I < T; ++I) {
      std::int64_t V;
      std::memcpy(&V, Raw.data() + (Team * T + I) * 8, 8);
      EXPECT_EQ(V, Team) << "team " << Team << " thread " << I;
    }
}

void clockSynchronizesAtRendezvous(std::string_view Backend) {
  // One slow thread (does extra global loads) delays everyone: the kernel
  // time must reflect the slowest arrival plus barrier cost. The last
  // thread returns before the barrier; the rendezvous of a plain barrier
  // releases the others without it.
  Module M;
  Function *K = M.createFunction("slowpoke", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *Stay = K->createBlock("stay");
  BasicBlock *Slow = K->createBlock("slow");
  BasicBlock *Join = K->createBlock("join");
  BasicBlock *Leave = K->createBlock("leave");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  Value *Tid = B.threadId();
  B.condBr(B.icmpEQ(Tid, B.i32(7)), Leave, Stay);
  B.setInsertPoint(Leave);
  B.retVoid();
  B.setInsertPoint(Stay);
  B.condBr(B.icmpEQ(Tid, B.i32(0)), Slow, Join);
  B.setInsertPoint(Slow);
  // 10 dependent global loads.
  Value *P = K->arg(0);
  for (int I = 0; I < 10; ++I) {
    Value *L = B.load(Type::i64(), P);
    P = B.gep(K->arg(0), B.and_(L, B.i64(0)));
  }
  B.br(Join);
  B.setInsertPoint(Join);
  B.barrier();
  B.retVoid();

  VirtualGPU GPU;
  pin(GPU, Backend);
  auto Image = GPU.loadImage(M);
  DeviceAddr Buf = GPU.allocate(64);
  std::vector<std::uint8_t> Zero(64, 0);
  GPU.write(Buf, Zero);
  std::uint64_t Args[] = {Buf.Bits};
  LaunchResult R = GPU.launch(*Image, "slowpoke", Args, 1, 8);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Metrics.Barriers, 1u);
  if (!chargesCycles(GPU.execBackend()))
    return;
  const std::uint64_t MinExpected =
      10ULL * GPU.config().Costs.GlobalAccess + GPU.config().Costs.BarrierCost;
  EXPECT_GE(R.Metrics.KernelCycles, MinExpected)
      << "every thread must wait for the slow one";
}

void alignedBarrierMisalignmentDetectedInDebug(std::string_view Backend) {
  // Threads diverge on thread id and hit *different* aligned barriers —
  // invalid, and the debug execution must catch it (paper Section III-G).
  Module M;
  Function *K = M.createFunction("misaligned", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *A = K->createBlock("a");
  BasicBlock *Bb = K->createBlock("b");
  BasicBlock *Join = K->createBlock("join");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.condBr(B.icmpEQ(B.threadId(), B.i32(0)), A, Bb);
  B.setInsertPoint(A);
  B.alignedBarrier(1);
  B.br(Join);
  B.setInsertPoint(Bb);
  B.alignedBarrier(2);
  B.br(Join);
  B.setInsertPoint(Join);
  B.retVoid();

  VirtualGPU GPU; // DebugChecks on by default
  pin(GPU, Backend);
  auto Image = GPU.loadImage(M);
  LaunchResult R = GPU.launch(*Image, "misaligned", {}, 1, 4);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "team 0: aligned barrier reached with unaligned threads");

  // Release execution does not verify the invariant; the rendezvous still
  // completes under team-wide semantics.
  GPU.setDebugChecks(false);
  LaunchResult R2 = GPU.launch(*Image, "misaligned", {}, 1, 4);
  EXPECT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(R2.Metrics.Barriers, 1u);
}

void stateMachinePattern(std::string_view Backend) {
  // A minimal generic-mode state machine: workers loop {barrier; load fn;
  // exit if null; call; barrier}, the main thread publishes one parallel
  // region then terminates the machine. This is the structure the new
  // runtime emits and SPMDization later removes.
  Module M;
  GlobalVariable *Slot = M.createGlobal("workfn", AddrSpace::Shared, 8);
  GlobalVariable *ArgSlot = M.createGlobal("workarg", AddrSpace::Shared, 8);

  Function *Work = M.createFunction("work_item", Type::voidTy(),
                                    {Type::ptr()});
  Work->addAttr(FnAttr::Internal);
  IRBuilder B(M);
  B.setInsertPoint(Work->createBlock("entry"));
  Value *Tid64 = B.zext(B.threadId(), Type::i64());
  B.store(B.add(Tid64, B.i64(100)),
          B.gep(Work->arg(0), B.mul(Tid64, B.i64(8))));
  B.retVoid();

  Function *K = M.createFunction("machine", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  K->setExecMode(ExecMode::Generic);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *WorkerLoop = K->createBlock("worker_loop");
  BasicBlock *WorkerExec = K->createBlock("worker_exec");
  BasicBlock *WorkerDone = K->createBlock("worker_done");
  BasicBlock *Main = K->createBlock("main");
  B.setInsertPoint(Entry);
  Value *Tid = B.threadId();
  Value *IsMain = B.icmpEQ(Tid, B.sub(B.blockDim(), B.i32(1)));
  B.condBr(IsMain, Main, WorkerLoop);

  B.setInsertPoint(WorkerLoop);
  B.barrier(1); // wait for work
  Value *Fn = B.load(Type::ptr(), Slot);
  B.condBr(B.icmpEQ(B.ptrToInt(Fn), B.i64(0)), WorkerDone, WorkerExec);
  B.setInsertPoint(WorkerExec);
  Value *Arg = B.load(Type::ptr(), ArgSlot);
  B.callIndirect(Type::voidTy(), Fn, {Arg});
  B.barrier(2); // join
  B.br(WorkerLoop);
  B.setInsertPoint(WorkerDone);
  B.retVoid();

  // Each team's workers write their own slice of the output.
  constexpr std::uint32_t Teams = 2, T = 9; // 8 workers + 1 main
  B.setInsertPoint(Main);
  B.store(B.gep(K->arg(0), B.mul(B.zext(B.blockId(), Type::i64()),
                                 B.i64(T * 8))),
          ArgSlot);
  B.store(Work->asValue(), Slot);
  B.barrier(1); // release workers
  B.barrier(2); // join
  B.store(B.i64(0), B.intToPtr(B.ptrToInt(Slot))); // terminate: null fn
  B.barrier(1);
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());

  VirtualGPU GPU;
  pin(GPU, Backend);
  auto Image = GPU.loadImage(M);
  DeviceAddr Buf = GPU.allocate(Teams * T * 8);
  std::vector<std::uint8_t> Zero(Teams * T * 8, 0);
  GPU.write(Buf, Zero);
  std::uint64_t Args[] = {Buf.Bits};
  LaunchResult R = GPU.launch(*Image, "machine", Args, Teams, T);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Metrics.Barriers, Teams * 3u) << "release, join, terminate";
  std::vector<std::uint8_t> Raw(Teams * T * 8);
  GPU.read(Buf, Raw);
  for (std::uint32_t Team = 0; Team < Teams; ++Team)
    for (std::uint32_t I = 0; I + 1 < T; ++I) { // workers only
      std::int64_t V;
      std::memcpy(&V, Raw.data() + (Team * T + I) * 8, 8);
      EXPECT_EQ(V, static_cast<std::int64_t>(I + 100))
          << "team " << Team << " worker " << I;
    }
}

/// The shared static's initializer in recycledTeamState's kernel.
constexpr std::int64_t RecycleInit = 0x5eed;

/// Every launch of one run of recycledTeamState's kernel, in order.
std::vector<LaunchResult> runRecycleLaunches(
    std::string_view Backend, std::uint32_t HostThreads,
    std::vector<std::vector<std::uint8_t>> &Buffers) {
  // Each lane records three reads into out[(bid * dim + tid) * 3 + 0..2]:
  // the shared static `init`, a shared word past the statics, and its first
  // alloca'd word. A fresh team reads RecycleInit, 0 and 0. After a barrier
  // the lane overwrites all three with a team- and lane-specific marker,
  // which no later team that inherits this team's storage may see.
  Module M;
  GlobalVariable *Init = M.createGlobal("init", AddrSpace::Shared, 8);
  Init->setScalarInit(static_cast<std::uint64_t>(RecycleInit), 8);
  Function *K = M.createFunction("recycle", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  Value *Local = B.allocaBytes(8);
  Value *Tid = B.zext(B.threadId(), Type::i64());
  Value *Bid = B.zext(B.blockId(), Type::i64());
  // Shared word 1 + tid + 2 * (teams - bid): every team grows the shared
  // region further than the next one does, over the words it wrote.
  Value *Word = B.add(B.add(B.i64(1), Tid),
                      B.mul(B.i64(2), B.sub(B.zext(B.gridDim(), Type::i64()),
                                            Bid)));
  Value *Far = B.gep(Init, B.mul(Word, B.i64(8)));
  Value *Lane = B.add(B.mul(Bid, B.zext(B.blockDim(), Type::i64())), Tid);
  Value *Out = B.gep(K->arg(0), B.mul(Lane, B.i64(24)));
  B.store(B.load(Type::i64(), Init), Out);
  B.store(B.load(Type::i64(), Far), B.gep(Out, 8));
  B.store(B.load(Type::i64(), Local), B.gep(Out, 16));
  B.barrier();
  Value *Marker = B.add(B.mul(Bid, B.i64(1000)), B.add(Tid, B.i64(1)));
  B.store(Marker, Init);
  B.store(Marker, Far);
  B.store(Marker, Local);
  B.retVoid();
  EXPECT_TRUE(verifyModule(M).empty());

  DeviceConfig Config;
  Config.HostThreads = HostThreads;
  VirtualGPU GPU(Config);
  pin(GPU, Backend);
  auto Image = GPU.loadImage(M);
  // The second launch's teams have fewer threads than the first's, the
  // third's more than the second's. Each launch has more teams than a
  // four-worker pool, so pool threads run several teams each as well.
  const std::pair<std::uint32_t, std::uint32_t> Shapes[] = {
      {8, 8}, {6, 4}, {9, 7}};
  std::vector<LaunchResult> Results;
  for (const auto &[Teams, T] : Shapes) {
    const std::uint64_t Bytes = std::uint64_t(Teams) * T * 24;
    const DeviceAddr Buf = GPU.allocate(Bytes);
    std::uint64_t Args[] = {Buf.Bits};
    Results.push_back(GPU.launch(*Image, "recycle", Args, Teams, T));
    Buffers.emplace_back(Bytes);
    GPU.read(Buf, Buffers.back());
  }
  return Results;
}

void expectSameLaunch(const LaunchResult &A, const LaunchResult &B,
                      const std::string &What) {
  EXPECT_EQ(A.Metrics.KernelCycles, B.Metrics.KernelCycles) << What;
  EXPECT_EQ(A.Metrics.DynamicInstructions, B.Metrics.DynamicInstructions)
      << What;
  EXPECT_EQ(A.Metrics.SharedLoads, B.Metrics.SharedLoads) << What;
  EXPECT_EQ(A.Metrics.SharedStores, B.Metrics.SharedStores) << What;
  EXPECT_EQ(A.Metrics.LocalAccesses, B.Metrics.LocalAccesses) << What;
  EXPECT_EQ(A.Metrics.Barriers, B.Metrics.Barriers) << What;
  EXPECT_EQ(A.Profile.Teams, B.Profile.Teams) << What;
  EXPECT_EQ(A.Profile.OpCounts, B.Profile.OpCounts) << What;
  EXPECT_EQ(A.Profile.SharedBytesRead, B.Profile.SharedBytesRead) << What;
  EXPECT_EQ(A.Profile.SharedBytesWritten, B.Profile.SharedBytesWritten)
      << What;
  EXPECT_EQ(A.Profile.GlobalBytesWritten, B.Profile.GlobalBytesWritten)
      << What;
  EXPECT_EQ(A.Profile.BarrierWaitCycles, B.Profile.BarrierWaitCycles) << What;
  EXPECT_EQ(A.Profile.Teams, B.Profile.Teams) << What;
  EXPECT_EQ(A.Profile.TeamCyclesTotal, B.Profile.TeamCyclesTotal) << What;
}

void recycledTeamState(std::string_view Backend) {
  // Lane arrays, shared arenas and frame stacks are recycled across the
  // teams one host thread runs. With HostThreads = 1 the caller runs every
  // team of every launch and inherits all of it; the default pool runs
  // several teams per worker. Either way each team must see fresh state.
  std::vector<std::vector<std::uint8_t>> Serial, Pooled;
  const std::vector<LaunchResult> S = runRecycleLaunches(Backend, 1, Serial);
  const std::vector<LaunchResult> P = runRecycleLaunches(Backend, 0, Pooled);
  ASSERT_EQ(S.size(), P.size());
  for (std::size_t L = 0; L < S.size(); ++L) {
    ASSERT_TRUE(S[L].Ok) << S[L].Error;
    ASSERT_TRUE(P[L].Ok) << P[L].Error;
    const std::string What = "launch " + std::to_string(L);
    for (std::size_t I = 0; I < Serial[L].size() / 24; ++I) {
      std::int64_t Seen[3];
      std::memcpy(Seen, Serial[L].data() + I * 24, 24);
      EXPECT_EQ(Seen[0], RecycleInit) << What << ", lane " << I;
      EXPECT_EQ(Seen[1], 0) << What << ", lane " << I << ": shared";
      EXPECT_EQ(Seen[2], 0) << What << ", lane " << I << ": local";
    }
    EXPECT_EQ(Serial[L], Pooled[L]) << What;
    expectSameLaunch(S[L], P[L], What + ", serial vs. pooled");
  }
  // The interpreting backends also agree with the tree walker on cycles
  // and profiles (the native backend charges no ALU or memory cycles).
  if (!chargesCycles(Backend) || Backend == "tree")
    return;
  std::vector<std::vector<std::uint8_t>> TreeBuffers;
  const std::vector<LaunchResult> Tree =
      runRecycleLaunches("tree", 1, TreeBuffers);
  EXPECT_EQ(TreeBuffers, Serial);
  for (std::size_t L = 0; L < S.size(); ++L)
    expectSameLaunch(Tree[L], S[L], "launch " + std::to_string(L) +
                                        ", tree vs. " + std::string(Backend));
}

TEST(Barriers, BroadcastThroughShared) { broadcastThroughShared({}); }
TEST(Barriers, SharedStateIsPerTeam) { sharedStateIsPerTeam({}); }
TEST(Barriers, ClockSynchronizesAtRendezvous) {
  clockSynchronizesAtRendezvous({});
}
TEST(Barriers, AlignedBarrierMisalignmentDetectedInDebug) {
  alignedBarrierMisalignmentDetectedInDebug({});
}
TEST(Barriers, StateMachinePattern) { stateMachinePattern({}); }

class BarriersOnBackend : public ::testing::TestWithParam<const char *> {};

TEST_P(BarriersOnBackend, BroadcastThroughShared) {
  broadcastThroughShared(GetParam());
}
TEST_P(BarriersOnBackend, SharedStateIsPerTeam) {
  sharedStateIsPerTeam(GetParam());
}
TEST_P(BarriersOnBackend, ClockSynchronizesAtRendezvous) {
  clockSynchronizesAtRendezvous(GetParam());
}
TEST_P(BarriersOnBackend, AlignedBarrierMisalignmentDetectedInDebug) {
  alignedBarrierMisalignmentDetectedInDebug(GetParam());
}
TEST_P(BarriersOnBackend, StateMachinePattern) {
  stateMachinePattern(GetParam());
}
TEST_P(BarriersOnBackend, RecycledTeamStateNeverLeaks) {
  recycledTeamState(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BarriersOnBackend,
                         ::testing::Values("tree", "bytecode", "native"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });

} // namespace
} // namespace codesign::vgpu
