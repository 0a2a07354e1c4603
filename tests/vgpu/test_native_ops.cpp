//===- tests/vgpu/test_native_ops.cpp - The native-op contract everywhere --===//
//
// A registered native op runs against the one vgpu::NativeCtx, through
// TeamModel::callNative, under every backend. These cases pin the parts of
// that contract the proxy apps do not reach:
//
//   - loadBlockF64 / storeBlockF64 charge, count and bound exactly like
//     Count scalar loadF64 / storeF64 calls: twin payloads, one using the
//     block paths and one the scalar calls, must leave identical memory,
//     metrics, profiles and trap verdicts on a global, a shared and a local
//     range, and on a global range that runs past the arena's end (where
//     the block paths take the scalar fallback);
//   - a non-void op that sets no result traps the lane with one message on
//     every backend.
//
// Tree and bytecode also agree on every charge; the native backend models
// no ALU cycles, so across backends it is held to memory, verdicts and the
// payload's own compute charge.
//
//===----------------------------------------------------------------------===//
#include "vgpu/VirtualGPU.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "ir/IRBuilder.hpp"
#include "ir/Verifier.hpp"

namespace codesign::vgpu {
namespace {

using namespace ir;

constexpr const char *AllBackends[] = {"tree", "bytecode", "native"};

void pin(VirtualGPU &GPU, const char *Backend) {
  CODESIGN_ASSERT(GPU.setExecBackend(Backend).hasValue(),
                  "bad backend name in test");
}

/// Where a block-contract case points each lane's f64 range.
enum class Range { Global, Shared, Local, PastEnd };

const char *rangeName(Range R) {
  switch (R) {
  case Range::Global:
    return "global";
  case Range::Shared:
    return "shared";
  case Range::Local:
    return "local";
  case Range::PastEnd:
    return "past-end";
  }
  return "?";
}

constexpr std::uint32_t Teams = 2, Threads = 3;
constexpr std::uint32_t Count = 5;              ///< f64 elements per lane
constexpr std::int64_t SliceBytes = Count * 8;  ///< one lane's range
constexpr std::uint64_t PastEndBytes = 16;      ///< in-range part of PastEnd

/// The value a lane stores at element I: distinct per element and lane.
double valueFor(std::uint32_t Team, std::uint32_t Tid, std::uint32_t I) {
  return Team * 1000.0 + Tid * 10.0 + I + 0.25;
}

/// The payload twins: store Count values at the range argument, load them
/// back, charge Count compute cycles and return the loads' weighted sum.
/// Block uses the block paths, the other twin Count scalar calls each way.
template <bool Block> void roundTrip(NativeCtx &Ctx) {
  const DeviceAddr A = Ctx.argPtr(0);
  const auto N = static_cast<std::uint32_t>(Ctx.argI64(1));
  CODESIGN_ASSERT(N == Count, "range length mismatch");
  double In[Count], Out[Count];
  for (std::uint32_t I = 0; I < Count; ++I)
    In[I] = valueFor(Ctx.teamId(), Ctx.threadId(), I);
  if constexpr (Block) {
    Ctx.storeBlockF64(A, In, N);
    Ctx.loadBlockF64(A, Out, N);
  } else {
    for (std::uint32_t I = 0; I < N; ++I)
      Ctx.storeF64(A.advance(std::int64_t{8} * I), In[I]);
    for (std::uint32_t I = 0; I < N; ++I)
      Out[I] = Ctx.loadF64(A.advance(std::int64_t{8} * I));
  }
  double Sum = 0;
  for (std::uint32_t I = 0; I < Count; ++I)
    Sum += Out[I] * (I + 1);
  Ctx.chargeCycles(N);
  Ctx.setResultF64(Sum);
}

/// Kernel k(out, base): each lane points op OpId at its range and stores
/// the op's result to out[bid * dim + tid].
void buildKernel(Module &M, std::int64_t OpId, Range Where) {
  GlobalVariable *Smem =
      M.createGlobal("smem", AddrSpace::Shared, Threads * SliceBytes);
  Function *K =
      M.createFunction("k", Type::voidTy(), {Type::ptr(), Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  Value *Tid = B.zext(B.threadId(), Type::i64());
  Value *Gid = B.add(B.mul(B.zext(B.blockId(), Type::i64()),
                           B.zext(B.blockDim(), Type::i64())),
                     Tid);
  Value *At = nullptr;
  switch (Where) {
  case Range::Global:
    At = B.gep(K->arg(1), B.mul(Gid, B.i64(SliceBytes)));
    break;
  case Range::Shared:
    At = B.gep(Smem, B.mul(Tid, B.i64(SliceBytes)));
    break;
  case Range::Local:
    At = B.allocaBytes(SliceBytes);
    break;
  case Range::PastEnd:
    At = K->arg(1);
    break;
  }
  Value *R = B.nativeOp(OpId, Type::f64(), {At, B.i64(Count)},
                        NativeOpFlags{});
  B.store(R, B.gep(K->arg(0), B.mul(Gid, B.i64(8))));
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());
}

struct TwinRun {
  LaunchResult LR;
  std::vector<std::uint8_t> Out;   ///< the kernel's result slots
  std::vector<std::uint8_t> Slice; ///< the global range, when there is one
};

/// One launch of the Block or scalar twin on Backend. The device runs its
/// teams on one host thread, so the trapping PastEnd case stops at team 0
/// and no two teams write the same bytes.
TwinRun runTwin(const char *Backend, bool Block, Range Where) {
  DeviceConfig C;
  C.HostThreads = 1;
  VirtualGPU GPU(C);
  pin(GPU, Backend);
  // Both twins on every device, so the kernels differ only in the op id.
  const std::int64_t BlockId =
      GPU.registry().add(NativeOpInfo{"block_round_trip", roundTrip<true>});
  const std::int64_t ScalarId = GPU.registry().add(
      NativeOpInfo{"scalar_round_trip", roundTrip<false>});
  Module M;
  buildKernel(M, Block ? BlockId : ScalarId, Where);
  auto Image = GPU.loadImage(M);

  TwinRun R;
  R.Out.assign(Teams * Threads * 8, 0);
  const DeviceAddr Out = GPU.allocate(R.Out.size());
  GPU.write(Out, R.Out);
  DeviceAddr Base = DeviceAddr::make(MemSpace::Global, 0);
  if (Where == Range::PastEnd) {
    R.Slice.assign(PastEndBytes, 0);
    Base = DeviceAddr::make(MemSpace::Global,
                            C.GlobalMemBytes - PastEndBytes);
  } else if (Where == Range::Global) {
    R.Slice.assign(Teams * Threads * SliceBytes, 0);
    Base = GPU.allocate(R.Slice.size());
  }
  if (!R.Slice.empty())
    GPU.write(Base, R.Slice);
  const std::uint64_t Args[] = {Out.Bits, Base.Bits};
  R.LR = GPU.launch(*Image, "k", Args, Teams, Threads);
  GPU.read(Out, R.Out);
  if (!R.Slice.empty())
    GPU.read(Base, R.Slice);
  return R;
}

/// What every backend agrees on: the verdict, memory and the payload's
/// compute charge.
void expectSameOutcome(const TwinRun &A, const TwinRun &B,
                       const std::string &What) {
  EXPECT_EQ(A.LR.Ok, B.LR.Ok) << What;
  EXPECT_EQ(A.LR.Error, B.LR.Error) << What;
  EXPECT_EQ(A.Out, B.Out) << What << ": result slots";
  EXPECT_EQ(A.Slice, B.Slice) << What << ": global range";
  EXPECT_EQ(A.LR.Metrics.NativeCycles, B.LR.Metrics.NativeCycles) << What;
}

/// The outcome plus every metric and profile counter, cycles included.
void expectSameCharges(const TwinRun &A, const TwinRun &B, const std::string &What) {
  expectSameOutcome(A, B, What);
  const LaunchMetrics &X = A.LR.Metrics, &Y = B.LR.Metrics;
  EXPECT_EQ(X.KernelCycles, Y.KernelCycles) << What;
  EXPECT_EQ(X.DynamicInstructions, Y.DynamicInstructions) << What;
  EXPECT_EQ(X.GlobalLoads, Y.GlobalLoads) << What;
  EXPECT_EQ(X.GlobalStores, Y.GlobalStores) << What;
  EXPECT_EQ(X.SharedLoads, Y.SharedLoads) << What;
  EXPECT_EQ(X.SharedStores, Y.SharedStores) << What;
  EXPECT_EQ(X.LocalAccesses, Y.LocalAccesses) << What;
  EXPECT_EQ(X.Atomics, Y.Atomics) << What;
  const LaunchProfile &P = A.LR.Profile, &Q = B.LR.Profile;
  EXPECT_EQ(P.Teams, Q.Teams) << What;
  EXPECT_EQ(P.OpCounts, Q.OpCounts) << What;
  EXPECT_EQ(P.GlobalBytesRead, Q.GlobalBytesRead) << What;
  EXPECT_EQ(P.GlobalBytesWritten, Q.GlobalBytesWritten) << What;
  EXPECT_EQ(P.SharedBytesRead, Q.SharedBytesRead) << What;
  EXPECT_EQ(P.SharedBytesWritten, Q.SharedBytesWritten) << What;
  EXPECT_EQ(P.TeamCyclesTotal, Q.TeamCyclesTotal) << What;
}

double slot(const std::vector<std::uint8_t> &Bytes, std::size_t I) {
  double D;
  std::memcpy(&D, Bytes.data() + I * 8, 8);
  return D;
}

TEST(NativeOps, BlockPathsChargeLikeScalarAccesses) {
  constexpr std::uint64_t Lanes = Teams * Threads;
  for (const Range Where :
       {Range::Global, Range::Shared, Range::Local, Range::PastEnd}) {
    std::vector<TwinRun> BlockRuns;
    for (const char *Backend : AllBackends) {
      const std::string What =
          std::string(rangeName(Where)) + " range on " + Backend;
      TwinRun Block = runTwin(Backend, /*Block=*/true, Where);
      const TwinRun Scalar = runTwin(Backend, /*Block=*/false, Where);
      expectSameCharges(Block, Scalar, What + ", block vs. scalar");

      if (Where == Range::PastEnd) {
        EXPECT_EQ(Block.LR.Error,
                  "thread 0 of team 0: global access out of bounds")
            << What;
        // The in-range elements before the trap were stored.
        for (std::uint32_t I = 0; I < PastEndBytes / 8; ++I)
          EXPECT_EQ(slot(Block.Slice, I), valueFor(0, 0, I)) << What;
      } else {
        ASSERT_TRUE(Block.LR.Ok) << What << ": " << Block.LR.Error;
        const LaunchMetrics &Mx = Block.LR.Metrics;
        EXPECT_EQ(Mx.NativeCycles, Lanes * Count) << What;
        if (Where == Range::Global) {
          EXPECT_EQ(Mx.GlobalLoads, Lanes * Count) << What;
        }
        if (Where == Range::Shared) {
          EXPECT_EQ(Mx.SharedLoads, Lanes * Count) << What;
          EXPECT_EQ(Mx.SharedStores, Lanes * Count) << What;
          EXPECT_EQ(Block.LR.Profile.SharedBytesWritten, Lanes * SliceBytes)
              << What;
        }
        if (Where == Range::Local) {
          EXPECT_EQ(Mx.LocalAccesses, 2 * Lanes * Count) << What;
        }
        for (std::uint32_t Team = 0; Team < Teams; ++Team)
          for (std::uint32_t Tid = 0; Tid < Threads; ++Tid) {
            double Want = 0;
            for (std::uint32_t I = 0; I < Count; ++I)
              Want += valueFor(Team, Tid, I) * (I + 1);
            EXPECT_EQ(slot(Block.Out, Team * Threads + Tid), Want)
                << What << ", team " << Team << " thread " << Tid;
            if (Where != Range::Global)
              continue;
            for (std::uint32_t I = 0; I < Count; ++I)
              EXPECT_EQ(slot(Block.Slice, (Team * Threads + Tid) * Count + I),
                        valueFor(Team, Tid, I))
                  << What;
          }
      }
      BlockRuns.push_back(std::move(Block));
    }
    const std::string Name = rangeName(Where);
    expectSameCharges(BlockRuns[0], BlockRuns[1],
                      Name + " range, tree vs. bytecode");
    expectSameOutcome(BlockRuns[0], BlockRuns[2],
                      Name + " range, tree vs. native");
  }
}

TEST(NativeOps, MissingResultTrapsTheLaneOnEveryBackend) {
  // An op declared to return f64 that never sets its result stops the
  // launch with the lane's trap, the same on every backend, and the kernel
  // stores nothing.
  for (const char *Backend : AllBackends) {
    VirtualGPU GPU;
    pin(GPU, Backend);
    const std::int64_t Id = GPU.registry().add(NativeOpInfo{
        "forgets_result", [](NativeCtx &Ctx) { Ctx.chargeCycles(1); }});
    Module M;
    Function *K = M.createFunction("k", Type::voidTy(), {Type::ptr()});
    K->addAttr(FnAttr::Kernel);
    IRBuilder B(M);
    B.setInsertPoint(K->createBlock("entry"));
    B.store(B.nativeOp(Id, Type::f64(), {}, NativeOpFlags{}), K->arg(0));
    B.retVoid();
    ASSERT_TRUE(verifyModule(M).empty());
    auto Image = GPU.loadImage(M);
    std::vector<std::uint8_t> Out(8, 0xAB);
    const DeviceAddr Buf = GPU.allocate(Out.size());
    GPU.write(Buf, Out);
    const std::uint64_t Args[] = {Buf.Bits};
    const LaunchResult R = GPU.launch(*Image, "k", Args, 1, 1);
    EXPECT_FALSE(R.Ok) << Backend;
    EXPECT_EQ(R.Error,
              "thread 0 of team 0: native op did not produce its declared "
              "result")
        << Backend;
    GPU.read(Buf, Out);
    EXPECT_EQ(Out, std::vector<std::uint8_t>(8, 0xAB)) << Backend;
  }
}

} // namespace
} // namespace codesign::vgpu
