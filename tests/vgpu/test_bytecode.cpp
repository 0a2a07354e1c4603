//===- tests/vgpu/test_bytecode.cpp - Bytecode tier vs. tree oracle --------===//
//
// Differential proof for the warp-batched bytecode tier: every kernel here
// runs under the tree and bytecode backends (pinned per device with
// VirtualGPU::setExecBackend) and must produce bit-identical memory,
// metrics, profiles, and trap messages. The trap-verdict cases run under
// the native backend too, which must stop with the same message (it models
// no ALU cycles, so only the verdict is compared there). The suite
// doubles as the evaluator-semantics regression net for the IntOps.hpp
// wrapping arithmetic — the cases below (INT64_MIN / -1, overflow wrap,
// shifts at the type width, i32 canonicalization, float-to-int saturation)
// are exactly the ones that were UB before the shared helpers existed, so
// the whole file is also run under -DCODESIGN_SANITIZE=undefined (ctest
// -L ubsan).
//
//===----------------------------------------------------------------------===//
#include "vgpu/VirtualGPU.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "ir/IRBuilder.hpp"
#include "ir/Verifier.hpp"

namespace codesign::vgpu {
namespace {

using namespace ir;

/// Outcome of one launch under one tier.
struct TierRun {
  LaunchResult LR;
  std::vector<std::uint8_t> Out;
};

/// Build a fresh module with Build, load it on a device pinned to the
/// named execution backend, and launch Kernel with an output buffer of
/// BufBytes as argument 0 followed by ExtraArgs.
TierRun runTier(std::string_view Backend,
                const std::function<void(Module &)> &Build,
                const std::string &Kernel, std::uint64_t BufBytes,
                std::vector<std::uint64_t> ExtraArgs, std::uint32_t Teams,
                std::uint32_t Threads, bool DetectRaces = false) {
  Module M;
  Build(M);
  DeviceConfig C;
  C.CollectProfile = true;
  VirtualGPU GPU(C);
  // Pin: overrides any CODESIGN_EXEC_BACKEND ambient.
  auto Pinned = GPU.setExecBackend(Backend);
  CODESIGN_ASSERT(Pinned.hasValue(), "bad backend name in test");
  GPU.setDetectRaces(DetectRaces);
  auto Image = GPU.loadImage(M);
  const std::uint64_t Size = std::max<std::uint64_t>(BufBytes, 8);
  DeviceAddr Buf = GPU.allocate(Size);
  std::vector<std::uint8_t> Zero(Size, 0);
  GPU.write(Buf, Zero);
  std::vector<std::uint64_t> Args{Buf.Bits};
  Args.insert(Args.end(), ExtraArgs.begin(), ExtraArgs.end());
  TierRun R;
  R.LR = GPU.launch(*Image, Kernel, Args, Teams, Threads);
  if (R.LR.Ok) {
    R.Out.resize(Size);
    GPU.read(Buf, R.Out);
  }
  return R;
}

/// Require the tree run (the oracle) and the bytecode run to be
/// observably indistinguishable: success flag, trap message, output
/// bytes, every metric, and the full profile.
void expectTierIdentical(const TierRun &Tree, const TierRun &BC) {
  ASSERT_EQ(Tree.LR.Ok, BC.LR.Ok)
      << "tree: " << Tree.LR.Error << " / bytecode: " << BC.LR.Error;
  EXPECT_EQ(Tree.LR.Error, BC.LR.Error);
  EXPECT_EQ(Tree.Out, BC.Out) << "output memory must be bit-identical";
  const LaunchMetrics &A = Tree.LR.Metrics, &B = BC.LR.Metrics;
  EXPECT_EQ(A.KernelCycles, B.KernelCycles);
  EXPECT_EQ(A.DynamicInstructions, B.DynamicInstructions);
  EXPECT_EQ(A.GlobalLoads, B.GlobalLoads);
  EXPECT_EQ(A.GlobalStores, B.GlobalStores);
  EXPECT_EQ(A.SharedLoads, B.SharedLoads);
  EXPECT_EQ(A.SharedStores, B.SharedStores);
  EXPECT_EQ(A.LocalAccesses, B.LocalAccesses);
  EXPECT_EQ(A.Atomics, B.Atomics);
  EXPECT_EQ(A.Barriers, B.Barriers);
  EXPECT_EQ(A.Calls, B.Calls);
  EXPECT_EQ(A.NativeCycles, B.NativeCycles);
  EXPECT_EQ(A.DeviceMallocs, B.DeviceMallocs);
  EXPECT_EQ(A.SharedStackPeak, B.SharedStackPeak);
  EXPECT_EQ(A.TeamsPerSM, B.TeamsPerSM);
  if (!Tree.LR.Ok)
    return;
  const LaunchProfile &PA = Tree.LR.Profile, &PB = BC.LR.Profile;
  ASSERT_EQ(PA.Collected, PB.Collected);
  for (std::size_t I = 0; I < NumOpClasses; ++I)
    EXPECT_EQ(PA.OpCounts[I], PB.OpCounts[I])
        << "op class " << opClassName(static_cast<OpClass>(I));
  EXPECT_EQ(PA.GlobalBytesRead, PB.GlobalBytesRead);
  EXPECT_EQ(PA.GlobalBytesWritten, PB.GlobalBytesWritten);
  EXPECT_EQ(PA.SharedBytesRead, PB.SharedBytesRead);
  EXPECT_EQ(PA.SharedBytesWritten, PB.SharedBytesWritten);
  EXPECT_EQ(PA.BarrierWaitCycles, PB.BarrierWaitCycles);
  EXPECT_EQ(PA.Teams, PB.Teams);
  EXPECT_EQ(PA.teamCyclesMin(), PB.teamCyclesMin());
  EXPECT_EQ(PA.teamCyclesMax(), PB.teamCyclesMax());
  EXPECT_EQ(PA.TeamCyclesTotal, PB.TeamCyclesTotal);
}

/// Run under both tiers, require them identical, and hand the (verified
/// identical) bytecode run to the caller for value assertions.
TierRun runBothTiers(const std::function<void(Module &)> &Build,
                     const std::string &Kernel, std::uint64_t BufBytes,
                     std::vector<std::uint64_t> ExtraArgs = {},
                     std::uint32_t Teams = 1, std::uint32_t Threads = 1,
                     bool DetectRaces = false) {
  TierRun Tree = runTier("tree", Build, Kernel, BufBytes, ExtraArgs, Teams,
                         Threads, DetectRaces);
  TierRun BC = runTier("bytecode", Build, Kernel, BufBytes, ExtraArgs, Teams,
                       Threads, DetectRaces);
  expectTierIdentical(Tree, BC);
  return BC;
}

/// runBothTiers for a single-team trap-verdict case, plus the native
/// backend, which must reach the same verdict with the same message.
TierRun runAllBackends(const std::function<void(Module &)> &Build,
                       const std::string &Kernel, std::uint64_t BufBytes,
                       std::uint32_t Threads = 1) {
  TierRun BC = runBothTiers(Build, Kernel, BufBytes, {}, 1, Threads);
  TierRun Native = runTier("native", Build, Kernel, BufBytes, {}, 1, Threads);
  EXPECT_EQ(BC.LR.Ok, Native.LR.Ok) << "native: " << Native.LR.Error;
  EXPECT_EQ(BC.LR.Error, Native.LR.Error);
  return BC;
}

std::int64_t loadI64(const TierRun &R, std::size_t Slot) {
  std::int64_t V;
  std::memcpy(&V, R.Out.data() + Slot * 8, 8);
  return V;
}

std::uint64_t loadU64(const TierRun &R, std::size_t Slot) {
  std::uint64_t V;
  std::memcpy(&V, R.Out.data() + Slot * 8, 8);
  return V;
}

constexpr std::int64_t I64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t I64Max = std::numeric_limits<std::int64_t>::max();

/// Store a sequence of i64 results into consecutive slots of arg 0.
void storeAll(IRBuilder &B, Value *Base, std::initializer_list<Value *> Vs) {
  std::int64_t Off = 0;
  for (Value *V : Vs) {
    B.store(V, B.gep(Base, Off));
    Off += 8;
  }
}

TEST(BytecodeTier, SignedOverflowWraps) {
  TierRun R = runBothTiers(
      [](Module &M) {
        Function *K = M.createFunction("wrap", Type::voidTy(), {Type::ptr()});
        K->addAttr(FnAttr::Kernel);
        IRBuilder B(M);
        B.setInsertPoint(K->createBlock("entry"));
        storeAll(B, K->arg(0),
                 {B.sdiv(B.i64(I64Min), B.i64(-1)),
                  B.srem(B.i64(I64Min), B.i64(-1)),
                  B.add(B.i64(I64Max), B.i64(1)),
                  B.sub(B.i64(I64Min), B.i64(1)),
                  B.mul(B.i64(I64Min), B.i64(-1)),
                  B.mul(B.i64(I64Max), B.i64(2))});
        B.retVoid();
        ASSERT_TRUE(verifyModule(M).empty());
      },
      "wrap", 6 * 8);
  ASSERT_TRUE(R.LR.Ok) << R.LR.Error;
  EXPECT_EQ(loadI64(R, 0), I64Min) << "INT64_MIN / -1 wraps to INT64_MIN";
  EXPECT_EQ(loadI64(R, 1), 0) << "INT64_MIN % -1 is 0";
  EXPECT_EQ(loadI64(R, 2), I64Min) << "INT64_MAX + 1 wraps";
  EXPECT_EQ(loadI64(R, 3), I64Max) << "INT64_MIN - 1 wraps";
  EXPECT_EQ(loadI64(R, 4), I64Min) << "-INT64_MIN wraps to itself";
  EXPECT_EQ(loadI64(R, 5), -2) << "low 64 bits of the product";
}

TEST(BytecodeTier, ShiftAmountsMaskedAtTypeWidth) {
  TierRun R = runBothTiers(
      [](Module &M) {
        Function *K = M.createFunction("sh", Type::voidTy(), {Type::ptr()});
        K->addAttr(FnAttr::Kernel);
        IRBuilder B(M);
        B.setInsertPoint(K->createBlock("entry"));
        Value *ShlW = B.shl(B.i64(3), B.i64(64));        // masked to 0
        Value *LShrW = B.lshr(B.i64(-1), B.i64(65));     // masked to 1
        Value *AShrN = B.binop(Opcode::AShr, B.i64(I64Min), B.i64(63));
        Value *Shl32 = B.shl(B.i32(5), B.i32(32));       // i32: masked to 0
        Value *AShr32 = B.binop(Opcode::AShr, B.i32(-16), B.i32(2));
        storeAll(B, K->arg(0),
                 {ShlW, LShrW, AShrN, B.sext(Shl32, Type::i64()),
                  B.sext(AShr32, Type::i64())});
        B.retVoid();
        ASSERT_TRUE(verifyModule(M).empty());
      },
      "sh", 5 * 8);
  ASSERT_TRUE(R.LR.Ok) << R.LR.Error;
  EXPECT_EQ(loadI64(R, 0), 3);
  EXPECT_EQ(loadU64(R, 1), std::uint64_t(-1) >> 1);
  EXPECT_EQ(loadI64(R, 2), -1) << "arithmetic shift keeps the sign";
  EXPECT_EQ(loadI64(R, 3), 5);
  EXPECT_EQ(loadI64(R, 4), -4);
}

TEST(BytecodeTier, I32Canonicalization) {
  TierRun R = runBothTiers(
      [](Module &M) {
        Function *K = M.createFunction("c32", Type::voidTy(), {Type::ptr()});
        K->addAttr(FnAttr::Kernel);
        IRBuilder B(M);
        B.setInsertPoint(K->createBlock("entry"));
        constexpr std::int32_t I32Max = std::numeric_limits<std::int32_t>::max();
        Value *Ovf = B.add(B.i32(I32Max), B.i32(1)); // wraps to INT32_MIN
        Value *Neg = B.i32(-8);
        Value *UDiv = B.udiv(Neg, B.i32(16)); // width-adjusted 0xFFFFFFF8
        Value *Tr = B.trunc(B.i64(0x1FFFFFFFFll), Type::i32()); // -1 as i32
        Value *UCmp = B.cmp(CmpPred::UGT, Neg, B.i32(7)); // unsigned view
        storeAll(B, K->arg(0),
                 {B.sext(Ovf, Type::i64()), B.zext(UDiv, Type::i64()),
                  B.sext(Tr, Type::i64()), B.zext(UCmp, Type::i64())});
        B.retVoid();
        ASSERT_TRUE(verifyModule(M).empty());
      },
      "c32", 4 * 8);
  ASSERT_TRUE(R.LR.Ok) << R.LR.Error;
  EXPECT_EQ(loadI64(R, 0), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(loadU64(R, 1), 0xFFFFFFF8u / 16);
  EXPECT_EQ(loadI64(R, 2), -1);
  EXPECT_EQ(loadI64(R, 3), 1);
}

TEST(BytecodeTier, FloatToIntSaturates) {
  TierRun R = runBothTiers(
      [](Module &M) {
        Function *K = M.createFunction("sat", Type::voidTy(), {Type::ptr()});
        K->addAttr(FnAttr::Kernel);
        IRBuilder B(M);
        B.setInsertPoint(K->createBlock("entry"));
        storeAll(B, K->arg(0),
                 {B.fptosi(B.f64(std::nan("")), Type::i64()),
                  B.fptosi(B.f64(1e300), Type::i64()),
                  B.fptosi(B.f64(-1e300), Type::i64()),
                  B.fptosi(B.f64(-2.75), Type::i64())});
        B.retVoid();
        ASSERT_TRUE(verifyModule(M).empty());
      },
      "sat", 4 * 8);
  ASSERT_TRUE(R.LR.Ok) << R.LR.Error;
  EXPECT_EQ(loadI64(R, 0), 0) << "NaN converts to 0";
  EXPECT_EQ(loadI64(R, 1), I64Max) << "overflow saturates high";
  EXPECT_EQ(loadI64(R, 2), I64Min) << "underflow saturates low";
  EXPECT_EQ(loadI64(R, 3), -2) << "truncation toward zero";
}

TEST(BytecodeTier, DivisionByZeroTrapsIdentically) {
  for (const char *Op : {"sdiv", "udiv", "srem", "urem"}) {
    const std::string Name = Op;
    TierRun R = runAllBackends(
        [&Name](Module &M) {
          Function *K =
              M.createFunction("dz", Type::voidTy(), {Type::ptr()});
          K->addAttr(FnAttr::Kernel);
          IRBuilder B(M);
          B.setInsertPoint(K->createBlock("entry"));
          Value *V = nullptr;
          if (Name == "sdiv")
            V = B.sdiv(B.i64(7), B.i64(0));
          else if (Name == "udiv")
            V = B.udiv(B.i64(7), B.i64(0));
          else if (Name == "srem")
            V = B.srem(B.i64(7), B.i64(0));
          else
            V = B.urem(B.i64(7), B.i64(0));
          B.store(V, K->arg(0));
          B.retVoid();
          ASSERT_TRUE(verifyModule(M).empty());
        },
        "dz", 8);
    EXPECT_FALSE(R.LR.Ok) << Name;
    const char *Want = (Name == "sdiv" || Name == "udiv")
                           ? "integer division by zero"
                           : "integer remainder by zero";
    EXPECT_NE(R.LR.Error.find(Want), std::string::npos)
        << Name << ": " << R.LR.Error;
  }
}

TEST(BytecodeTier, UniformLoopReplaysAcrossWarp) {
  // Every lane of every warp runs the same counted loop: the bytecode
  // tier records the loop on the first lane and replays it on the other
  // 31, while the tree oracle executes each lane in full. Two barriers
  // split the kernel into three replay segments.
  TierRun R = runBothTiers(
      [](Module &M) {
        Function *K = M.createFunction("uni", Type::voidTy(),
                                       {Type::ptr(), Type::i64()});
        K->addAttr(FnAttr::Kernel);
        BasicBlock *Entry = K->createBlock("entry");
        BasicBlock *Header = K->createBlock("header");
        BasicBlock *Body = K->createBlock("body");
        BasicBlock *Exit = K->createBlock("exit");
        IRBuilder B(M);
        B.setInsertPoint(Entry);
        B.barrier();
        B.br(Header);
        B.setInsertPoint(Header);
        Instruction *IV = B.phi(Type::i64());
        Instruction *Acc = B.phi(Type::i64());
        B.condBr(B.icmpSLT(IV, K->arg(1)), Body, Exit);
        B.setInsertPoint(Body);
        Value *Next = B.add(IV, B.i64(1));
        Value *Acc2 = B.add(Acc, B.mul(IV, IV));
        B.br(Header);
        IV->addIncoming(B.i64(0), Entry);
        IV->addIncoming(Next, Body);
        Acc->addIncoming(B.i64(0), Entry);
        Acc->addIncoming(Acc2, Body);
        B.setInsertPoint(Exit);
        B.barrier();
        Value *Tid = B.zext(B.threadId(), Type::i64());
        Value *Bid = B.zext(B.blockId(), Type::i64());
        Value *Gid = B.add(B.mul(Bid, B.zext(B.blockDim(), Type::i64())), Tid);
        B.store(Acc, B.gep(K->arg(0), B.mul(Gid, B.i64(8))));
        B.retVoid();
        ASSERT_TRUE(verifyModule(M).empty());
      },
      "uni", 2 * 64 * 8, {/*N=*/25}, /*Teams=*/2, /*Threads=*/64);
  ASSERT_TRUE(R.LR.Ok) << R.LR.Error;
  std::int64_t Want = 0;
  for (std::int64_t I = 0; I < 25; ++I)
    Want += I * I;
  for (std::size_t T = 0; T < 2 * 64; ++T)
    EXPECT_EQ(loadI64(R, T), Want) << "thread " << T;
}

TEST(BytecodeTier, DivergentBranchesFallBackPerLane) {
  // Lanes diverge on tid parity, so the warp-uniform fast path must bail
  // out and the slow path must still match the oracle exactly.
  TierRun R = runBothTiers(
      [](Module &M) {
        Function *K = M.createFunction("div", Type::voidTy(), {Type::ptr()});
        K->addAttr(FnAttr::Kernel);
        BasicBlock *Entry = K->createBlock("entry");
        BasicBlock *Odd = K->createBlock("odd");
        BasicBlock *Even = K->createBlock("even");
        BasicBlock *Join = K->createBlock("join");
        IRBuilder B(M);
        B.setInsertPoint(Entry);
        Value *Tid = B.zext(B.threadId(), Type::i64());
        Value *IsOdd = B.icmpEQ(B.binop(Opcode::And, Tid, B.i64(1)), B.i64(1));
        B.condBr(IsOdd, Odd, Even);
        B.setInsertPoint(Odd);
        Value *A = B.mul(Tid, B.i64(3));
        B.br(Join);
        B.setInsertPoint(Even);
        Value *C = B.sub(B.i64(0), Tid);
        B.br(Join);
        B.setInsertPoint(Join);
        Instruction *Phi = B.phi(Type::i64());
        Phi->addIncoming(A, Odd);
        Phi->addIncoming(C, Even);
        B.store(Phi, B.gep(K->arg(0), B.mul(Tid, B.i64(8))));
        B.retVoid();
        ASSERT_TRUE(verifyModule(M).empty());
      },
      "div", 64 * 8, {}, /*Teams=*/1, /*Threads=*/64);
  ASSERT_TRUE(R.LR.Ok) << R.LR.Error;
  for (std::int64_t T = 0; T < 64; ++T)
    EXPECT_EQ(loadI64(R, static_cast<std::size_t>(T)),
              (T & 1) ? T * 3 : -T)
        << "thread " << T;
}

TEST(BytecodeTier, SharedMemoryRaceVerdictIdentical) {
  TierRun R = runBothTiers(
      [](Module &M) {
        GlobalVariable *Cell = M.createGlobal("cell", AddrSpace::Shared, 8);
        Function *K = M.createFunction("race", Type::voidTy(), {Type::ptr()});
        K->addAttr(FnAttr::Kernel);
        IRBuilder B(M);
        B.setInsertPoint(K->createBlock("entry"));
        B.store(B.zext(B.threadId(), Type::i64()), Cell);
        B.store(B.load(Type::i64(), Cell), K->arg(0));
        B.retVoid();
        ASSERT_TRUE(verifyModule(M).empty());
      },
      "race", 8, {}, /*Teams=*/1, /*Threads=*/4, /*DetectRaces=*/true);
  EXPECT_FALSE(R.LR.Ok);
  EXPECT_NE(R.LR.Error.find("shared-memory race"), std::string::npos)
      << R.LR.Error;
}

TEST(BytecodeTier, DivergentAlignedBarrierVerdictIdentical) {
  // The seeded lint kernel: an aligned barrier only thread 0 reaches. The
  // dynamic detector must report the same deadlock in both tiers.
  TierRun R = runBothTiers(
      [](Module &M) {
        Function *K = M.createFunction("divbar", Type::voidTy(),
                                       {Type::ptr()});
        K->addAttr(FnAttr::Kernel);
        BasicBlock *Entry = K->createBlock("entry");
        BasicBlock *Bar = K->createBlock("bar");
        BasicBlock *Done = K->createBlock("done");
        IRBuilder B(M);
        B.setInsertPoint(Entry);
        B.condBr(B.icmpEQ(B.threadId(), B.i32(0)), Bar, Done);
        B.setInsertPoint(Bar);
        B.alignedBarrier(5);
        B.br(Done);
        B.setInsertPoint(Done);
        B.retVoid();
        ASSERT_TRUE(verifyModule(M).empty());
      },
      "divbar", 8, {}, /*Teams=*/1, /*Threads=*/4, /*DetectRaces=*/true);
  EXPECT_FALSE(R.LR.Ok);
  EXPECT_NE(R.LR.Error.find("divergent aligned barrier"), std::string::npos)
      << R.LR.Error;
}

TEST(BytecodeTier, AssertTrapMessageIdentical) {
  TierRun R = runAllBackends(
      [](Module &M) {
        Function *K = M.createFunction("chk", Type::voidTy(), {Type::ptr()});
        K->addAttr(FnAttr::Kernel);
        IRBuilder B(M);
        B.setInsertPoint(K->createBlock("entry"));
        Value *Tid = B.threadId();
        B.assertCond(B.icmpSLT(Tid, B.i32(3)), "tid must stay below three");
        B.store(B.zext(Tid, Type::i64()), K->arg(0));
        B.retVoid();
        ASSERT_TRUE(verifyModule(M).empty());
      },
      "chk", 8, /*Threads=*/8);
  EXPECT_FALSE(R.LR.Ok);
  EXPECT_NE(R.LR.Error.find("tid must stay below three"), std::string::npos)
      << R.LR.Error;
}

// A kernel that overruns its lane's local memory traps the lane with the
// same message under every backend instead of aborting the host process.
TEST(BytecodeTier, AllocaPastLocalCapTraps) {
  TierRun R = runAllBackends(
      [](Module &M) {
        Function *K = M.createFunction("big", Type::voidTy(), {Type::ptr()});
        K->addAttr(FnAttr::Kernel);
        IRBuilder B(M);
        B.setInsertPoint(K->createBlock("entry"));
        B.store(B.i64(1), B.allocaBytes(1 << 20));
        B.retVoid();
        ASSERT_TRUE(verifyModule(M).empty());
      },
      "big", 8);
  EXPECT_EQ(R.LR.Error, "thread 0 of team 0: local memory exhausted");
}

TEST(BytecodeTier, LocalAccessPastCapTraps) {
  // Stores past a 16-byte alloca: 1 MiB out, and just past the 64 KiB cap
  // after an in-bounds store has mapped most of the arena (native reads
  // mapped local memory without asking the host).
  const std::int64_t Cap =
      static_cast<std::int64_t>(DeviceConfig{}.LocalMemPerThread);
  for (const std::vector<std::int64_t> &Offsets :
       {std::vector<std::int64_t>{std::int64_t{1} << 20},
        std::vector<std::int64_t>{Cap - 4096, Cap}}) {
    TierRun R = runAllBackends(
        [&Offsets](Module &M) {
          Function *K =
              M.createFunction("far", Type::voidTy(), {Type::ptr()});
          K->addAttr(FnAttr::Kernel);
          IRBuilder B(M);
          B.setInsertPoint(K->createBlock("entry"));
          Value *P = B.allocaBytes(16);
          for (const std::int64_t Off : Offsets)
            B.store(B.i64(1), B.gep(P, Off));
          B.retVoid();
          ASSERT_TRUE(verifyModule(M).empty());
        },
        "far", 8);
    EXPECT_EQ(R.LR.Error, "thread 0 of team 0: local access out of bounds")
        << "last offset " << Offsets.back();
  }
}

TEST(BytecodeTier, CallsAtomicsAndIndirectDispatchMatch) {
  // Function calls leave the warp-uniform fast path; atomics serialize;
  // the indirect call goes through a shared-memory slot — the generic-mode
  // state-machine shape. All of it must match the oracle.
  TierRun R = runBothTiers(
      [](Module &M) {
        GlobalVariable *Slot = M.createGlobal("workfn", AddrSpace::Shared, 8);
        Function *Work = M.createFunction("work", Type::i64(), {Type::i64()});
        Work->addAttr(FnAttr::Internal);
        IRBuilder B(M);
        B.setInsertPoint(Work->createBlock("entry"));
        B.ret(B.mul(Work->arg(0), Work->arg(0)));

        Function *K = M.createFunction("k", Type::voidTy(), {Type::ptr()});
        K->addAttr(FnAttr::Kernel);
        BasicBlock *Entry = K->createBlock("entry");
        BasicBlock *IsMain = K->createBlock("is_main");
        BasicBlock *After = K->createBlock("after");
        B.setInsertPoint(Entry);
        Value *Tid = B.threadId();
        B.condBr(B.icmpEQ(Tid, B.i32(0)), IsMain, After);
        B.setInsertPoint(IsMain);
        B.store(Work->asValue(), Slot);
        B.br(After);
        B.setInsertPoint(After);
        B.barrier();
        Value *Fn = B.load(Type::ptr(), Slot);
        Value *Tid64 = B.zext(Tid, Type::i64());
        Value *Sq = B.callIndirect(Type::i64(), Fn, {Tid64});
        B.atomicRMW(AtomicOp::Add, K->arg(0), Sq);
        B.retVoid();
        ASSERT_TRUE(verifyModule(M).empty());
      },
      "k", 8, {}, /*Teams=*/2, /*Threads=*/32);
  ASSERT_TRUE(R.LR.Ok) << R.LR.Error;
  std::int64_t Want = 0;
  for (std::int64_t T = 0; T < 32; ++T)
    Want += T * T;
  EXPECT_EQ(loadI64(R, 0), 2 * Want);
}

} // namespace
} // namespace codesign::vgpu
