#include "vgpu/KernelStats.hpp"
#include "vgpu/VirtualGPU.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "ir/IRBuilder.hpp"

namespace codesign::vgpu {
namespace {

using namespace ir;

TEST(CostModelBehaviour, GlobalTrafficCostsMoreThanShared) {
  // Two identical kernels, one loading from global memory, one from shared:
  // the global one must report more cycles. This is the mechanism behind
  // every speedup in the paper — eliminated state means eliminated slow
  // memory traffic.
  auto build = [](Module &M, AddrSpace Space) {
    GlobalVariable *G = M.createGlobal("data", Space, 8);
    Function *K = M.createFunction("k", Type::voidTy(), {Type::ptr()});
    K->addAttr(FnAttr::Kernel);
    IRBuilder B(M);
    B.setInsertPoint(K->createBlock("entry"));
    Value *Acc = B.i64(0);
    for (int I = 0; I < 16; ++I)
      Acc = B.add(Acc, B.load(Type::i64(), G));
    B.store(Acc, K->arg(0));
    B.retVoid();
  };
  Module MG, MS;
  build(MG, AddrSpace::Global);
  build(MS, AddrSpace::Shared);
  VirtualGPU GPU;
  auto ImgG = GPU.loadImage(MG);
  auto ImgS = GPU.loadImage(MS);
  DeviceAddr Buf = GPU.allocate(8);
  std::uint64_t Args[] = {Buf.Bits};
  LaunchResult RG = GPU.launch(*ImgG, "k", Args, 1, 1);
  LaunchResult RS = GPU.launch(*ImgS, "k", Args, 1, 1);
  ASSERT_TRUE(RG.Ok) << RG.Error;
  ASSERT_TRUE(RS.Ok) << RS.Error;
  EXPECT_GT(RG.Metrics.KernelCycles, RS.Metrics.KernelCycles * 2);
  EXPECT_EQ(RG.Metrics.GlobalLoads, 16u);
  EXPECT_EQ(RS.Metrics.SharedLoads, 16u);
}

TEST(CostModelBehaviour, TeamsSpreadAcrossSMs) {
  // With enough SMs, doubling the team count should NOT double kernel time
  // (teams run in parallel across SMs); beyond the SM count it scales.
  Module M;
  Function *K = M.createFunction("k", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  // Each thread works on its own word: teams run on concurrent host
  // threads.
  Value *Gid = B.add(B.mul(B.zext(B.blockId(), Type::i64()),
                           B.zext(B.blockDim(), Type::i64())),
                     B.zext(B.threadId(), Type::i64()));
  Value *P = B.gep(K->arg(0), B.mul(Gid, B.i64(8)));
  Value *Acc = B.i64(0);
  for (int I = 0; I < 8; ++I)
    Acc = B.add(Acc, B.load(Type::i64(), P));
  B.store(Acc, P);
  B.retVoid();
  DeviceConfig Cfg;
  Cfg.NumSMs = 4;
  // Pin occupancy to one team per SM so the round structure is exact.
  Cfg.MaxConcurrentTeamsPerSM = 1;
  VirtualGPU GPU(Cfg);
  auto Img = GPU.loadImage(M);
  DeviceAddr Buf = GPU.allocate(8 * 4 * 8);
  std::uint64_t Args[] = {Buf.Bits};
  LaunchResult R4 = GPU.launch(*Img, "k", Args, 4, 4);
  LaunchResult R8 = GPU.launch(*Img, "k", Args, 8, 4);
  ASSERT_TRUE(R4.Ok && R8.Ok);
  EXPECT_EQ(R8.Metrics.KernelCycles, 2 * R4.Metrics.KernelCycles)
      << "8 teams on 4 SMs = 2 rounds";
  LaunchResult R2 = GPU.launch(*Img, "k", Args, 2, 4);
  EXPECT_EQ(R2.Metrics.KernelCycles, R4.Metrics.KernelCycles)
      << "2 or 4 teams both fit in one round";
  // With the default occupancy cap, higher occupancy absorbs more teams.
  DeviceConfig Wide;
  Wide.NumSMs = 4;
  VirtualGPU GPU2(Wide);
  auto Img2 = GPU2.loadImage(M);
  DeviceAddr Buf2 = GPU2.allocate(8 * 4 * 8);
  std::uint64_t Args2[] = {Buf2.Bits};
  LaunchResult W8 = GPU2.launch(*Img2, "k", Args2, 8, 4);
  LaunchResult W4 = GPU2.launch(*Img2, "k", Args2, 4, 4);
  ASSERT_TRUE(W8.Ok && W4.Ok);
  EXPECT_GT(W8.Metrics.TeamsPerSM, 1u);
  EXPECT_EQ(W8.Metrics.KernelCycles, W4.Metrics.KernelCycles)
      << "2 teams per SM run concurrently under the occupancy model";
}

TEST(KernelStats, SharedMemoryAccounting) {
  Module M;
  M.createGlobal("team_state", AddrSpace::Shared, 48);
  M.createGlobal("thread_states", AddrSpace::Shared, 8 * 256);
  M.createGlobal("cfg", AddrSpace::Constant, 64); // not shared: excluded
  Function *K = M.createFunction("k", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.retVoid();
  NativeRegistry Reg;
  KernelStaticStats S = computeKernelStats(*K, Reg);
  EXPECT_EQ(S.SharedMemBytes, 48u + 8 * 256);
}

TEST(KernelStats, RegistersIncludeCalleesAndNativeOps) {
  Module M;
  Function *Wide = M.createFunction("wide", Type::i64(), {Type::i64()});
  Wide->addAttr(FnAttr::Internal);
  IRBuilder B(M);
  B.setInsertPoint(Wide->createBlock("entry"));
  std::vector<Value *> Vs;
  for (int I = 0; I < 12; ++I)
    Vs.push_back(B.mul(Wide->arg(0), B.i64(I + 2)));
  Value *Sum = Vs[0];
  for (std::size_t I = 1; I < Vs.size(); ++I)
    Sum = B.add(Sum, Vs[I]);
  B.ret(Sum);

  Function *K = M.createFunction("k", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  B.setInsertPoint(K->createBlock("entry"));
  B.call(Wide, {B.i64(3)});
  NativeOpFlags Flags;
  B.nativeOp(0, Type::voidTy(), {}, Flags);
  B.retVoid();

  NativeRegistry Reg;
  Reg.add(NativeOpInfo{"body", [](NativeCtx &) {}, 20});
  KernelStaticStats S = computeKernelStats(*K, Reg);
  EXPECT_GE(S.Registers, 8u + 12u + 20u);
  EXPECT_EQ(S.CodeSize, K->instructionCount() + Wide->instructionCount());
}

TEST(KernelStats, ModuleImageSharedSizeMatchesStats) {
  Module M;
  M.createGlobal("a", AddrSpace::Shared, 100, 8);
  M.createGlobal("b", AddrSpace::Shared, 4, 4);
  Function *K = M.createFunction("k", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.retVoid();
  VirtualGPU GPU;
  auto Img = GPU.loadImage(M);
  NativeRegistry Reg;
  EXPECT_EQ(Img->sharedStaticSize(),
            computeKernelStats(*K, Reg).SharedMemBytes);
}

TEST(KernelStats, SharedGlobalInitializerAppliedPerTeam) {
  Module M;
  GlobalVariable *G = M.createGlobal("flag", AddrSpace::Shared, 8);
  G->setScalarInit(0x5A, 8);
  Function *K = M.createFunction("k", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  Value *V = B.load(Type::i64(), G);
  B.store(B.i64(0), G); // clobber; next team must still see the initializer
  Value *Bid = B.zext(B.blockId(), Type::i64());
  B.store(V, B.gep(K->arg(0), B.mul(Bid, B.i64(8))));
  B.retVoid();
  VirtualGPU GPU;
  auto Img = GPU.loadImage(M);
  DeviceAddr Buf = GPU.allocate(4 * 8);
  std::uint64_t Args[] = {Buf.Bits};
  ASSERT_TRUE(GPU.launch(*Img, "k", Args, 4, 1).Ok);
  std::vector<std::uint8_t> Raw(4 * 8);
  GPU.read(Buf, Raw);
  for (int I = 0; I < 4; ++I) {
    std::int64_t V;
    std::memcpy(&V, Raw.data() + I * 8, 8);
    EXPECT_EQ(V, 0x5A) << "team " << I;
  }
}

TEST(LaunchProfile, EveryOpClassHasItsReportName) {
  // The names are the keys of every BENCH JSON op-class histogram.
  const char *const Names[NumOpClasses] = {
      "int_alu", "int_muldiv",   "float", "memory",    "atomic", "control_flow",
      "call",    "intrinsic",    "sync",  "meta",      "native"};
  for (std::size_t I = 0; I < NumOpClasses; ++I)
    EXPECT_STREQ(opClassName(static_cast<OpClass>(I)), Names[I]) << I;
}

} // namespace
} // namespace codesign::vgpu
