#include "host/HostRuntime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "ir/IRBuilder.hpp"

namespace codesign::host {
namespace {

using namespace ir;

class HostRuntimeTest : public ::testing::Test {
protected:
  vgpu::VirtualGPU GPU;
};

TEST_F(HostRuntimeTest, MapRoundTrip) {
  HostRuntime RT(GPU);
  std::vector<double> Data{1.0, 2.0, 3.0};
  auto Addr = RT.enterData(Data.data(), Data.size() * 8);
  ASSERT_TRUE(Addr.hasValue());
  EXPECT_TRUE(RT.isPresent(Data.data()));
  // Mutate on the host, push, clear, pull.
  Data[1] = 42.0;
  ASSERT_TRUE(RT.updateTo(Data.data()).hasValue());
  Data[1] = 0.0;
  ASSERT_TRUE(RT.updateFrom(Data.data()).hasValue());
  EXPECT_EQ(Data[1], 42.0);
  ASSERT_TRUE(RT.exitData(Data.data()).hasValue());
  EXPECT_FALSE(RT.isPresent(Data.data()));
  EXPECT_EQ(RT.numMappings(), 0u);
}

TEST_F(HostRuntimeTest, ReferenceCounting) {
  HostRuntime RT(GPU);
  std::vector<std::uint8_t> Buf(64);
  auto A1 = RT.enterData(Buf.data(), 64);
  auto A2 = RT.enterData(Buf.data(), 64);
  ASSERT_TRUE(A1 && A2);
  EXPECT_EQ(A1->Bits, A2->Bits) << "same mapping, bumped refcount";
  ASSERT_TRUE(RT.exitData(Buf.data()).hasValue());
  EXPECT_TRUE(RT.isPresent(Buf.data())) << "count dropped to 1, still live";
  ASSERT_TRUE(RT.exitData(Buf.data()).hasValue());
  EXPECT_FALSE(RT.isPresent(Buf.data()));
}

TEST_F(HostRuntimeTest, SizeMismatchRejected) {
  HostRuntime RT(GPU);
  std::vector<std::uint8_t> Buf(64);
  ASSERT_TRUE(RT.enterData(Buf.data(), 64).hasValue());
  auto Bad = RT.enterData(Buf.data(), 128);
  EXPECT_FALSE(Bad.hasValue());
}

TEST_F(HostRuntimeTest, ErrorsOnUnmappedPointers) {
  HostRuntime RT(GPU);
  int X = 0;
  EXPECT_FALSE(RT.lookup(&X).hasValue());
  EXPECT_FALSE(RT.exitData(&X).hasValue());
  EXPECT_FALSE(RT.updateTo(&X).hasValue());
  EXPECT_FALSE(RT.updateFrom(&X).hasValue());
  EXPECT_FALSE(RT.enterData(nullptr, 8).hasValue());
  EXPECT_FALSE(RT.enterData(&X, 0).hasValue());
}

TEST_F(HostRuntimeTest, MemsetDeviceFillsExactlyItsMappingAndMovesNothing) {
  HostRuntime RT(GPU);
  // Sizes that keep the 16-byte-aligned first-fit allocations adjacent.
  std::vector<std::uint8_t> Before(48, 0x11), Target(64, 0x22),
      After(32, 0x33);
  std::vector<std::uint64_t> Offsets;
  for (std::vector<std::uint8_t> *V : {&Before, &Target, &After}) {
    auto Addr = RT.enterData(V->data(), V->size());
    ASSERT_TRUE(Addr.hasValue());
    Offsets.push_back(Addr->offset());
  }
  ASSERT_EQ(Offsets[1], Offsets[0] + Before.size());
  ASSERT_EQ(Offsets[2], Offsets[1] + Target.size());

  const TransferStats Moved = RT.transfers().stats();
  ASSERT_TRUE(RT.memsetDevice(Target.data(), 0xAB).hasValue());
  const TransferStats Now = RT.transfers().stats();
  EXPECT_EQ(Now.TransfersToDevice, Moved.TransfersToDevice);
  EXPECT_EQ(Now.TransfersFromDevice, Moved.TransfersFromDevice);
  EXPECT_EQ(Now.BytesToDevice, Moved.BytesToDevice);
  EXPECT_EQ(Now.BytesFromDevice, Moved.BytesFromDevice);
  EXPECT_EQ(Now.ModeledCycles, Moved.ModeledCycles);

  for (std::vector<std::uint8_t> *V : {&Before, &Target, &After}) {
    std::fill(V->begin(), V->end(), 0);
    ASSERT_TRUE(RT.updateFrom(V->data()).hasValue());
  }
  EXPECT_EQ(Before, std::vector<std::uint8_t>(48, 0x11));
  EXPECT_EQ(Target, std::vector<std::uint8_t>(64, 0xAB));
  EXPECT_EQ(After, std::vector<std::uint8_t>(32, 0x33));

  int Unmapped = 0;
  auto Bad = RT.memsetDevice(&Unmapped, 0);
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_EQ(Bad.error().message(), "memsetDevice: pointer is not mapped");
}

TEST_F(HostRuntimeTest, ExitWithCopyFrom) {
  HostRuntime RT(GPU);
  std::vector<std::int64_t> Buf{7};
  auto Addr = RT.enterData(Buf.data(), 8);
  ASSERT_TRUE(Addr.hasValue());
  // Device-side change (simulated via direct write).
  std::int64_t V = 123;
  GPU.write(*Addr, std::span(reinterpret_cast<const std::uint8_t *>(&V), 8));
  ASSERT_TRUE(RT.exitData(Buf.data(), /*CopyFrom=*/true).hasValue());
  EXPECT_EQ(Buf[0], 123);
}

TEST_F(HostRuntimeTest, LaunchTranslatesMappedPointers) {
  // Kernel: out[tid] = scale * in[tid].
  Module M;
  Function *K = M.createFunction("scale_k", Type::voidTy(),
                                 {Type::ptr(), Type::ptr(), Type::f64()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  Value *Tid = B.zext(B.threadId(), Type::i64());
  Value *Off = B.mul(Tid, B.i64(8));
  Value *V = B.load(Type::f64(), B.gep(K->arg(0), Off));
  B.store(B.fmul(V, K->arg(2)), B.gep(K->arg(1), Off));
  B.retVoid();

  HostRuntime RT(GPU);
  ASSERT_TRUE(RT.registerImage(M).hasValue());
  constexpr std::uint32_t T = 16;
  std::vector<double> In(T), Out(T, 0.0);
  for (std::uint32_t I = 0; I < T; ++I)
    In[I] = I + 1.0;
  ASSERT_TRUE(RT.enterData(In.data(), T * 8).hasValue());
  ASSERT_TRUE(RT.enterData(Out.data(), T * 8, /*CopyTo=*/false).hasValue());
  const KernelArg Args[] = {KernelArg::mapped(In.data()),
                            KernelArg::mapped(Out.data()),
                            KernelArg::f64(2.5)};
  auto LR = RT.launch("scale_k", Args, 1, T);
  ASSERT_TRUE(LR.hasValue()) << LR.error().message();
  ASSERT_TRUE(LR->Ok) << LR->Error;
  ASSERT_TRUE(RT.updateFrom(Out.data()).hasValue());
  for (std::uint32_t I = 0; I < T; ++I)
    EXPECT_DOUBLE_EQ(Out[I], (I + 1.0) * 2.5);
}

TEST_F(HostRuntimeTest, LaunchRejectsUnknownKernelAndUnmappedArgs) {
  HostRuntime RT(GPU);
  EXPECT_FALSE(RT.launch("nope", {}, 1, 1).hasValue());
  Module M;
  Function *K = M.createFunction("k", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.retVoid();
  ASSERT_TRUE(RT.registerImage(M).hasValue());
  int X = 0;
  const KernelArg Args[] = {KernelArg::mapped(&X)};
  EXPECT_FALSE(RT.launch("k", Args, 1, 1).hasValue());
}

TEST_F(HostRuntimeTest, LaunchErrorNamesKernelArgumentAndCause) {
  HostRuntime RT(GPU);
  Module M;
  Function *K = M.createFunction("pinpoint_k", Type::voidTy(),
                                 {Type::i64(), Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.retVoid();
  ASSERT_TRUE(RT.registerImage(M).hasValue());
  int X = 0;
  const KernelArg Args[] = {KernelArg::i64(3), KernelArg::mapped(&X)};
  auto R = RT.launch("pinpoint_k", Args, 1, 1);
  ASSERT_FALSE(R.hasValue());
  const std::string &Msg = R.error().message();
  EXPECT_NE(Msg.find("pinpoint_k"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("argument #1"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("not mapped"), std::string::npos)
      << Msg << " (must carry the underlying lookup error)";
}

TEST_F(HostRuntimeTest, EnterDataPropagatesDeviceExhaustion) {
  vgpu::DeviceConfig Small;
  Small.GlobalMemBytes = 4096;
  vgpu::VirtualGPU TinyGPU(Small);
  HostRuntime RT(TinyGPU);
  std::vector<std::uint8_t> Big(1 << 20);
  auto R = RT.enterData(Big.data(), Big.size());
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().message().find("exhausted"), std::string::npos)
      << R.error().message();
  EXPECT_EQ(RT.numMappings(), 0u) << "failed mapping must not leak an entry";
  // The runtime stays usable after the failure.
  std::vector<std::uint8_t> Ok(256);
  ASSERT_TRUE(RT.enterData(Ok.data(), Ok.size()).hasValue());
  ASSERT_TRUE(RT.exitData(Ok.data()).hasValue());
}

TEST_F(HostRuntimeTest, ConcurrentEnterExitKeepsRefcountsConsistent) {
  HostRuntime RT(GPU);
  constexpr int NumThreads = 4;
  constexpr int Rounds = 200;
  // Each thread maps/unmaps a private buffer and a shared one; the shared
  // mapping's refcount must balance to zero at the end.
  std::vector<std::uint8_t> Shared(128);
  std::vector<std::vector<std::uint8_t>> Private(NumThreads);
  for (auto &P : Private)
    P.resize(64);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      for (int R = 0; R < Rounds; ++R) {
        ASSERT_TRUE(RT.enterData(Shared.data(), Shared.size()).hasValue());
        ASSERT_TRUE(
            RT.enterData(Private[T].data(), Private[T].size()).hasValue());
        ASSERT_TRUE(RT.isPresent(Shared.data()));
        ASSERT_TRUE(RT.exitData(Private[T].data()).hasValue());
        ASSERT_TRUE(RT.exitData(Shared.data()).hasValue());
      }
    });
  }
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(RT.numMappings(), 0u);
  EXPECT_FALSE(RT.isPresent(Shared.data()));
  EXPECT_EQ(GPU.bytesInUse(), 0u);
}

namespace {

/// Add one trivial kernel of the given name to M.
void addKernel(Module &M, const std::string &Name) {
  Function *K = M.createFunction(Name, Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.retVoid();
}

} // namespace

TEST_F(HostRuntimeTest, DuplicateKernelNameRejected) {
  HostRuntime RT(GPU);
  Module First;
  addKernel(First, "dup_k");
  ASSERT_TRUE(RT.registerImage(First).hasValue());
  Module Second;
  addKernel(Second, "dup_k");
  auto R = RT.registerImage(Second);
  ASSERT_FALSE(R.hasValue())
      << "silently overwriting a kernel binding must be rejected";
  EXPECT_NE(R.error().message().find("dup_k"), std::string::npos)
      << R.error().message();
  // The first binding stays launchable; the rejected image registered
  // nothing.
  EXPECT_TRUE(RT.launch("dup_k", {}, 1, 1).hasValue());
}

TEST_F(HostRuntimeTest, RejectedImageRegistersNoKernels) {
  HostRuntime RT(GPU);
  Module First;
  addKernel(First, "atomic_a");
  ASSERT_TRUE(RT.registerImage(First).hasValue());
  // Second image carries a fresh kernel AND a duplicate: rejecting it must
  // register neither (validate-then-mutate, no partial registration).
  Module Second;
  addKernel(Second, "atomic_b");
  addKernel(Second, "atomic_a");
  EXPECT_FALSE(RT.registerImage(Second).hasValue());
  EXPECT_FALSE(RT.launch("atomic_b", {}, 1, 1).hasValue())
      << "a rejected image must not leave partial kernel bindings behind";
}

TEST_F(HostRuntimeTest, UnregisterImageAllowsReRegistration) {
  HostRuntime RT(GPU);
  Module First;
  addKernel(First, "swap_k");
  ASSERT_TRUE(RT.registerImage(First).hasValue());
  ASSERT_TRUE(RT.unregisterImage(First).hasValue());
  EXPECT_FALSE(RT.launch("swap_k", {}, 1, 1).hasValue())
      << "unregistered kernels must no longer resolve";
  Module Second;
  addKernel(Second, "swap_k");
  ASSERT_TRUE(RT.registerImage(Second).hasValue())
      << "the name must be free again after unregistering";
  EXPECT_TRUE(RT.launch("swap_k", {}, 1, 1).hasValue());
}

TEST_F(HostRuntimeTest, UnregisterImageKeepsOtherImagesLaunchable) {
  HostRuntime RT(GPU);
  Module First, Second;
  addKernel(First, "first_k");
  addKernel(Second, "second_k");
  ASSERT_TRUE(RT.registerImage(First).hasValue());
  ASSERT_TRUE(RT.registerImage(Second).hasValue());
  ASSERT_TRUE(RT.unregisterImage(First).hasValue());
  EXPECT_FALSE(RT.launch("first_k", {}, 1, 1).hasValue());
  auto LR = RT.launch("second_k", {}, 1, 1);
  ASSERT_TRUE(LR.hasValue()) << LR.error().message();
  EXPECT_TRUE(LR->Ok) << LR->Error;
  EXPECT_EQ(RT.findKernel("second_k"), Second.findFunction("second_k"));
}

TEST_F(HostRuntimeTest, UnregisterUnknownModuleReportsError) {
  HostRuntime RT(GPU);
  Module Unknown;
  addKernel(Unknown, "never_registered");
  auto R = RT.unregisterImage(Unknown);
  ASSERT_FALSE(R.hasValue())
      << "unregistering a never-registered module must be reported";
  EXPECT_NE(R.error().message().find("never registered"), std::string::npos)
      << R.error().message();
  // Double-unregister is the same bookkeeping bug and also reports.
  Module Once;
  addKernel(Once, "once_k");
  ASSERT_TRUE(RT.registerImage(Once).hasValue());
  ASSERT_TRUE(RT.unregisterImage(Once).hasValue());
  EXPECT_FALSE(RT.unregisterImage(Once).hasValue());
}

TEST_F(HostRuntimeTest, UnregisterWithInFlightLaunchReportsError) {
  // A kernel whose body blocks inside a native op until released: the
  // launch is genuinely in flight when the main thread tries to pull the
  // image out from under it.
  std::atomic<bool> Entered{false};
  std::atomic<bool> Release{false};
  const std::int64_t GateId = GPU.registry().add(vgpu::NativeOpInfo{
      "unregister_gate",
      [&](vgpu::NativeCtx &) {
        Entered.store(true);
        while (!Release.load())
          std::this_thread::yield();
      },
      0});
  Module M;
  Function *K = M.createFunction("gated_k", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.nativeOp(GateId, Type::voidTy(), {},
             NativeOpFlags{/*ReadsMemory=*/true, /*WritesMemory=*/true,
                           /*Divergent=*/false});
  B.retVoid();

  HostRuntime RT(GPU);
  ASSERT_TRUE(RT.registerImage(M).hasValue());
  std::thread Launcher([&] {
    auto R = RT.launch("gated_k", {}, 1, 1);
    ASSERT_TRUE(R.hasValue()) << R.error().message();
    EXPECT_TRUE(R->Ok) << R->Error;
  });
  while (!Entered.load())
    std::this_thread::yield();
  auto Busy = RT.unregisterImage(M);
  ASSERT_FALSE(Busy.hasValue())
      << "unregistering a module with a running launch must be refused";
  EXPECT_NE(Busy.error().message().find("in-flight"), std::string::npos)
      << Busy.error().message();
  Release.store(true);
  Launcher.join();
  EXPECT_TRUE(RT.unregisterImage(M).hasValue())
      << "once the launch completed, unregistering must succeed";
}

TEST_F(HostRuntimeTest, LaunchRequestIsTheValidatedEntryPoint) {
  HostRuntime RT(GPU);
  Module M;
  addKernel(M, "req_k");
  ASSERT_TRUE(RT.registerImage(M).hasValue());
  // Structural validation fires before any kernel lookup.
  LaunchRequest Empty;
  EXPECT_FALSE(RT.launch(Empty).hasValue()) << "empty kernel name";
  LaunchRequest ZeroTeams = LaunchRequest::make("req_k", {}, 0, 1);
  auto R = RT.launch(ZeroTeams);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().message().find("nonzero"), std::string::npos)
      << R.error().message();
  // The positional wrapper and the request form take the same path.
  auto ViaRequest = RT.launch(LaunchRequest::make("req_k", {}, 2, 4, "tenantA"));
  ASSERT_TRUE(ViaRequest.hasValue()) << ViaRequest.error().message();
  EXPECT_TRUE(ViaRequest->Ok);
  auto ViaWrapper = RT.launch("req_k", {}, 2, 4);
  ASSERT_TRUE(ViaWrapper.hasValue());
  EXPECT_EQ(ViaRequest->Metrics.KernelCycles, ViaWrapper->Metrics.KernelCycles)
      << "both entry points must produce identical launches";
}

} // namespace
} // namespace codesign::host
