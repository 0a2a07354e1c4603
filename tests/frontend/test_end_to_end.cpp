//===- tests/frontend/test_end_to_end.cpp ---------------------------------===//
//
// Integration tests: KernelSpec -> codegen -> runtime link -> execution on
// the virtual GPU, for all three lowering paths, WITHOUT any optimization.
// Every path must compute identical results; the costs differ (that is the
// paper's whole point), which the later bench layer measures.
//
//===----------------------------------------------------------------------===//
#include "frontend/Driver.hpp"
#include "frontend/TargetCompiler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "ir/Printer.hpp"
#include "ir/Verifier.hpp"
#include "rt/RuntimeABI.hpp"
#include "vgpu/VirtualGPU.hpp"

namespace codesign::frontend {
namespace {

using vgpu::DeviceAddr;
using vgpu::LaunchResult;
using vgpu::NativeCtx;
using vgpu::NativeOpInfo;
using vgpu::VirtualGPU;

/// Fixture providing a device with a registered "saxpy element" body:
/// y[i] = a * x[i] + y[i].
class EndToEnd : public ::testing::Test {
protected:
  void SetUp() override {
    GPU = std::make_unique<VirtualGPU>();
    SaxpyId = GPU->registry().add(NativeOpInfo{
        "saxpy_elem",
        [](NativeCtx &Ctx) {
          const std::int64_t I = Ctx.argI64(0);
          const DeviceAddr X = Ctx.argPtr(1);
          const DeviceAddr Y = Ctx.argPtr(2);
          const double A = Ctx.argF64(3);
          const double Xi = Ctx.loadF64(X.advance(I * 8));
          const double Yi = Ctx.loadF64(Y.advance(I * 8));
          Ctx.storeF64(Y.advance(I * 8), A * Xi + Yi);
          Ctx.chargeCycles(8);
        },
        6});
  }

  KernelSpec saxpySpec() const {
    KernelSpec Spec;
    Spec.Name = "saxpy";
    Spec.Params = {{ir::Type::ptr(), "x"},
                   {ir::Type::ptr(), "y"},
                   {ir::Type::f64(), "a"},
                   {ir::Type::i64(), "n"}};
    NativeBody Body;
    Body.NativeId = SaxpyId;
    Body.Args = {BodyArg::iter(), BodyArg::arg(0), BodyArg::arg(1),
                 BodyArg::arg(2)};
    Spec.Stmts = {
        Stmt::distributeParallelFor(TripCount::argument(3), Body)};
    return Spec;
  }

  /// Compile (no optimization), link, execute, and return the device
  /// metrics; validates results against a host reference.
  LaunchResult runSaxpy(const CodegenOptions &Opts, std::uint64_t N,
                        std::uint32_t Teams, std::uint32_t Threads) {
    auto CG = emitKernel(saxpySpec(), Opts);
    EXPECT_TRUE(CG.hasValue()) << (CG.hasValue() ? "" : CG.error().message());
    auto Linked = linkRuntime(*CG->AppModule, Opts.RT);
    EXPECT_TRUE(Linked.hasValue());
    auto Errors = ir::verifyModule(*CG->AppModule);
    EXPECT_TRUE(Errors.empty()) << (Errors.empty() ? "" : Errors.front());

    std::vector<double> X(N), Y(N), Expected(N);
    for (std::uint64_t I = 0; I < N; ++I) {
      X[I] = 0.5 * static_cast<double>(I);
      Y[I] = 1.0 + static_cast<double>(I % 7);
      Expected[I] = 2.0 * X[I] + Y[I];
    }
    DeviceAddr DX = GPU->allocate(N * 8);
    DeviceAddr DY = GPU->allocate(N * 8);
    GPU->write(DX, std::span(reinterpret_cast<const std::uint8_t *>(X.data()),
                             N * 8));
    GPU->write(DY, std::span(reinterpret_cast<const std::uint8_t *>(Y.data()),
                             N * 8));
    auto Image = GPU->loadImage(*CG->AppModule);
    double A = 2.0;
    std::uint64_t ABits;
    std::memcpy(&ABits, &A, 8);
    std::uint64_t Args[] = {DX.Bits, DY.Bits, ABits, N};
    LaunchResult R = GPU->launch(*Image, "saxpy", Args, Teams, Threads);
    EXPECT_TRUE(R.Ok) << R.Error;
    if (R.Ok) {
      std::vector<double> Out(N);
      GPU->read(DY, std::span(reinterpret_cast<std::uint8_t *>(Out.data()),
                              N * 8));
      for (std::uint64_t I = 0; I < N; ++I)
        EXPECT_DOUBLE_EQ(Out[I], Expected[I]) << "index " << I;
    }
    GPU->release(DX);
    GPU->release(DY);
    return R;
  }

  std::unique_ptr<VirtualGPU> GPU;
  std::int64_t SaxpyId = 0;
};

TEST_F(EndToEnd, NativePath) {
  CodegenOptions Opts;
  Opts.RT = RuntimeKind::Native;
  runSaxpy(Opts, 1024, 8, 64);
}

TEST_F(EndToEnd, NewRuntimeSpmdPath) {
  CodegenOptions Opts;
  Opts.RT = RuntimeKind::NewRT;
  runSaxpy(Opts, 1024, 8, 64);
}

TEST_F(EndToEnd, NewRuntimeGenericPath) {
  CodegenOptions Opts;
  Opts.RT = RuntimeKind::NewRT;
  Opts.ForceGenericMode = true;
  runSaxpy(Opts, 1024, 8, 64);
}

TEST_F(EndToEnd, OldRuntimePath) {
  if (!hasOldRT())
    GTEST_SKIP() << "built without -DCODESIGN_BUILD_OLDRT=ON";
  CodegenOptions Opts;
  Opts.RT = RuntimeKind::OldRT;
  runSaxpy(Opts, 1024, 8, 64);
}

TEST_F(EndToEnd, RaceDetectorExemptsTheConditionalWriteDummy) {
  // The runtime initializes team state with conditional writes (Figure
  // 7b): every thread stores, and all but the main thread store to the
  // shared dummy. The shared-memory race detector must stay quiet on that
  // idiom in an unoptimized SPMD kernel, on the backends that detect races.
  for (const char *Backend : {"tree", "bytecode"}) {
    SCOPED_TRACE(Backend);
    ASSERT_TRUE(GPU->setExecBackend(Backend).hasValue());
    GPU->setDetectRaces(true);
    CodegenOptions Opts;
    Opts.RT = RuntimeKind::NewRT;
    runSaxpy(Opts, 256, 2, 32);
  }
}

TEST_F(EndToEnd, AwkwardShapes) {
  for (auto [Teams, Threads, N] :
       {std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>{1, 2, 3},
        {3, 33, 100},
        {16, 64, 999}}) {
    for (RuntimeKind RT :
         {RuntimeKind::Native, RuntimeKind::NewRT, RuntimeKind::OldRT}) {
      if (RT == RuntimeKind::OldRT && !hasOldRT())
        continue;
      CodegenOptions Opts;
      Opts.RT = RT;
      runSaxpy(Opts, N, Teams, Threads);
    }
  }
}

TEST_F(EndToEnd, BodyArgumentsAgreeAcrossLowerings) {
  // A worksharing body receives omp_get_num_threads(), omp_get_num_teams()
  // and a literal; each lowering, unoptimized, passes the launch shape. In
  // generic mode the team's main thread runs no iteration, so the parallel
  // region has one thread fewer.
  const std::int64_t RecordId = GPU->registry().add(NativeOpInfo{
      "record",
      [](NativeCtx &Ctx) {
        const DeviceAddr Row = Ctx.argPtr(0).advance(Ctx.argI64(1) * 24);
        for (unsigned K = 0; K < 3; ++K)
          Ctx.storeI64(Row.advance(K * 8), Ctx.argI64(2 + K));
      },
      4});
  KernelSpec Spec;
  Spec.Name = "record_k";
  Spec.Params = {{ir::Type::ptr(), "out"}, {ir::Type::i64(), "n"}};
  NativeBody Body;
  Body.NativeId = RecordId;
  Body.Args = {BodyArg::arg(0), BodyArg::iter(), BodyArg::numThreads(),
               BodyArg::numTeams(), BodyArg::constant(7)};
  Spec.Stmts = {Stmt::distributeParallelFor(TripCount::argument(1), Body)};
  constexpr std::uint64_t N = 40;
  constexpr std::uint32_t Teams = 3, Threads = 16;
  for (const auto &[RT, Generic] :
       {std::pair{RuntimeKind::Native, false},
        std::pair{RuntimeKind::NewRT, false},
        std::pair{RuntimeKind::NewRT, true}}) {
    SCOPED_TRACE(::testing::Message() << "generic " << Generic);
    CodegenOptions Opts;
    Opts.RT = RT;
    Opts.ForceGenericMode = Generic;
    auto CG = emitKernel(Spec, Opts);
    ASSERT_TRUE(CG.hasValue()) << CG.error().message();
    ASSERT_TRUE(linkRuntime(*CG->AppModule, Opts.RT).hasValue());
    ASSERT_TRUE(ir::verifyModule(*CG->AppModule).empty());
    DeviceAddr Out = GPU->allocate(N * 24);
    auto Image = GPU->loadImage(*CG->AppModule);
    std::uint64_t Args[] = {Out.Bits, N};
    LaunchResult R = GPU->launch(*Image, "record_k", Args, Teams, Threads);
    ASSERT_TRUE(R.Ok) << R.Error;
    std::vector<std::int64_t> Rows(N * 3);
    GPU->read(Out, std::span(reinterpret_cast<std::uint8_t *>(Rows.data()),
                             N * 24));
    for (std::uint64_t I = 0; I < N; ++I) {
      EXPECT_EQ(Rows[I * 3], std::int64_t{Threads} - (Generic ? 1 : 0))
          << "row " << I;
      EXPECT_EQ(Rows[I * 3 + 1], std::int64_t{Teams}) << "row " << I;
      EXPECT_EQ(Rows[I * 3 + 2], 7) << "row " << I;
    }
    GPU->release(Out);
  }
}

TEST_F(EndToEnd, NumThreadsWritesAndNestedRegionsLowerEverywhere) {
  // omp_set_num_threads at the top and inside a parallel region whose
  // worksharing loop reads the region's scratch, then a nested parallel:
  // every lowering runs each iteration once.
  const std::int64_t IncId = GPU->registry().add(NativeOpInfo{
      "inc",
      [](NativeCtx &Ctx) {
        const DeviceAddr At = Ctx.argPtr(0).advance(Ctx.argI64(1) * 8);
        Ctx.storeI64(At, Ctx.loadI64(At) + 1);
      },
      3});
  const std::int64_t TouchId = GPU->registry().add(
      NativeOpInfo{"touch", [](NativeCtx &Ctx) { Ctx.chargeCycles(1); }, 1});
  KernelSpec Spec;
  Spec.Name = "nest_k";
  Spec.Params = {{ir::Type::ptr(), "out"}, {ir::Type::i64(), "n"}};
  NativeBody Inc{IncId,
                 {BodyArg::arg(0), BodyArg::iter(), BodyArg::scratch()},
                 {}};
  NativeBody Touch{TouchId, {}, {}};
  Spec.Stmts = {
      Stmt::setNumThreads(8),
      Stmt::parallel({Stmt::setNumThreads(8),
                      Stmt::forLoop(TripCount::argument(1), Inc),
                      Stmt::parallel({Stmt::parallelWork(Touch)})},
                     0, /*ScratchBytes=*/16)};
  constexpr std::uint64_t N = 50;
  for (const auto &[RT, Generic] :
       {std::pair{RuntimeKind::Native, false},
        std::pair{RuntimeKind::NewRT, false},
        std::pair{RuntimeKind::NewRT, true}}) {
    SCOPED_TRACE(::testing::Message() << "generic " << Generic);
    CodegenOptions Opts;
    Opts.RT = RT;
    Opts.ForceGenericMode = Generic;
    auto CG = emitKernel(Spec, Opts);
    ASSERT_TRUE(CG.hasValue()) << CG.error().message();
    ASSERT_TRUE(linkRuntime(*CG->AppModule, Opts.RT).hasValue());
    ASSERT_TRUE(ir::verifyModule(*CG->AppModule).empty());
    DeviceAddr Out = GPU->allocate(N * 8);
    std::vector<std::int64_t> Counts(N, 0);
    GPU->write(Out, std::span(reinterpret_cast<const std::uint8_t *>(
                                  Counts.data()),
                              N * 8));
    auto Image = GPU->loadImage(*CG->AppModule);
    std::uint64_t Args[] = {Out.Bits, N};
    LaunchResult R = GPU->launch(*Image, "nest_k", Args, 1, 16);
    ASSERT_TRUE(R.Ok) << R.Error;
    GPU->read(Out, std::span(reinterpret_cast<std::uint8_t *>(Counts.data()),
                             N * 8));
    EXPECT_EQ(Counts, std::vector<std::int64_t>(N, 1));
    GPU->release(Out);
  }
}

TEST_F(EndToEnd, InvalidNestingIsRejectedByName) {
  NativeBody Body{SaxpyId, {BodyArg::iter()}, {}};
  // Body arguments a region cannot supply under every lowering: the
  // iteration variable outside a loop body, and the scratch pointer outside
  // a loop body or in a region that allocates none.
  NativeBody IterScratch{SaxpyId, {BodyArg::iter(), BodyArg::scratch()}, {}};
  NativeBody ScratchOnly{SaxpyId, {BodyArg::scratch()}, {}};
  const std::pair<Stmt, const char *> Cases[] = {
      {Stmt::parallel(
           {Stmt::distributeParallelFor(TripCount::argument(0), Body)}),
       "combined distribute inside 'parallel'"},
      {Stmt::parallel({Stmt::parallel(
           {Stmt::forLoop(TripCount::argument(0), Body)})}),
       "worksharing inside a nested parallel"},
      {Stmt::serial(Body), "iteration variable outside a worksharing loop"},
      {Stmt::parallelWork(Body),
       "iteration variable outside a worksharing loop"},
      {Stmt::serial(ScratchOnly),
       "scratch pointer outside a worksharing loop"},
      {Stmt::parallel({Stmt::parallelWork(ScratchOnly)}, 0,
                      /*ScratchBytes=*/16),
       "scratch pointer outside a worksharing loop"},
      {Stmt::parallel({Stmt::parallel({Stmt::parallelWork(ScratchOnly)})}, 0,
                      /*ScratchBytes=*/16),
       "scratch pointer outside a worksharing loop"},
      {Stmt::parallel({Stmt::forLoop(TripCount::argument(0), IterScratch)}),
       "scratch pointer in a region without scratch"},
      {Stmt::distributeParallelFor(TripCount::argument(0), IterScratch),
       "scratch pointer in a region without scratch"},
  };
  for (const auto &[Top, Want] : Cases) {
    KernelSpec Spec;
    Spec.Name = "bad";
    Spec.Params = {{ir::Type::i64(), "n"}};
    Spec.Stmts = {Top};
    for (RuntimeKind RT : {RuntimeKind::Native, RuntimeKind::NewRT}) {
      CodegenOptions Opts;
      Opts.RT = RT;
      auto CG = emitKernel(Spec, Opts);
      ASSERT_FALSE(CG.hasValue()) << Want;
      EXPECT_EQ(CG.error().message(), std::string("kernel 'bad': ") + Want);
    }
  }
}

TEST_F(EndToEnd, SpecParameterMisuseIsRejectedByName) {
  // Parameter references the kernel cannot honour: an index at or past the
  // parameter count (in kernel scope and in an outlined body), an argument
  // trip count that is not i64, and a loaded trip count whose parameter is
  // not a pointer. Each is caller input, so each is an error, not an abort.
  const auto Body = [&](std::initializer_list<BodyArg> Args) {
    return NativeBody{SaxpyId, Args, {}};
  };
  const std::pair<Stmt, const char *> Cases[] = {
      {Stmt::distributeParallelFor(TripCount::argument(0),
                                   Body({BodyArg::iter(), BodyArg::arg(5)})),
       "body argument names parameter #5, but the kernel has 3"},
      {Stmt::parallel({Stmt::forLoop(
           TripCount::argument(0), Body({BodyArg::iter(), BodyArg::arg(3)}))}),
       "body argument names parameter #3, but the kernel has 3"},
      {Stmt::serial(Body({BodyArg::arg(4)})),
       "body argument names parameter #4, but the kernel has 3"},
      {Stmt::parallel({Stmt::parallelWork(Body({BodyArg::arg(9)}))}),
       "body argument names parameter #9, but the kernel has 3"},
      {Stmt::distributeParallelFor(TripCount::argument(3),
                                   Body({BodyArg::iter()})),
       "trip count names parameter #3, but the kernel has 3"},
      {Stmt::parallel({Stmt::forLoop(TripCount::loadFrom(7, 0),
                                     Body({BodyArg::iter()}))}),
       "trip count names parameter #7, but the kernel has 3"},
      {Stmt::distributeParallelFor(TripCount::argument(1),
                                   Body({BodyArg::iter()})),
       "trip count parameter 'a' is f64, not i64"},
      {Stmt::parallel({Stmt::forLoop(TripCount::argument(2),
                                     Body({BodyArg::iter()}))}),
       "trip count parameter 'bounds' is ptr, not i64"},
      {Stmt::distributeParallelFor(TripCount::loadFrom(0, 8),
                                   Body({BodyArg::iter()})),
       "trip count loads through parameter 'n', which is i64, not a pointer"},
  };
  KernelSpec Spec;
  Spec.Name = "bad";
  Spec.Params = {{ir::Type::i64(), "n"},
                 {ir::Type::f64(), "a"},
                 {ir::Type::ptr(), "bounds"}};
  for (const auto &[Top, Want] : Cases) {
    Spec.Stmts = {Top};
    for (RuntimeKind RT : {RuntimeKind::Native, RuntimeKind::NewRT}) {
      CodegenOptions Opts;
      Opts.RT = RT;
      auto CG = emitKernel(Spec, Opts);
      ASSERT_FALSE(CG.hasValue()) << Want;
      EXPECT_EQ(CG.error().message(), std::string("kernel 'bad': ") + Want);
    }
  }
  // The same parameters used as they are meant to be compile.
  Spec.Stmts = {Stmt::distributeParallelFor(
      TripCount::loadFrom(2, 8), Body({BodyArg::iter(), BodyArg::arg(1)}))};
  EXPECT_TRUE(emitKernel(Spec, {}).hasValue());
}

TEST_F(EndToEnd, UnoptimizedCostOrdering) {
  // Before any optimization the expected ordering holds: the legacy
  // runtime is slowest, the new runtime cheaper, native cheapest.
  CodegenOptions Native, NewRT;
  Native.RT = RuntimeKind::Native;
  NewRT.RT = RuntimeKind::NewRT;
  const auto RNative = runSaxpy(Native, 4096, 8, 64);
  const auto RNew = runSaxpy(NewRT, 4096, 8, 64);
  EXPECT_LT(RNative.Metrics.KernelCycles, RNew.Metrics.KernelCycles);
  if (hasOldRT()) {
    CodegenOptions OldRT;
    OldRT.RT = RuntimeKind::OldRT;
    const auto ROld = runSaxpy(OldRT, 4096, 8, 64);
    EXPECT_LT(RNew.Metrics.KernelCycles, ROld.Metrics.KernelCycles);
  }
}

TEST_F(EndToEnd, DebugTracingCountsRuntimeEntries) {
  // Function tracing (Section III-G): with the debug-kind trace bit set,
  // the runtime counts entries into host-readable counters; with it clear,
  // the counters stay zero.
  for (bool Tracing : {true, false}) {
    CodegenOptions Opts;
    Opts.RT = RuntimeKind::NewRT;
    Opts.DebugKind = Tracing ? rt::DebugFunctionTracing : 0;
    auto CG = emitKernel(saxpySpec(), Opts);
    ASSERT_TRUE(CG.hasValue());
    ASSERT_TRUE(linkRuntime(*CG->AppModule, Opts.RT).hasValue());

    constexpr std::uint64_t N = 64;
    std::vector<double> Buf(N, 1.0);
    DeviceAddr DX = GPU->allocate(N * 8);
    DeviceAddr DY = GPU->allocate(N * 8);
    auto Image = GPU->loadImage(*CG->AppModule);
    double A = 1.0;
    std::uint64_t ABits;
    std::memcpy(&ABits, &A, 8);
    std::uint64_t Args[] = {DX.Bits, DY.Bits, ABits, N};
    constexpr std::uint32_t Teams = 4;
    ASSERT_TRUE(GPU->launch(*Image, "saxpy", Args, Teams, 16).Ok);

    // Read back the counters through the image's global address.
    const ir::GlobalVariable *Counts =
        CG->AppModule->findGlobal(rt::TraceCountsName);
    ASSERT_NE(Counts, nullptr);
    std::vector<std::uint64_t> Slots(
        static_cast<std::size_t>(rt::TraceSlot::NumSlots));
    GPU->read(Image->addressOf(Counts),
              std::span(reinterpret_cast<std::uint8_t *>(Slots.data()),
                        Slots.size() * 8));
    const std::uint64_t InitCount =
        Slots[static_cast<std::size_t>(rt::TraceSlot::TargetInit)];
    if (Tracing)
      EXPECT_EQ(InitCount, Teams * 16u) << "every thread enters target_init";
    else
      EXPECT_EQ(InitCount, 0u);
    GPU->release(DX);
    GPU->release(DY);
  }
}

//===----------------------------------------------------------------------===//
// Linking the runtime by closure
//===----------------------------------------------------------------------===//

TEST_F(EndToEnd, SpmdSaxpyLinksOnlyWhatItCalls) {
  // An SPMD kernel never forks, so the state machine, the parallel entry
  // and the ICV-writing entries stay out of its module.
  auto CG = emitKernel(saxpySpec(), CodegenOptions{});
  ASSERT_TRUE(CG.hasValue());
  ASSERT_TRUE(linkRuntime(*CG->AppModule, RuntimeKind::NewRT).hasValue());
  const ir::Module &M = *CG->AppModule;
  const std::string_view Unlinked[] = {
      rt::ParallelName,          rt::WorkFnWaitName,
      rt::WorkFnArgsName,        rt::WorkFnDoneName,
      rt::SetNumThreadsName,     "__kmpc_thread_state_push",
      "__kmpc_thread_state_pop"};
  for (std::string_view Name : Unlinked)
    EXPECT_EQ(M.findFunction(Name), nullptr) << Name;
  for (std::string_view Name : rt::SpmdizationEntryPoints)
    EXPECT_NE(M.findFunction(Name), nullptr) << Name;
  EXPECT_TRUE(ir::verifyModule(M).empty());
}

TEST_F(EndToEnd, GenericKernelLinksSpmdizationRootsAndConverts) {
  // The generic lowering calls none of the entry points SPMDization
  // introduces; the link copies them anyway, so the conversion happens.
  CodegenOptions Opts;
  Opts.ForceGenericMode = true;
  auto CG = emitKernel(saxpySpec(), Opts);
  ASSERT_TRUE(CG.hasValue());
  for (std::string_view Name : rt::SpmdizationEntryPoints)
    EXPECT_EQ(CG->AppModule->findFunction(Name), nullptr) << Name;
  ASSERT_TRUE(linkRuntime(*CG->AppModule, RuntimeKind::NewRT).hasValue());
  for (std::string_view Name : rt::SpmdizationEntryPoints) {
    const ir::Function *F = CG->AppModule->findFunction(Name);
    ASSERT_NE(F, nullptr) << Name;
    EXPECT_FALSE(F->isDeclaration()) << Name;
  }

  auto CK = compileKernel(saxpySpec(),
                          CompileOptions::newRTNoAssumptions()
                              .withForceGenericMode()
                              .withKernelCache(false),
                          GPU->registry());
  ASSERT_TRUE(CK.hasValue()) << CK.error().message();
  EXPECT_EQ(CK->Kernel->execMode(), ir::ExecMode::SPMD);
}

TEST_F(EndToEnd, EveryNewRuntimeModuleHoldsTraceCounts) {
  // The host reads the trace counters back by name, so they are linked
  // even where no function references them (tracing off).
  for (bool Generic : {false, true})
    for (std::int32_t Debug :
         {0, rt::DebugAssertions,
          rt::DebugAssertions | rt::DebugFunctionTracing})
      for (bool Optimize : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "generic " << Generic
                                          << ", debug " << Debug
                                          << ", optimized " << Optimize);
        auto CK = compileKernel(saxpySpec(),
                                CompileOptions::newRTNoAssumptions()
                                    .withForceGenericMode(Generic)
                                    .withDebug(Debug)
                                    .withOptimizer(Optimize)
                                    .withKernelCache(false),
                                GPU->registry());
        ASSERT_TRUE(CK.hasValue()) << CK.error().message();
        const ir::GlobalVariable *Counts =
            CK->M->findGlobal(rt::TraceCountsName);
        ASSERT_NE(Counts, nullptr);
        EXPECT_FALSE(Counts->isInternal());
      }
}

TEST_F(EndToEnd, ConcurrentColdCompilesShareOneRuntime) {
  // Four threads compile cold at once, each its own kernel, all linking
  // from the one runtime module (built by whichever thread comes first).
  // Each module prints exactly as the same spec compiled alone.
  struct Job {
    std::string Name;
    CompileOptions Options;
  };
  const CompileOptions Cold =
      CompileOptions::newRTNoAssumptions().withKernelCache(false);
  const std::vector<Job> Jobs = {
      {"cold_spmd", Cold},
      {"cold_generic", Cold.withForceGenericMode()},
      {"cold_traced",
       Cold.withDebug(rt::DebugAssertions | rt::DebugFunctionTracing)},
      {"cold_unoptimized", Cold.withOptimizer(false)},
  };
  const auto compile = [&](const Job &J) -> std::string {
    KernelSpec Spec = saxpySpec();
    Spec.Name = J.Name;
    auto CK = compileKernel(Spec, J.Options, GPU->registry());
    return CK ? ir::printModule(*CK->M) : "error: " + CK.error().message();
  };

  std::vector<std::string> Concurrent(Jobs.size());
  std::vector<const ir::Module *> Runtimes(Jobs.size());
  std::atomic<std::size_t> Arrived{0};
  std::vector<std::thread> Threads;
  for (std::size_t I = 0; I < Jobs.size(); ++I)
    Threads.emplace_back([&, I] {
      Arrived.fetch_add(1);
      while (Arrived.load() < Jobs.size())
        std::this_thread::yield();
      Concurrent[I] = compile(Jobs[I]);
      Runtimes[I] = runtimeModule(RuntimeKind::NewRT);
    });
  for (std::thread &T : Threads)
    T.join();

  ASSERT_NE(runtimeModule(RuntimeKind::NewRT), nullptr);
  for (std::size_t I = 0; I < Jobs.size(); ++I) {
    SCOPED_TRACE(Jobs[I].Name);
    EXPECT_EQ(Runtimes[I], runtimeModule(RuntimeKind::NewRT));
    EXPECT_EQ(Concurrent[I].find("error: "), std::string::npos)
        << Concurrent[I];
    EXPECT_EQ(Concurrent[I], compile(Jobs[I]));
  }
}

} // namespace
} // namespace codesign::frontend
