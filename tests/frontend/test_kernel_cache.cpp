//===- tests/frontend/test_kernel_cache.cpp - Compiled-kernel cache --------===//
//
// The cache contract: identical (spec, options, native ops) requests share
// one compilation; any switch or spec change misses; remark collection and
// UseKernelCache=false bypass it; hit/miss totals surface through both the
// cache itself and support::Counters.
//
//===----------------------------------------------------------------------===//
#include "frontend/Driver.hpp"
#include "frontend/KernelCache.hpp"

#include <gtest/gtest.h>

#include <vector>

#include <atomic>
#include <thread>

#include "opt/Remark.hpp"
#include "support/Stats.hpp"
#include "vgpu/VirtualGPU.hpp"

namespace codesign::frontend {
namespace {

class KernelCacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    KernelCache::global().clear();
    Counters::global().reset();
    BodyId = GPU.registry().add(vgpu::NativeOpInfo{
        "cache_body",
        [](vgpu::NativeCtx &Ctx) { Ctx.chargeCycles(1); },
        2});
  }

  KernelSpec spec(std::int64_t Trip = 64) const {
    KernelSpec S;
    S.Name = "cached";
    S.Params = {{ir::Type::ptr(), "buf"}};
    NativeBody Body;
    Body.NativeId = BodyId;
    Body.Args = {BodyArg::iter(), BodyArg::arg(0)};
    S.Stmts = {Stmt::distributeParallelFor(TripCount::constant(Trip), Body)};
    return S;
  }

  vgpu::VirtualGPU GPU;
  std::int64_t BodyId = 0;
};

TEST_F(KernelCacheTest, RepeatCompileHitsAndSharesModule) {
  const CompileOptions Opts = CompileOptions::newRT();
  auto A = compileKernel(spec(), Opts, GPU.registry());
  ASSERT_TRUE(A.hasValue()) << A.error().message();
  EXPECT_EQ(KernelCache::global().hits(), 0u);
  EXPECT_EQ(KernelCache::global().misses(), 1u);
  auto B = compileKernel(spec(), Opts, GPU.registry());
  ASSERT_TRUE(B.hasValue());
  EXPECT_EQ(KernelCache::global().hits(), 1u);
  EXPECT_EQ(KernelCache::global().misses(), 1u);
  EXPECT_EQ(A->M.get(), B->M.get()) << "hit must share the compiled module";
  EXPECT_EQ(A->Kernel, B->Kernel);
  EXPECT_EQ(Counters::global().value("kernel-cache.hits"), 1u);
  EXPECT_EQ(Counters::global().value("kernel-cache.misses"), 1u);
}

TEST_F(KernelCacheTest, DifferentOptionsAndSpecsMiss) {
  ASSERT_TRUE(compileKernel(spec(), CompileOptions::newRT(), GPU.registry())
                  .hasValue());
  // Every paper configuration is a distinct key.
  std::vector<CompileOptions> Others = {CompileOptions::newRTNightly(),
                                        CompileOptions::newRTNoAssumptions(),
                                        CompileOptions::cuda()};
  if (hasOldRT())
    Others.push_back(CompileOptions::oldRT());
  for (const CompileOptions &O : Others)
    ASSERT_TRUE(compileKernel(spec(), O, GPU.registry()).hasValue());
  // A spec change is a distinct key.
  ASSERT_TRUE(compileKernel(spec(/*Trip=*/65), CompileOptions::newRT(),
                            GPU.registry())
                  .hasValue());
  const std::uint64_t Expected = 2 + Others.size();
  EXPECT_EQ(KernelCache::global().hits(), 0u);
  EXPECT_EQ(KernelCache::global().misses(), Expected);
  EXPECT_EQ(KernelCache::global().size(), Expected);
}

TEST_F(KernelCacheTest, OptOutAndRemarksBypass) {
  CompileOptions NoCache = CompileOptions::newRT();
  NoCache.UseKernelCache = false;
  ASSERT_TRUE(compileKernel(spec(), NoCache, GPU.registry()).hasValue());
  ASSERT_TRUE(compileKernel(spec(), NoCache, GPU.registry()).hasValue());
  EXPECT_EQ(KernelCache::global().hits(), 0u);
  EXPECT_EQ(KernelCache::global().misses(), 0u);

  // Remark collection must observe a real pipeline run, even with the
  // cache enabled.
  opt::RemarkCollector Remarks;
  const CompileOptions WithRemarks = CompileOptions::newRT().withRemarks(Remarks);
  ASSERT_TRUE(compileKernel(spec(), WithRemarks, GPU.registry()).hasValue());
  EXPECT_EQ(KernelCache::global().hits(), 0u);
  EXPECT_EQ(KernelCache::global().misses(), 0u);
  EXPECT_EQ(KernelCache::global().size(), 0u);
}

TEST_F(KernelCacheTest, CompileErrorsNameTheirCause) {
  // An unknown pass fails resolution; a known pass with an argument it
  // does not take passes resolution and fails when the pass is built; a
  // malformed spec fails in codegen. None of them is cached.
  CompileOptions Unknown = CompileOptions::newRT();
  Unknown.Opt.Pipeline = "nope";
  auto A = compileKernel(spec(), Unknown, GPU.registry());
  ASSERT_FALSE(A.hasValue());
  EXPECT_EQ(A.error().message(),
            "invalid pipeline specification: unknown pass 'nope' in stage "
            "'seq'");
  CompileOptions BadArg = CompileOptions::newRT();
  BadArg.Opt.Pipeline = "dce[bogus]";
  auto B = compileKernel(spec(), BadArg, GPU.registry());
  ASSERT_FALSE(B.hasValue());
  EXPECT_EQ(B.error().message(),
            "invalid pipeline specification: pass 'dce' does not accept "
            "argument 'bogus'");
  KernelSpec Empty = spec();
  Empty.Stmts.clear();
  auto C = compileKernel(Empty, CompileOptions::newRT(), GPU.registry());
  ASSERT_FALSE(C.hasValue());
  EXPECT_EQ(C.error().message(), "kernel 'cached': empty target region");
  EXPECT_EQ(KernelCache::global().size(), 0u);
}

TEST_F(KernelCacheTest, ObserverCompilesBypass) {
  // An attached pass observer must see a real pipeline run each time: no
  // cache insert, no hit, and the callback fires on the repeat compile.
  int PassCount = 0;
  opt::Observer Obs;
  Obs.OnPass = [&](const opt::PassExecution &) { ++PassCount; };
  const CompileOptions Observed =
      CompileOptions::newRT().withObserver(std::move(Obs));
  ASSERT_TRUE(compileKernel(spec(), Observed, GPU.registry()).hasValue());
  const int FirstRun = PassCount;
  EXPECT_GT(FirstRun, 0) << "observer must see the pipeline's passes";
  ASSERT_TRUE(compileKernel(spec(), Observed, GPU.registry()).hasValue());
  EXPECT_EQ(PassCount, 2 * FirstRun)
      << "second compile must re-run the pipeline, not serve the cache";
  EXPECT_EQ(KernelCache::global().hits(), 0u);
  EXPECT_EQ(KernelCache::global().misses(), 0u);
  EXPECT_EQ(KernelCache::global().size(), 0u);
}

TEST_F(KernelCacheTest, SingleSwitchFlipMisses) {
  // Flipping any one optimization switch — with everything else identical —
  // must produce a distinct cache key and therefore a miss.
  const CompileOptions Base = CompileOptions::newRTNoAssumptions();
  ASSERT_TRUE(compileKernel(spec(), Base, GPU.registry()).hasValue());
  ASSERT_EQ(KernelCache::global().misses(), 1u);

  using Flip = void (*)(opt::OptOptions &);
  const Flip Flips[] = {
      [](opt::OptOptions &O) { O.EnableInlining = false; },
      [](opt::OptOptions &O) { O.EnableSPMDization = false; },
      [](opt::OptOptions &O) { O.EnableGlobalizationElim = false; },
      [](opt::OptOptions &O) { O.EnableFieldSensitiveProp = false; },
      [](opt::OptOptions &O) { O.EnableInterprocDominance = false; },
      [](opt::OptOptions &O) { O.EnableAssumedMemoryContent = false; },
      [](opt::OptOptions &O) { O.EnableInvariantProp = false; },
      [](opt::OptOptions &O) { O.EnableAlignedExecReasoning = false; },
      [](opt::OptOptions &O) { O.EnableBarrierElim = false; },
  };
  std::uint64_t ExpectedMisses = 1;
  for (Flip F : Flips) {
    const CompileOptions Flipped = Base.withOptTweak(F);
    ASSERT_TRUE(compileKernel(spec(), Flipped, GPU.registry()).hasValue());
    EXPECT_EQ(KernelCache::global().misses(), ++ExpectedMisses)
        << "a flipped switch must not hit the base entry";
    // The same flipped configuration, again: now it must hit.
    ASSERT_TRUE(compileKernel(spec(), Flipped, GPU.registry()).hasValue());
  }
  EXPECT_EQ(KernelCache::global().hits(), std::size(Flips));
}

TEST_F(KernelCacheTest, CountersMatchObservedHitsAndMisses) {
  // A mixed sequence: 3 distinct compiles, each repeated once, one
  // uncacheable compile interleaved. Cache totals and the process-wide
  // counters must agree with what we observed.
  const CompileOptions A = CompileOptions::newRT();
  const CompileOptions B = CompileOptions::newRTNoAssumptions();
  opt::RemarkCollector Remarks;
  for (int Round = 0; Round < 2; ++Round) {
    ASSERT_TRUE(compileKernel(spec(), A, GPU.registry()).hasValue());
    ASSERT_TRUE(compileKernel(spec(), B, GPU.registry()).hasValue());
    ASSERT_TRUE(compileKernel(spec(128), A, GPU.registry()).hasValue());
    ASSERT_TRUE(compileKernel(spec(), A.withRemarks(Remarks), GPU.registry())
                    .hasValue());
  }
  EXPECT_EQ(KernelCache::global().misses(), 3u);
  EXPECT_EQ(KernelCache::global().hits(), 3u);
  EXPECT_EQ(KernelCache::global().size(), 3u);
  EXPECT_EQ(Counters::global().value("kernel-cache.misses"),
            KernelCache::global().misses());
  EXPECT_EQ(Counters::global().value("kernel-cache.hits"),
            KernelCache::global().hits());
}

TEST_F(KernelCacheTest, SingleFlightCoalescesConcurrentRequests) {
  // 16 threads request the same key; the winner's compile spins until the
  // cache has counted every other thread as coalesced, so the outcome is
  // deterministic: one compilation, 15 coalesced waiters, zero hits.
  constexpr unsigned Waiters = 15;
  std::atomic<unsigned> Invocations{0};
  auto Compile = [&]() -> Expected<CompiledKernel> {
    Invocations.fetch_add(1);
    while (KernelCache::global().stats().coalesced() < Waiters)
      std::this_thread::yield();
    CompiledKernel CK;
    CK.M = std::make_shared<ir::Module>("shared");
    return CK;
  };
  std::vector<std::thread> Threads;
  std::vector<const ir::Module *> Got(Waiters + 1, nullptr);
  for (unsigned I = 0; I < Waiters + 1; ++I)
    Threads.emplace_back([&, I] {
      auto R = KernelCache::global().getOrCompile("storm-key", Compile);
      ASSERT_TRUE(R.hasValue()) << R.error().message();
      Got[I] = R->M.get();
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Invocations.load(), 1u) << "exactly one compilation must run";
  const KernelCache::Stats S = KernelCache::global().stats();
  EXPECT_EQ(S.misses(), 1u);
  EXPECT_EQ(S.coalesced(), Waiters);
  EXPECT_EQ(S.hits(), 0u);
  EXPECT_EQ(Counters::global().value("kernel-cache.coalesced"), Waiters);
  for (const ir::Module *M : Got)
    EXPECT_EQ(M, Got[0]) << "every waiter must share the winner's module";
}

TEST_F(KernelCacheTest, SingleFlightSharesFailureButDoesNotCacheIt) {
  constexpr unsigned Waiters = 7;
  std::atomic<unsigned> Invocations{0};
  auto Failing = [&]() -> Expected<CompiledKernel> {
    Invocations.fetch_add(1);
    while (KernelCache::global().stats().coalesced() < Waiters)
      std::this_thread::yield();
    return makeError("deliberate compile failure");
  };
  std::vector<std::thread> Threads;
  std::atomic<unsigned> Failures{0};
  for (unsigned I = 0; I < Waiters + 1; ++I)
    Threads.emplace_back([&] {
      auto R = KernelCache::global().getOrCompile("failing-key", Failing);
      if (!R.hasValue() &&
          R.error().message().find("deliberate") != std::string::npos)
        Failures.fetch_add(1);
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Invocations.load(), 1u);
  EXPECT_EQ(Failures.load(), Waiters + 1)
      << "waiters must receive the winner's error";
  EXPECT_EQ(KernelCache::global().size(), 0u) << "failures are not cached";
  // A retry is a fresh miss that runs the compile again.
  auto Retry = KernelCache::global().getOrCompile(
      "failing-key", [&]() -> Expected<CompiledKernel> {
        Invocations.fetch_add(1);
        CompiledKernel CK;
        CK.M = std::make_shared<ir::Module>("retry");
        return CK;
      });
  ASSERT_TRUE(Retry.hasValue());
  EXPECT_EQ(Invocations.load(), 2u);
  EXPECT_EQ(KernelCache::global().misses(), 2u);
}

TEST_F(KernelCacheTest, StatsCountEveryDistinctKey) {
  constexpr unsigned Keys = 64;
  for (unsigned I = 0; I < Keys; ++I) {
    KernelCache::Outcome Outcome = KernelCache::Outcome::Hit;
    auto R = KernelCache::global().getOrCompile(
        "key-" + std::to_string(I),
        [&]() -> Expected<CompiledKernel> {
          CompiledKernel CK;
          CK.M = std::make_shared<ir::Module>("m");
          return CK;
        },
        &Outcome);
    ASSERT_TRUE(R.hasValue());
    EXPECT_EQ(Outcome, KernelCache::Outcome::Miss);
  }
  const KernelCache::Stats S = KernelCache::global().stats();
  EXPECT_EQ(S.misses(), Keys);
  EXPECT_EQ(S.entries(), Keys);
  EXPECT_EQ(KernelCache::global().size(), Keys);
}

TEST_F(KernelCacheTest, ConcurrentCompileKernelStormCompilesOnce) {
  // End to end through compileKernel: 8 client threads x 32 identical
  // requests. Exactly one compilation may run; all other requests must be
  // hits or coalesced waiters, and every result shares one module.
  constexpr unsigned ClientThreads = 8, PerThread = 32;
  const CompileOptions Opts = CompileOptions::newRT();
  std::vector<std::thread> Threads;
  std::vector<const ir::Module *> FirstModule(ClientThreads, nullptr);
  for (unsigned T = 0; T < ClientThreads; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I < PerThread; ++I) {
        auto R = compileKernel(spec(), Opts, GPU.registry());
        ASSERT_TRUE(R.hasValue()) << R.error().message();
        if (!FirstModule[T])
          FirstModule[T] = R->M.get();
        EXPECT_EQ(R->M.get(), FirstModule[T]);
      }
    });
  for (auto &T : Threads)
    T.join();
  const KernelCache::Stats S = KernelCache::global().stats();
  EXPECT_EQ(S.misses(), 1u)
      << "identical concurrent compiles must dedupe to one compilation";
  EXPECT_EQ(S.hits() + S.coalesced(), ClientThreads * PerThread - 1u);
  for (unsigned T = 1; T < ClientThreads; ++T)
    EXPECT_EQ(FirstModule[T], FirstModule[0]);
}

TEST_F(KernelCacheTest, KeyDistinguishesNativeOpIdentity) {
  const CompileOptions Opts = CompileOptions::newRT();
  const std::string K1 = KernelCache::key(spec(), Opts, GPU.registry());
  // Same spec against a registry where the id resolves to a different op
  // (name/registers) must produce a different key.
  vgpu::VirtualGPU Other;
  const std::int64_t OtherId = Other.registry().add(vgpu::NativeOpInfo{
      "other_body", [](vgpu::NativeCtx &) {}, 9});
  ASSERT_EQ(OtherId, BodyId) << "ids must coincide for the test to bite";
  const std::string K2 = KernelCache::key(spec(), Opts, Other.registry());
  EXPECT_NE(K1, K2);
}

} // namespace
} // namespace codesign::frontend
