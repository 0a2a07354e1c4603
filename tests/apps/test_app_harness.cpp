//===- tests/apps/test_app_harness.cpp - The shared app run protocol ------===//
//
// AppHarness runs every proxy app: compile, image swap, output reset on the
// device, launch, readback, hash and a check against a host reference
// computed once per app. These tests pin down what the reference cache must
// not change: the reference is computed exactly once, yet every run still
// checks every element, so a wrong output on a later run is still caught
// and every run's hash equals a fresh app's. They also cover the reset (an
// output the kernel leaves unwritten reads as zero, not as the previous
// run's), every check chunk at one and at four host threads, the
// comparison's NaN handling, transfer errors, and the harness holding only
// the current module.
//
//===----------------------------------------------------------------------===//
#include "apps/GridMini.hpp"
#include "apps/MiniFMM.hpp"
#include "apps/RSBench.hpp"
#include "apps/TestSNAP.hpp"
#include "apps/XSBench.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "SaxpyApp.hpp"

namespace codesign::apps {
namespace {

TEST(AppHarness, ComparisonFailsNaNAndInfinity) {
  const double Tol = 1e-9;
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(withinTolerance(NaN, 1.0, Tol));
  EXPECT_FALSE(withinTolerance(1.0, NaN, Tol));
  EXPECT_FALSE(withinTolerance(Inf, 1.0, Tol));
  EXPECT_FALSE(withinTolerance(-Inf, 1.0, Tol));
  EXPECT_FALSE(withinTolerance(Inf, Inf, Tol));
  EXPECT_TRUE(withinTolerance(0.75, 0.75, Tol));
  EXPECT_TRUE(withinTolerance(Tol, 0.0, Tol));
  EXPECT_FALSE(withinTolerance(std::nextafter(Tol, 1.0), 0.0, Tol));
}

TEST(AppHarness, ReferenceComputedOnceAcrossRunsBuildsAndBackends) {
  vgpu::VirtualGPU GPU;
  SaxpyApp App(GPU);
  for (const char *Backend : {"bytecode", "tree"}) {
    ASSERT_TRUE(GPU.setExecBackend(Backend).hasValue());
    for (int Round = 0; Round < 2; ++Round)
      for (const BuildConfig &B : paperBuildConfigs()) {
        AppRunResult R = App.run(B);
        ASSERT_TRUE(R.Ok) << B.Name << ": " << R.Error;
        EXPECT_TRUE(R.Verified) << B.Name << " on " << Backend;
        EXPECT_EQ(R.Backend, Backend);
      }
  }
  EXPECT_EQ(App.ReferenceCalls, 1);
}

TEST(AppHarness, WrongOutputCaughtAfterReferenceCached) {
  vgpu::VirtualGPU GPU;
  SaxpyApp App(GPU);
  AppRunResult First = App.run(defaultBuild());
  ASSERT_TRUE(First.Ok) << First.Error;
  EXPECT_TRUE(First.Verified);

  App.A = 3.0;
  AppRunResult Wrong = App.run(defaultBuild());
  ASSERT_TRUE(Wrong.Ok) << Wrong.Error;
  EXPECT_FALSE(Wrong.Verified) << "the cached reference must still be checked";
  EXPECT_NE(Wrong.OutputHash, First.OutputHash);

  App.A = std::numeric_limits<double>::quiet_NaN();
  AppRunResult NaN = App.run(defaultBuild());
  ASSERT_TRUE(NaN.Ok) << NaN.Error;
  EXPECT_FALSE(NaN.Verified) << "a NaN output must fail verification";

  App.A = 2.5;
  AppRunResult Again = App.run(defaultBuild());
  EXPECT_TRUE(Again.Verified);
  EXPECT_EQ(Again.OutputHash, First.OutputHash);
  EXPECT_EQ(App.ReferenceCalls, 1);
}

TEST(AppHarness, UnwrittenOutputIsZeroNotTheLastRuns) {
  vgpu::VirtualGPU GPU;
  SaxpyApp App(GPU);
  AppRunResult Full = App.run(defaultBuild());
  ASSERT_TRUE(Full.Ok) << Full.Error;
  EXPECT_TRUE(Full.Verified);

  // The device copy still holds the full run's correct output: only the
  // reset before the launch keeps the unwritten half from passing.
  App.Len /= 2;
  AppRunResult Half = App.run(defaultBuild());
  ASSERT_TRUE(Half.Ok) << Half.Error;
  EXPECT_FALSE(Half.Verified) << "stale device bytes must not verify";
  for (std::size_t I = static_cast<std::size_t>(App.Len); I < App.out().size();
       ++I)
    ASSERT_EQ(App.out()[I], 0.0) << "element " << I;
}

TEST(AppHarness, EveryCheckChunkFailsAtEveryWidth) {
  constexpr std::uint64_t Chunk = AppHarness::CheckChunk;
  // Four chunks, the last one partial.
  constexpr std::uint64_t N = 3 * Chunk + 17;
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  std::map<unsigned, std::vector<std::uint64_t>> Hashes;
  for (unsigned Width : {1u, 4u}) {
    vgpu::DeviceConfig Config;
    Config.HostThreads = Width;
    vgpu::VirtualGPU GPU(Config);
    SaxpyApp App(GPU, N);
    AppRunResult Clean = App.run(defaultBuild());
    ASSERT_TRUE(Clean.Ok) << Clean.Error;
    EXPECT_TRUE(Clean.Verified) << "width " << Width;
    Hashes[Width].push_back(Clean.OutputHash);
    // The first chunk's first and last element, one in a middle chunk, and
    // the last element of the partial last chunk.
    for (std::uint64_t At : {std::uint64_t{0}, Chunk - 1, Chunk + Chunk / 2,
                             N - 1})
      for (double Bad : {5.0, NaN}) {
        const double Was = App.x(At);
        App.setX(At, Bad);
        AppRunResult R = App.run(defaultBuild());
        App.setX(At, Was);
        ASSERT_TRUE(R.Ok) << R.Error;
        EXPECT_FALSE(R.Verified)
            << "width " << Width << ", element " << At << ", x = " << Bad;
        Hashes[Width].push_back(R.OutputHash);
      }
    AppRunResult Again = App.run(defaultBuild());
    EXPECT_TRUE(Again.Verified) << "width " << Width;
    EXPECT_EQ(Again.OutputHash, Clean.OutputHash) << "width " << Width;
    EXPECT_EQ(App.ReferenceCalls, 1);
  }
  EXPECT_EQ(Hashes[1], Hashes[4]);
}

TEST(AppHarness, UnmappedOutputIsAnErrorNotAnAbort) {
  vgpu::VirtualGPU GPU;
  SaxpyApp App(GPU, /*N=*/256, /*MapOutput=*/false);
  AppRunResult R = App.run(defaultBuild());
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Verified);
  EXPECT_NE(R.Error.find("Saxpy"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("'out'"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("not mapped"), std::string::npos) << R.Error;
}

TEST(AppHarness, HoldsOnlyTheCurrentModule) {
  vgpu::VirtualGPU GPU;
  SaxpyApp App(GPU);
  const BuildConfig Uncached{
      "uncached",
      frontend::CompileOptions::newRTNoAssumptions().withKernelCache(false)};
  std::weak_ptr<ir::Module> First;
  {
    AppRunResult R = App.run(Uncached);
    ASSERT_TRUE(R.Ok) << R.Error;
    First = R.Module;
  }
  EXPECT_FALSE(First.expired()) << "the registered module must stay alive";
  AppRunResult Second = App.run(Uncached);
  ASSERT_TRUE(Second.Ok) << Second.Error;
  EXPECT_TRUE(Second.Verified);
  EXPECT_TRUE(First.expired()) << "a replaced module must be released";
}

/// Every run of one app instance, over two rounds of every build, hashes
/// to what a fresh instance's first run of that build hashes to.
template <typename AppT, typename ConfigT>
void expectFreshHashes(const ConfigT &Cfg, bool IncludeAssumed = true) {
  std::map<std::string, std::uint64_t> Fresh;
  for (const BuildConfig &B : paperBuildConfigs(IncludeAssumed)) {
    vgpu::VirtualGPU GPU;
    AppT App(GPU, Cfg);
    AppRunResult R = App.run(B);
    ASSERT_TRUE(R.Ok) << B.Name << ": " << R.Error;
    Fresh[B.Name] = R.OutputHash;
  }
  vgpu::VirtualGPU GPU;
  AppT App(GPU, Cfg);
  for (int Round = 0; Round < 2; ++Round)
    for (const BuildConfig &B : paperBuildConfigs(IncludeAssumed)) {
      AppRunResult R = App.run(B);
      ASSERT_TRUE(R.Ok) << B.Name << ": " << R.Error;
      EXPECT_TRUE(R.Verified) << B.Name;
      EXPECT_EQ(R.OutputHash, Fresh[B.Name]) << B.Name << ", round " << Round;
    }
}

TEST(AppHarness, RunHashesMatchFreshInstances) {
  XSBenchConfig XS;
  XS.NLookups = 1024;
  XS.Teams = 8;
  expectFreshHashes<XSBench>(XS);
  RSBenchConfig RS;
  RS.NLookups = 4096;
  RS.Teams = 16;
  RS.Threads = 64;
  expectFreshHashes<RSBench>(RS, /*IncludeAssumed=*/false);
  GridMiniConfig GM;
  GM.Volume = 512;
  GM.Teams = 4;
  expectFreshHashes<GridMini>(GM);
  TestSNAPConfig TS;
  TS.NAtoms = 32;
  TS.Teams = 16;
  expectFreshHashes<TestSNAP>(TS);
  MiniFMMConfig FMM;
  FMM.Teams = 8;
  expectFreshHashes<MiniFMM>(FMM);
}

} // namespace
} // namespace codesign::apps
