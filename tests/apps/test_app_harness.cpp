//===- tests/apps/test_app_harness.cpp - The shared app run protocol ------===//
//
// AppHarness runs every proxy app: compile, image swap, output reset,
// launch, readback, hash and a check against a host reference computed once
// per app. These tests pin down what the reference cache must not change:
// the reference is computed exactly once, yet every run still checks every
// element, so a wrong output on a later run is still caught and every
// run's hash equals a fresh app's. They also cover the comparison's NaN
// handling, transfer errors, and the harness holding only the current
// module.
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

namespace codesign::apps {
namespace {

using frontend::BodyArg;
using frontend::NativeBody;
using frontend::Stmt;
using frontend::TripCount;

/// A minimal app on the harness: out = A * x + y. Its reference assumes
/// A = 2.5; a test that changes A makes the kernel compute something else
/// while the cached reference stays as it was.
class SaxpyApp {
public:
  static constexpr std::uint64_t N = 256;

  explicit SaxpyApp(vgpu::VirtualGPU &GPU, bool MapOutput = true)
      : Harness("Saxpy", GPU, [this] {
          ++ReferenceCalls;
          std::vector<double> Ref(N);
          for (std::uint64_t I = 0; I < N; ++I)
            Ref[I] = 2.5 * X[I] + Y[I];
          return Ref;
        }) {
    Rng R(11);
    for (std::uint64_t I = 0; I < N; ++I) {
      X.push_back(R.uniform(-1.0, 1.0));
      Y.push_back(R.uniform(-1.0, 1.0));
    }
    Out.assign(N, 0.0);
    host::HostRuntime &Host = Harness.host();
    EXPECT_TRUE(Host.enterData(X.data(), N * 8).hasValue());
    EXPECT_TRUE(Host.enterData(Y.data(), N * 8).hasValue());
    if (MapOutput) {
      EXPECT_TRUE(Host.enterData(Out.data(), N * 8).hasValue());
    }
    BodyId = GPU.registry().add(vgpu::NativeOpInfo{
        "harness_saxpy",
        [](vgpu::NativeCtx &Ctx) {
          const std::int64_t I = Ctx.argI64(0);
          const double X = Ctx.loadF64(Ctx.argPtr(2).advance(I * 8));
          const double Y = Ctx.loadF64(Ctx.argPtr(3).advance(I * 8));
          Ctx.storeF64(Ctx.argPtr(1).advance(I * 8), Ctx.argF64(4) * X + Y);
        },
        6});
  }

  AppRunResult run(const BuildConfig &Build) {
    frontend::KernelSpec Spec;
    Spec.Name = "harness_saxpy_kernel";
    Spec.Params = {{ir::Type::ptr(), "out"},
                   {ir::Type::ptr(), "x"},
                   {ir::Type::ptr(), "y"},
                   {ir::Type::f64(), "a"},
                   {ir::Type::i64(), "n"}};
    NativeBody Body;
    Body.NativeId = BodyId;
    Body.Args = {BodyArg::iter(), BodyArg::arg(0), BodyArg::arg(1),
                 BodyArg::arg(2), BodyArg::arg(3)};
    Spec.Stmts = {Stmt::distributeParallelFor(TripCount::argument(4), Body)};
    const host::KernelArg Args[] = {
        host::KernelArg::mapped(Out.data()), host::KernelArg::mapped(X.data()),
        host::KernelArg::mapped(Y.data()), host::KernelArg::f64(A),
        host::KernelArg::i64(static_cast<std::int64_t>(N))};
    return Harness.run(Build, Spec, Args, 4, 64,
                       {{"out", Out, Harness.reference()}});
  }

  double A = 2.5;
  int ReferenceCalls = 0;

private:
  AppHarness Harness;
  std::int64_t BodyId = 0;
  std::vector<double> X, Y, Out;
};

BuildConfig defaultBuild() {
  return {"New RT - w/o Assumptions",
          frontend::CompileOptions::newRTNoAssumptions()};
}

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

TEST(AppHarness, UnmappedOutputIsAnErrorNotAnAbort) {
  vgpu::VirtualGPU GPU;
  SaxpyApp App(GPU, /*MapOutput=*/false);
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
