//===- tests/apps/test_apps.cpp - Proxy applications under all builds ------===//
//
// Every proxy app must verify against its host reference under every build
// configuration, and the paper's qualitative shapes must hold:
//   * the optimized new runtime beats the old runtime on every app;
//   * XSBench/GridMini land near the native lowering;
//   * TestSNAP's optimized build keeps its scratch (nonzero SMem);
//   * MiniFMM keeps a real gap to CUDA (the nested-task residual).
//
//===----------------------------------------------------------------------===//
#include "apps/GridMini.hpp"
#include "apps/MiniFMM.hpp"
#include "apps/RSBench.hpp"
#include "apps/TestSNAP.hpp"
#include "apps/XSBench.hpp"

#include <gtest/gtest.h>

#include "frontend/Driver.hpp"

namespace codesign::apps {
namespace {

/// Run App under every paper configuration; return results keyed by name.
template <typename App>
std::map<std::string, AppRunResult> runAll(App &A, bool IncludeAssumed = true) {
  std::map<std::string, AppRunResult> Out;
  for (const BuildConfig &B : paperBuildConfigs(IncludeAssumed)) {
    AppRunResult R = A.run(B);
    EXPECT_TRUE(R.Ok) << B.Name << ": " << R.Error;
    EXPECT_TRUE(R.Verified) << B.Name << ": wrong results";
    Out.emplace(B.Name, std::move(R));
  }
  return Out;
}

std::uint64_t cycles(const std::map<std::string, AppRunResult> &R,
                     const std::string &Name) {
  auto It = R.find(Name);
  CODESIGN_ASSERT(It != R.end(), "missing build");
  return It->second.Metrics.KernelCycles;
}

TEST(Apps, XSBenchAllBuildsVerifyAndOrder) {
  vgpu::VirtualGPU GPU;
  XSBenchConfig Cfg;
  Cfg.NLookups = 2048;
  Cfg.Teams = 16;
  Cfg.Threads = 128;
  XSBench App(GPU, Cfg);
  auto R = runAll(App);
  if (frontend::hasOldRT()) {
    EXPECT_LT(cycles(R, "New RT"), cycles(R, "Old RT (Nightly)"));
    EXPECT_LT(cycles(R, "New RT - w/o Assumptions"),
              cycles(R, "Old RT (Nightly)"));
  }
  // Memory-bound + by-reference config struct: close to CUDA but not equal
  // (Section VII).
  const double Gap = static_cast<double>(cycles(R, "New RT")) /
                     static_cast<double>(cycles(R, "CUDA"));
  EXPECT_LT(Gap, 1.35);
  EXPECT_GT(Gap, 0.99);
}

TEST(Apps, XSBenchStateEliminated) {
  vgpu::VirtualGPU GPU;
  XSBenchConfig Cfg;
  Cfg.NLookups = 512;
  Cfg.Teams = 4;
  Cfg.Threads = 128;
  XSBench App(GPU, Cfg);
  AppRunResult Opt = App.run({"opt", frontend::CompileOptions::newRT()});
  ASSERT_TRUE(Opt.Ok) << Opt.Error;
  EXPECT_EQ(Opt.Stats.SharedMemBytes, 0u) << "Figure 11: SMem 0B";
  if (frontend::hasOldRT()) {
    AppRunResult Old = App.run({"old", frontend::CompileOptions::oldRT()});
    EXPECT_GT(Old.Stats.SharedMemBytes, 2000u);
    EXPECT_LT(Opt.Stats.Registers, Old.Stats.Registers + 20)
        << "register estimate sanity";
  }
}

TEST(Apps, RSBenchNightlyRegression) {
  // Paper Section V-B: for RSBench "the new runtime, as available in the
  // nightly build ... created a performance regression" relative to the
  // old runtime, fixed by the dev branch.
  vgpu::VirtualGPU GPU;
  RSBenchConfig Cfg;
  // Four lookups per thread: long enough to amortize per-kernel overhead,
  // and (as in the paper's Figure 11, which lists RSBench "New RT" as n/a)
  // incompatible with the oversubscription assumption.
  Cfg.NLookups = 128 * 64 * 4;
  Cfg.Teams = 128;
  Cfg.Threads = 64;
  RSBench App(GPU, Cfg);
  auto R = runAll(App, /*IncludeAssumed=*/false);
  if (frontend::hasOldRT()) {
    EXPECT_GT(cycles(R, "New RT (Nightly)"), cycles(R, "Old RT (Nightly)"))
        << "nightly regression (the smem-bloated nightly runtime caps "
           "occupancy at fewer teams per SM)";
    EXPECT_LE(cycles(R, "New RT - w/o Assumptions"),
              cycles(R, "Old RT (Nightly)"));
  }
  // Compute bound: every reasonable build is CUDA-like.
  const double Gap =
      static_cast<double>(cycles(R, "New RT - w/o Assumptions")) /
      static_cast<double>(cycles(R, "CUDA"));
  EXPECT_LT(Gap, 1.10);
}

TEST(Apps, GridMiniMatchesCudaFlops) {
  vgpu::VirtualGPU GPU;
  GridMiniConfig Cfg;
  Cfg.Volume = 1024;
  Cfg.Teams = 8;
  Cfg.Threads = 128;
  GridMini App(GPU, Cfg);
  auto R = runAll(App);
  const double OptFlops = R.at("New RT").AppMetric;
  const double CudaFlops = R.at("CUDA").AppMetric;
  EXPECT_GT(OptFlops / CudaFlops, 0.9) << "Figure 12: GFLOPs parity";
  if (frontend::hasOldRT()) {
    EXPECT_GT(OptFlops, R.at("Old RT (Nightly)").AppMetric);
  }
}

TEST(Apps, GridMiniMemoryBoundBlocksBarrierElimination) {
  // Section VII: a loop bound loaded from memory inside the region keeps
  // barriers alive that are otherwise eliminated.
  vgpu::VirtualGPU GPU;
  GridMiniConfig ByVal;
  ByVal.Volume = 512;
  ByVal.Teams = 4;
  ByVal.Threads = 128;
  GridMiniConfig ByMem = ByVal;
  ByMem.BoundByValue = false;
  GridMini AppVal(GPU, ByVal);
  GridMini AppMem(GPU, ByMem);
  auto Opt = frontend::CompileOptions::newRTNoAssumptions();
  AppRunResult RVal = AppVal.run({"byval", Opt});
  AppRunResult RMem = AppMem.run({"bymem", Opt});
  ASSERT_TRUE(RVal.Ok && RMem.Ok) << RVal.Error << RMem.Error;
  EXPECT_TRUE(RVal.Verified && RMem.Verified);
  EXPECT_GT(RMem.Metrics.Barriers, RVal.Metrics.Barriers);
}

TEST(Apps, TestSNAPKeepsScratchSharedMemory) {
  vgpu::VirtualGPU GPU;
  TestSNAPConfig Cfg;
  Cfg.NAtoms = 64;
  Cfg.Teams = 32;
  TestSNAP App(GPU, Cfg);
  auto R = runAll(App);
  // Figure 11: the optimized build keeps the scratch bytes (3 KiB, plus a
  // few bytes of broadcast-slot residue — the paper reports 3076 B for the
  // same reason) while the rest of the runtime state is gone.
  EXPECT_GE(R.at("New RT").Stats.SharedMemBytes, App.scratchBytes());
  EXPECT_LE(R.at("New RT").Stats.SharedMemBytes, App.scratchBytes() + 32);
  EXPECT_GT(R.at("New RT (Nightly)").Stats.SharedMemBytes,
            App.scratchBytes());
  if (frontend::hasOldRT()) {
    EXPECT_LT(cycles(R, "New RT"), cycles(R, "Old RT (Nightly)"));
  }
}

TEST(Apps, MiniFMMImprovesButKeepsGapToCuda) {
  vgpu::VirtualGPU GPU;
  MiniFMMConfig Cfg;
  Cfg.Teams = 16;
  MiniFMM App(GPU, Cfg);
  auto R = runAll(App);
  // Paper: 1.85x improvement over the old runtime...
  if (frontend::hasOldRT()) {
    EXPECT_GT(static_cast<double>(cycles(R, "Old RT (Nightly)")) /
                  static_cast<double>(cycles(R, "New RT - w/o Assumptions")),
              1.2);
  }
  // ...but still a real gap to CUDA (nested tasking / thread states).
  EXPECT_GT(static_cast<double>(cycles(R, "New RT - w/o Assumptions")) /
                static_cast<double>(cycles(R, "CUDA")),
            1.3);
}

} // namespace
} // namespace codesign::apps
