//===- tests/apps/test_backend_parity.cpp - Three-way backend parity -------===//
//
// The execution-backend contract at application scale: every proxy app
// under every paper build configuration must produce bit-identical device
// outputs whether the device executes the tree-walking interpreter, the
// register-machine bytecode, or the host-compiled native codegen backend.
// Tree vs. bytecode additionally agree on every metric and the full
// profile (both run the cycle cost model); the native backend reports no
// cycle model, so for it the suite checks outputs plus the LaunchProfile
// invariants that are backend-independent (collection flag, team count,
// verification against the host reference). Structurally a sibling of
// test_determinism.cpp (serial vs. parallel); here the independent
// variable is the execution engine itself, so the whole compiler + runtime
// stack becomes a differential oracle for the backend architecture.
//
//===----------------------------------------------------------------------===//
#include "apps/GridMini.hpp"
#include "apps/MiniFMM.hpp"
#include "apps/RSBench.hpp"
#include "apps/TestSNAP.hpp"
#include "apps/XSBench.hpp"

#include <gtest/gtest.h>

namespace codesign::apps {
namespace {

vgpu::DeviceConfig withBackend(const char *Backend) {
  vgpu::DeviceConfig C;
  C.ExecBackend = Backend;
  return C;
}

void expectIdenticalProfiles(const vgpu::LaunchProfile &A,
                             const vgpu::LaunchProfile &B,
                             const std::string &Build) {
  ASSERT_GT(A.Teams, 0u) << Build;
  ASSERT_GT(B.Teams, 0u) << Build;
  for (std::size_t I = 0; I < vgpu::NumOpClasses; ++I)
    EXPECT_EQ(A.OpCounts[I], B.OpCounts[I])
        << Build << ": op class "
        << vgpu::opClassName(static_cast<vgpu::OpClass>(I));
  EXPECT_EQ(A.GlobalBytesRead, B.GlobalBytesRead) << Build;
  EXPECT_EQ(A.GlobalBytesWritten, B.GlobalBytesWritten) << Build;
  EXPECT_EQ(A.SharedBytesRead, B.SharedBytesRead) << Build;
  EXPECT_EQ(A.SharedBytesWritten, B.SharedBytesWritten) << Build;
  EXPECT_EQ(A.BarrierWaitCycles, B.BarrierWaitCycles) << Build;
  EXPECT_EQ(A.Teams, B.Teams) << Build;
  EXPECT_EQ(A.teamCyclesMin(), B.teamCyclesMin()) << Build;
  EXPECT_EQ(A.teamCyclesMax(), B.teamCyclesMax()) << Build;
  EXPECT_EQ(A.TeamCyclesTotal, B.TeamCyclesTotal) << Build;
}

void expectIdentical(const AppRunResult &T, const AppRunResult &C,
                     const std::string &Build) {
  ASSERT_TRUE(T.Ok) << Build << " (tree): " << T.Error;
  ASSERT_TRUE(C.Ok) << Build << " (bytecode): " << C.Error;
  EXPECT_TRUE(T.Verified) << Build;
  EXPECT_TRUE(C.Verified) << Build;
  EXPECT_EQ(T.OutputHash, C.OutputHash)
      << Build << ": outputs must be bit-identical across backends";
  EXPECT_EQ(T.AppMetric, C.AppMetric)
      << Build << ": app metric must be bit-identical across tiers";
  const vgpu::LaunchMetrics &A = T.Metrics, &B = C.Metrics;
  EXPECT_EQ(A.KernelCycles, B.KernelCycles) << Build;
  EXPECT_EQ(A.DynamicInstructions, B.DynamicInstructions) << Build;
  EXPECT_EQ(A.GlobalLoads, B.GlobalLoads) << Build;
  EXPECT_EQ(A.GlobalStores, B.GlobalStores) << Build;
  EXPECT_EQ(A.SharedLoads, B.SharedLoads) << Build;
  EXPECT_EQ(A.SharedStores, B.SharedStores) << Build;
  EXPECT_EQ(A.LocalAccesses, B.LocalAccesses) << Build;
  EXPECT_EQ(A.Atomics, B.Atomics) << Build;
  EXPECT_EQ(A.Barriers, B.Barriers) << Build;
  EXPECT_EQ(A.Calls, B.Calls) << Build;
  EXPECT_EQ(A.NativeCycles, B.NativeCycles) << Build;
  EXPECT_EQ(A.DeviceMallocs, B.DeviceMallocs) << Build;
  EXPECT_EQ(A.TeamsPerSM, B.TeamsPerSM) << Build;
  expectIdenticalProfiles(T.Profile, C.Profile, Build);
}

/// The native backend has no cycle model, so it is held to the
/// backend-independent invariants: it succeeds, the host reference check
/// passes, every output byte matches the tree oracle, and the structural
/// profile facts (team count, occupancy) agree.
void expectNativeParity(const AppRunResult &T, const AppRunResult &N,
                        const std::string &Build) {
  ASSERT_TRUE(N.Ok) << Build << " (native): " << N.Error;
  EXPECT_TRUE(N.Verified) << Build << " (native)";
  EXPECT_EQ(T.OutputHash, N.OutputHash)
      << Build << ": native outputs must be bit-identical to the oracle";
  EXPECT_EQ(N.Backend, "native") << Build;
  EXPECT_EQ(T.Metrics.TeamsPerSM, N.Metrics.TeamsPerSM) << Build;
  EXPECT_EQ(T.Metrics.Barriers, N.Metrics.Barriers) << Build;
  EXPECT_EQ(T.Metrics.DeviceMallocs, N.Metrics.DeviceMallocs) << Build;
  ASSERT_GT(N.Profile.Teams, 0u) << Build;
  EXPECT_EQ(T.Profile.Teams, N.Profile.Teams) << Build;
}

/// Run AppT under every paper build config on a tree-, a bytecode-, and a
/// native-backend device and require bit-identical outputs (and, between
/// the two interpreters, bit-identical metrics and profiles).
template <typename AppT, typename ConfigT>
void checkApp(const ConfigT &Cfg, bool IncludeAssumed = true) {
  vgpu::VirtualGPU TreeGPU(withBackend("tree"));
  vgpu::VirtualGPU BCGPU(withBackend("bytecode"));
  vgpu::VirtualGPU NativeGPU(withBackend("native"));
  // Pin past any ambient CODESIGN_EXEC_BACKEND override.
  ASSERT_TRUE(TreeGPU.setExecBackend("tree").hasValue());
  ASSERT_TRUE(BCGPU.setExecBackend("bytecode").hasValue());
  ASSERT_TRUE(NativeGPU.setExecBackend("native").hasValue());
  AppT TreeApp(TreeGPU, Cfg);
  AppT BCApp(BCGPU, Cfg);
  AppT NativeApp(NativeGPU, Cfg);
  for (const BuildConfig &B : paperBuildConfigs(IncludeAssumed)) {
    AppRunResult T = TreeApp.run(B);
    AppRunResult C = BCApp.run(B);
    AppRunResult N = NativeApp.run(B);
    expectIdentical(T, C, B.Name);
    expectNativeParity(T, N, B.Name);
  }
}

TEST(BackendParity, XSBenchAllBuilds) {
  XSBenchConfig Cfg;
  Cfg.NLookups = 1024;
  Cfg.Teams = 8;
  Cfg.Threads = 128;
  checkApp<XSBench>(Cfg);
}

TEST(BackendParity, RSBenchAllBuilds) {
  RSBenchConfig Cfg;
  Cfg.NLookups = 4096;
  Cfg.Teams = 16;
  Cfg.Threads = 64;
  checkApp<RSBench>(Cfg, /*IncludeAssumed=*/false);
}

TEST(BackendParity, GridMiniAllBuilds) {
  GridMiniConfig Cfg;
  Cfg.Volume = 512;
  Cfg.Teams = 8;
  Cfg.Threads = 128;
  checkApp<GridMini>(Cfg);
}

TEST(BackendParity, TestSNAPAllBuilds) {
  TestSNAPConfig Cfg;
  Cfg.NAtoms = 32;
  Cfg.Teams = 16;
  checkApp<TestSNAP>(Cfg);
}

TEST(BackendParity, MiniFMMAllBuilds) {
  MiniFMMConfig Cfg;
  Cfg.Teams = 8;
  checkApp<MiniFMM>(Cfg);
}

} // namespace
} // namespace codesign::apps
