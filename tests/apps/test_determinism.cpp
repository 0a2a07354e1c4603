//===- tests/apps/test_determinism.cpp - Parallel-engine determinism -------===//
//
// The launch engine's headline guarantee, checked end to end: every proxy
// app under every build configuration reports bit-identical results and
// metrics whether teams execute serially (HostThreads=1) or on several
// host threads. Team outcomes folded in team-ID order make this exact, not
// approximate.
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

vgpu::DeviceConfig withHostThreads(std::uint32_t N) {
  vgpu::DeviceConfig C;
  C.HostThreads = N;
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
  EXPECT_EQ(A.TeamCyclesMin, B.TeamCyclesMin) << Build;
  EXPECT_EQ(A.TeamCyclesMax, B.TeamCyclesMax) << Build;
  EXPECT_EQ(A.TeamCyclesTotal, B.TeamCyclesTotal) << Build;
  EXPECT_EQ(A.teamImbalance(), B.teamImbalance())
      << Build << ": imbalance must be bit-identical, not approximate";
}

void expectIdentical(const AppRunResult &S, const AppRunResult &P,
                     const std::string &Build) {
  ASSERT_TRUE(S.Ok) << Build << ": " << S.Error;
  ASSERT_TRUE(P.Ok) << Build << ": " << P.Error;
  EXPECT_EQ(S.Verified, P.Verified) << Build;
  EXPECT_EQ(S.AppMetric, P.AppMetric) << Build << ": AppMetric must be"
                                      << " bit-identical, not approximate";
  const vgpu::LaunchMetrics &A = S.Metrics, &B = P.Metrics;
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
  EXPECT_EQ(S.Stats.Registers, P.Stats.Registers) << Build;
  EXPECT_EQ(S.Stats.SharedMemBytes, P.Stats.SharedMemBytes) << Build;
  EXPECT_EQ(S.Stats.CodeSize, P.Stats.CodeSize) << Build;
  expectIdenticalProfiles(S.Profile, P.Profile, Build);
  // The op-class histogram partitions the dynamic instruction stream.
  std::uint64_t OpSum = 0;
  for (std::uint64_t C : S.Profile.OpCounts)
    OpSum += C;
  EXPECT_EQ(OpSum, A.DynamicInstructions) << Build;
}

/// Run AppT under every paper build config on a serial and a 4-thread
/// device and require bit-identical outcomes.
template <typename AppT, typename ConfigT>
void checkApp(const ConfigT &Cfg, bool IncludeAssumed = true) {
  vgpu::VirtualGPU SerialGPU(withHostThreads(1));
  vgpu::VirtualGPU ParallelGPU(withHostThreads(4));
  AppT SerialApp(SerialGPU, Cfg);
  AppT ParallelApp(ParallelGPU, Cfg);
  for (const BuildConfig &B : paperBuildConfigs(IncludeAssumed)) {
    AppRunResult S = SerialApp.run(B);
    AppRunResult P = ParallelApp.run(B);
    expectIdentical(S, P, B.Name);
  }
}

TEST(Determinism, XSBenchAllBuilds) {
  XSBenchConfig Cfg;
  Cfg.NLookups = 1024;
  Cfg.Teams = 8;
  Cfg.Threads = 128;
  checkApp<XSBench>(Cfg);
}

TEST(Determinism, RSBenchAllBuilds) {
  RSBenchConfig Cfg;
  Cfg.NLookups = 4096;
  Cfg.Teams = 16;
  Cfg.Threads = 64;
  checkApp<RSBench>(Cfg, /*IncludeAssumed=*/false);
}

TEST(Determinism, GridMiniAllBuilds) {
  GridMiniConfig Cfg;
  Cfg.Volume = 512;
  Cfg.Teams = 8;
  Cfg.Threads = 128;
  checkApp<GridMini>(Cfg);
}

TEST(Determinism, TestSNAPAllBuilds) {
  TestSNAPConfig Cfg;
  Cfg.NAtoms = 32;
  Cfg.Teams = 16;
  checkApp<TestSNAP>(Cfg);
}

TEST(Determinism, MiniFMMAllBuilds) {
  MiniFMMConfig Cfg;
  Cfg.Teams = 8;
  checkApp<MiniFMM>(Cfg);
}

} // namespace
} // namespace codesign::apps
