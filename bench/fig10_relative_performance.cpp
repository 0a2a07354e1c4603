//===- bench/fig10_relative_performance.cpp - Paper Figure 10 (a-d) --------===//
//
// Relative performance of each proxy application under the five build
// configurations, normalized to the Old RT (Nightly) baseline — the
// paper's Figure 10a (XSBench), 10b (RSBench), 10c (TestSNAP) and
// 10d (MiniFMM). Expected shapes:
//   * XSBench: new runtime + optimizations close most of the gap to CUDA;
//     assumptions squeeze out a few more percent.
//   * RSBench: the nightly new runtime REGRESSES below the old runtime
//     (occupancy capped by its shared-memory footprint); the full
//     optimization pipeline recovers CUDA-like performance. The assumed
//     build is n/a (multiple iterations per thread).
//   * TestSNAP: solid improvement; CUDA column n/a (Kokkos, Section V-A).
//   * MiniFMM: large improvement over the old runtime but a residual gap
//     to CUDA remains (nested task parallelism keeps thread states alive).
//
//===----------------------------------------------------------------------===//
#include "BenchCommon.hpp"
#include "BenchReport.hpp"

#include "apps/MiniFMM.hpp"
#include "apps/RSBench.hpp"
#include "apps/TestSNAP.hpp"
#include "apps/XSBench.hpp"

#include <iostream>

namespace {

using namespace codesign;
using namespace codesign::bench;

template <typename App>
void report(BenchReport &Rep, const char *Fig, const char *Name, App &A,
            bool IncludeAssumed) {
  std::printf("\n--- Figure %s: %s ---\n", Fig, Name);
  auto Results = runConfigs(A, IncludeAssumed);
  Table T({"Build", "Kernel cycles", "Relative perf (baseline = 1.0)"});
  for (const AppRunResult &R : Results) {
    T.startRow();
    T.cell(R.Build);
    json::Value &Row =
        Rep.addAppRow(std::string(Fig) + "/" + R.Build, Name, R);
    if (!R.Ok) {
      T.cell("n/a");
      T.cell("n/a");
      continue;
    }
    T.cell(static_cast<std::uint64_t>(R.Metrics.KernelCycles));
    T.cell(relativePerf(Results, R), 2);
    Row.set("relative_perf", json::Value(relativePerf(Results, R)));
  }
  T.print(std::cout);
}

} // namespace

int main() {
  banner("Figure 10", "relative performance per application and build");
  BenchReport Report("fig10_relative_performance");
  Report.config().set("smoke", json::Value(smokeMode()));

  {
    vgpu::VirtualGPU GPU;
    apps::XSBenchConfig Cfg;
    Cfg.NLookups = smokeSize<std::uint64_t>(8192, 512);
    Cfg.Teams = smokeSize<std::uint32_t>(64, 8);
    Cfg.Threads = smokeSize<std::uint32_t>(128, 64);
    apps::XSBench App(GPU, Cfg);
    report(Report, "10a", "XSBench (memory bound)", App,
           /*IncludeAssumed=*/true);
  }
  {
    vgpu::VirtualGPU GPU;
    apps::RSBenchConfig Cfg;
    Cfg.Teams = smokeSize<std::uint32_t>(128, 8);
    Cfg.Threads = smokeSize<std::uint32_t>(64, 16);
    Cfg.NLookups = std::uint64_t(Cfg.Teams) * Cfg.Threads * 4;
    apps::RSBench App(GPU, Cfg);
    report(Report, "10b",
           "RSBench (compute bound; assumed build n/a as in the "
           "paper's Figure 11)",
           App, /*IncludeAssumed=*/false);
  }
  {
    vgpu::VirtualGPU GPU;
    apps::TestSNAPConfig Cfg;
    Cfg.NAtoms = smokeSize<std::uint32_t>(128, 16);
    Cfg.Teams = smokeSize<std::uint32_t>(64, 8);
    apps::TestSNAP App(GPU, Cfg);
    report(Report, "10c", "TestSNAP (team-shared scratch workspaces)", App,
           /*IncludeAssumed=*/true);
  }
  {
    vgpu::VirtualGPU GPU;
    apps::MiniFMMConfig Cfg;
    Cfg.Teams = smokeSize<std::uint32_t>(32, 4);
    apps::MiniFMM App(GPU, Cfg);
    report(Report, "10d", "MiniFMM (dual-tree traversal, nested tasks)", App,
           /*IncludeAssumed=*/true);
  }
  codesign::bench::printCounterFooter();
  return Report.write();
}
