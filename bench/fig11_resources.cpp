//===- bench/fig11_resources.cpp - Paper Figure 11 --------------------------===//
//
// "GPU kernel execution times (highest), shared memory and register usage"
// for every application and build configuration. Expected shapes:
//   * Old RT: constant 2336 B static shared memory, elevated registers.
//   * New RT (Nightly): MORE shared memory than the old runtime (team
//     state + thread states + shared stack, ~10 KB) — the paper's 11304 B.
//   * New RT (optimized): 0 B shared memory for XSBench/RSBench/GridMini/
//     MiniFMM, ~3 KB for TestSNAP (the legitimate scratch), and reduced
//     register counts.
//   * CUDA: minimal resources; n/a for TestSNAP (Kokkos).
//
//===----------------------------------------------------------------------===//
#include "BenchCommon.hpp"
#include "BenchReport.hpp"

#include "apps/GridMini.hpp"
#include "apps/MiniFMM.hpp"
#include "apps/RSBench.hpp"
#include "apps/TestSNAP.hpp"
#include "apps/XSBench.hpp"

#include <iostream>

using namespace codesign;
using namespace codesign::bench;

int main() {
  banner("Figure 11", "kernel time, registers and static shared memory");
  BenchReport Report("fig11_resources");
  Table T({"App", "Build", "Kernel cycles", "# Regs", "SMem", "Check"});

  const auto AddJsonRows = [&](const char *App,
                               const std::vector<AppRunResult> &Results) {
    for (const AppRunResult &R : Results)
      Report.addAppRow(std::string(App) + "/" + R.Build, App, R);
  };

  {
    vgpu::VirtualGPU GPU;
    apps::XSBenchConfig Cfg;
    Cfg.NLookups = smokeSize<std::uint64_t>(4096, 512);
    Cfg.Teams = smokeSize<std::uint32_t>(32, 8);
    Cfg.Threads = smokeSize<std::uint32_t>(128, 64);
    apps::XSBench App(GPU, Cfg);
    const auto Results = runConfigs(App);
    addFig11Rows(T, "XSBench", Results);
    AddJsonRows("XSBench", Results);
  }
  {
    vgpu::VirtualGPU GPU;
    apps::RSBenchConfig Cfg;
    Cfg.Teams = smokeSize<std::uint32_t>(64, 8);
    Cfg.Threads = smokeSize<std::uint32_t>(64, 16);
    Cfg.NLookups = std::uint64_t(Cfg.Teams) * Cfg.Threads * 4;
    apps::RSBench App(GPU, Cfg);
    const auto Results = runConfigs(App, /*IncludeAssumed=*/false);
    addFig11Rows(T, "RSBench", Results);
    AddJsonRows("RSBench", Results);
  }
  {
    vgpu::VirtualGPU GPU;
    apps::GridMiniConfig Cfg;
    Cfg.Volume = smokeSize<std::uint64_t>(4096, 512);
    Cfg.Teams = smokeSize<std::uint32_t>(32, 4);
    Cfg.Threads = 128;
    apps::GridMini App(GPU, Cfg);
    const auto Results = runConfigs(App);
    addFig11Rows(T, "GridMini", Results);
    AddJsonRows("GridMini", Results);
  }
  {
    vgpu::VirtualGPU GPU;
    apps::TestSNAPConfig Cfg;
    Cfg.NAtoms = smokeSize<std::uint32_t>(128, 16);
    Cfg.Teams = smokeSize<std::uint32_t>(64, 8);
    apps::TestSNAP App(GPU, Cfg);
    const auto Results = runConfigs(App);
    addFig11Rows(T, "TestSNAP", Results, "n/a (Kokkos; paper Section V-A)");
    AddJsonRows("TestSNAP", Results);
  }
  {
    vgpu::VirtualGPU GPU;
    apps::MiniFMMConfig Cfg;
    Cfg.Teams = smokeSize<std::uint32_t>(32, 4);
    apps::MiniFMM App(GPU, Cfg);
    const auto Results = runConfigs(App);
    addFig11Rows(T, "MiniFMM", Results);
    AddJsonRows("MiniFMM", Results);
  }

  T.print(std::cout);
  codesign::bench::printCounterFooter();
  return Report.write();
}
