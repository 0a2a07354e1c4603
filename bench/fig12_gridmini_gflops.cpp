//===- bench/fig12_gridmini_gflops.cpp - Paper Figure 12 --------------------===//
//
// GridMini throughput (FLOP-equivalents per cycle, the paper reports
// GFlop/s) across lattice volumes for each build configuration. Expected
// shape: the optimized new runtime matches the CUDA-style lowering at every
// volume; the old runtime and the nightly new runtime trail it.
//
//===----------------------------------------------------------------------===//
#include "BenchCommon.hpp"
#include "BenchReport.hpp"

#include "apps/GridMini.hpp"

#include <iostream>

using namespace codesign;
using namespace codesign::bench;

int main() {
  banner("Figure 12", "GridMini SU(3)xSU(3) throughput vs lattice volume");
  BenchReport Report("fig12_gridmini_gflops");
  Table T({"Volume", "Build", "Kernel cycles", "flops/cycle",
           "vs CUDA"});
  const std::vector<std::uint64_t> Volumes =
      smokeMode() ? std::vector<std::uint64_t>{256, 512}
                  : std::vector<std::uint64_t>{1024, 4096, 16384};
  for (std::uint64_t Volume : Volumes) {
    vgpu::VirtualGPU GPU;
    apps::GridMiniConfig Cfg;
    Cfg.Volume = Volume;
    Cfg.Teams = static_cast<std::uint32_t>(Volume / 128);
    Cfg.Threads = 128;
    apps::GridMini App(GPU, Cfg);
    auto Results = runConfigs(App);
    double CudaFlops = 0;
    for (const AppRunResult &R : Results)
      if (R.Build == "CUDA" && R.Ok)
        CudaFlops = R.AppMetric;
    for (const AppRunResult &R : Results) {
      T.startRow();
      T.cell(static_cast<std::uint64_t>(Volume));
      T.cell(R.Build);
      json::Value &Row = Report.addAppRow(
          "v" + std::to_string(Volume) + "/" + R.Build, "GridMini", R);
      Row.set("volume", json::Value(Volume));
      if (!R.Ok) {
        T.cell("n/a");
        T.cell("n/a");
        T.cell("n/a");
        continue;
      }
      T.cell(static_cast<std::uint64_t>(R.Metrics.KernelCycles));
      T.cell(R.AppMetric, 3);
      T.cell(CudaFlops > 0 ? R.AppMetric / CudaFlops : 0.0, 2);
      Row.set("vs_cuda",
              json::Value(CudaFlops > 0 ? R.AppMetric / CudaFlops : 0.0));
    }
  }
  T.print(std::cout);
  codesign::bench::printCounterFooter();
  return Report.write();
}
