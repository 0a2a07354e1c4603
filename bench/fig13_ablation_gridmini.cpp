//===- bench/fig13_ablation_gridmini.cpp - Paper Figure 13 ------------------===//
//
// "The effect of the different optimizations on GridMini": the full
// optimization pipeline with one Section IV optimization disabled at a
// time. Paper finding: "Field-sensitive access analysis optimization, and
// its deviates, provides most of the performance boost, while exclusive
// and aligned execution of code, and aligned barrier elimination, still
// play an important role". Note: disabling IV-B1 disables all of IV-B
// ("removing the first part implies removing all optimizations"), which
// this harness reproduces structurally (the switches are nested the same
// way).
//
//===----------------------------------------------------------------------===//
#include "BenchCommon.hpp"
#include "BenchReport.hpp"

#include "apps/GridMini.hpp"

#include <iostream>

using namespace codesign;
using namespace codesign::bench;

namespace {

struct AblationRow {
  const char *Name;
  void (*Disable)(opt::OptOptions &);
};

const AblationRow Rows[] = {
    {"Full pipeline", [](opt::OptOptions &) {}},
    {"w/o IV-B1 field-sensitive access (disables all IV-B)",
     [](opt::OptOptions &O) { O.EnableFieldSensitiveProp = false; }},
    {"w/o IV-B2 inter-proc dominance/reachability",
     [](opt::OptOptions &O) { O.EnableInterprocDominance = false; }},
    {"w/o IV-B3 assumed memory content",
     [](opt::OptOptions &O) { O.EnableAssumedMemoryContent = false; }},
    {"w/o IV-B4 invariant value propagation",
     [](opt::OptOptions &O) { O.EnableInvariantProp = false; }},
    {"w/o IV-C aligned-execution reasoning",
     [](opt::OptOptions &O) { O.EnableAlignedExecReasoning = false; }},
    {"w/o IV-D aligned-barrier elimination",
     [](opt::OptOptions &O) { O.EnableBarrierElim = false; }},
    {"w/o IV-A3 SPMDization",
     [](opt::OptOptions &O) { O.EnableSPMDization = false; }},
    {"w/o IV-A2 globalization elimination",
     [](opt::OptOptions &O) { O.EnableGlobalizationElim = false; }},
};

} // namespace

int main() {
  banner("Figure 13", "GridMini with one optimization disabled at a time");
  BenchReport Report("fig13_ablation_gridmini");
  vgpu::VirtualGPU GPU;
  apps::GridMiniConfig Cfg;
  // Enough teams per SM that occupancy (gated by surviving runtime state)
  // shows up in wall time, as on the real GPU.
  Cfg.Volume = smokeSize<std::uint64_t>(8192, 512);
  Cfg.Teams = smokeSize<std::uint32_t>(128, 8);
  Cfg.Threads = 64;
  apps::GridMini App(GPU, Cfg);
  Report.config().set("volume", json::Value(Cfg.Volume));
  Report.config().set("teams", json::Value(Cfg.Teams));
  Report.config().set("threads", json::Value(Cfg.Threads));

  Table T({"Pipeline variant", "Kernel cycles", "# Regs", "SMem",
           "Slowdown vs full"});
  double FullCycles = 0;
  for (const AblationRow &Row : Rows) {
    const frontend::CompileOptions Options =
        frontend::CompileOptions::newRTNoAssumptions().withOptTweak(
            Row.Disable);
    AppRunResult R = App.run({Row.Name, Options});
    json::Value &JRow = Report.addAppRow(Row.Name, "GridMini", R);
    T.startRow();
    T.cell(std::string(Row.Name));
    if (!R.Ok || !R.Verified) {
      T.cell(R.Ok ? "WRONG RESULTS" : "n/a");
      T.cell("n/a");
      T.cell("n/a");
      T.cell("n/a");
      continue;
    }
    const double Cycles = static_cast<double>(R.Metrics.KernelCycles);
    if (FullCycles == 0)
      FullCycles = Cycles;
    T.cell(static_cast<std::uint64_t>(R.Metrics.KernelCycles));
    T.cell(static_cast<std::uint64_t>(R.Stats.Registers));
    T.cell(formatBytes(R.Stats.SharedMemBytes));
    T.cell(Cycles / FullCycles, 2);
    JRow.set("slowdown_vs_full", json::Value(Cycles / FullCycles));
  }
  T.print(std::cout);
  codesign::bench::printCounterFooter();
  return Report.write();
}
