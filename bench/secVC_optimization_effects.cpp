//===- bench/secVC_optimization_effects.cpp - Paper Section V-C ------------===//
//
// Per-optimization effects on XSBench and MiniFMM (the textual results of
// Section V-C). Paper findings to reproduce in shape:
//   * "Improvements in XSBench and MiniFMM are directly traceable to the
//     base field-sensitive access optimization in Section IV-B1."
//   * "In the case of MiniFMM no other optimization has any effects on
//     performance."
//   * "XSBench ... improves performance by 20% due to field-sensitive
//     access optimizations and an additional 10% from assumed memory
//     content."
//
//===----------------------------------------------------------------------===//
#include "BenchCommon.hpp"
#include "BenchReport.hpp"

#include "apps/MiniFMM.hpp"
#include "apps/XSBench.hpp"

#include <iostream>

using namespace codesign;
using namespace codesign::bench;

namespace {

struct Variant {
  const char *Name;
  void (*Disable)(opt::OptOptions &);
};

const Variant Variants[] = {
    {"Full pipeline", [](opt::OptOptions &) {}},
    {"w/o IV-B1 (all of IV-B off)",
     [](opt::OptOptions &O) { O.EnableFieldSensitiveProp = false; }},
    {"w/o IV-B2", [](opt::OptOptions &O) { O.EnableInterprocDominance = false; }},
    {"w/o IV-B3", [](opt::OptOptions &O) { O.EnableAssumedMemoryContent = false; }},
    {"w/o IV-B4", [](opt::OptOptions &O) { O.EnableInvariantProp = false; }},
    {"w/o IV-C", [](opt::OptOptions &O) { O.EnableAlignedExecReasoning = false; }},
    {"w/o IV-D", [](opt::OptOptions &O) { O.EnableBarrierElim = false; }},
};

template <typename App>
void report(BenchReport &Rep, const char *Name, App &A) {
  std::printf("\n--- %s ---\n", Name);
  Table T({"Pipeline variant", "Kernel cycles", "Slowdown vs full"});
  double Full = 0;
  for (const Variant &V : Variants) {
    const frontend::CompileOptions Options =
        frontend::CompileOptions::newRTNoAssumptions().withOptTweak(
            V.Disable);
    AppRunResult R = A.run({V.Name, Options});
    json::Value &Row =
        Rep.addAppRow(std::string(Name) + "/" + V.Name, Name, R);
    T.startRow();
    T.cell(std::string(V.Name));
    if (!R.Ok || !R.Verified) {
      T.cell(R.Ok ? "WRONG RESULTS" : "n/a");
      T.cell("n/a");
      continue;
    }
    const double Cycles = static_cast<double>(R.Metrics.KernelCycles);
    if (Full == 0)
      Full = Cycles;
    T.cell(static_cast<std::uint64_t>(R.Metrics.KernelCycles));
    T.cell(Cycles / Full, 3);
    Row.set("slowdown_vs_full", json::Value(Cycles / Full));
  }
  T.print(std::cout);
}

} // namespace

int main() {
  banner("Section V-C", "optimization effects on XSBench and MiniFMM");
  BenchReport Report("secVC_optimization_effects");
  {
    vgpu::VirtualGPU GPU;
    apps::XSBenchConfig Cfg;
    // Enough teams per SM that surviving runtime state gates occupancy.
    Cfg.Teams = smokeSize<std::uint32_t>(128, 8);
    Cfg.Threads = smokeSize<std::uint32_t>(64, 32);
    Cfg.NLookups = std::uint64_t(Cfg.Teams) * Cfg.Threads;
    apps::XSBench App(GPU, Cfg);
    report(Report, "XSBench", App);
  }
  {
    vgpu::VirtualGPU GPU;
    apps::MiniFMMConfig Cfg;
    Cfg.Teams = smokeSize<std::uint32_t>(32, 4);
    apps::MiniFMM App(GPU, Cfg);
    report(Report, "MiniFMM", App);
  }
  codesign::bench::printCounterFooter();
  return Report.write();
}
