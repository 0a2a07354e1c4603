//===- bench/secVB_oversubscription.cpp - Paper Section V-B / III-F ---------===//
//
// Effects of the loop over-subscription assumptions
// (-fopenmp-assume-teams/threads-oversubscription): "First, they reduce the
// live register count as there is no loop carried state. Second, they
// remove control flow edges ... For XSBench, we observe a considerable
// reduction in register usage which comes with significantly lower kernel
// execution time (-5.6%)."
//
//===----------------------------------------------------------------------===//
#include "BenchCommon.hpp"
#include "BenchReport.hpp"

#include "apps/XSBench.hpp"

#include <iostream>

using namespace codesign;
using namespace codesign::bench;

int main() {
  banner("Section V-B", "loop over-subscription assumption effects (XSBench)");
  BenchReport Report("secVB_oversubscription");
  vgpu::VirtualGPU GPU;
  apps::XSBenchConfig Cfg;
  // NLookups == Teams * Threads: one iteration per thread.
  Cfg.Teams = smokeSize<std::uint32_t>(64, 8);
  Cfg.Threads = smokeSize<std::uint32_t>(128, 32);
  Cfg.NLookups = std::uint64_t(Cfg.Teams) * Cfg.Threads;
  apps::XSBench App(GPU, Cfg);
  Report.config().set("lookups", json::Value(Cfg.NLookups));
  Report.config().set("teams", json::Value(Cfg.Teams));
  Report.config().set("threads", json::Value(Cfg.Threads));

  Table T({"Build", "Kernel cycles", "# Regs", "Phi nodes (loop state)",
           "Delta time"});
  AppRunResult Without =
      App.run({"without", frontend::CompileOptions::newRTNoAssumptions()});
  AppRunResult With = App.run({"with", frontend::CompileOptions::newRT()});
  const auto Row = [&](const char *Name, const AppRunResult &R,
                       double Base) {
    json::Value &JRow = Report.addAppRow(Name, "XSBench", R);
    if (Base > 0)
      JRow.set("delta_pct",
               json::Value((static_cast<double>(R.Metrics.KernelCycles) -
                            Base) /
                           Base * 100.0));
    T.startRow();
    T.cell(std::string(Name));
    T.cell(static_cast<std::uint64_t>(R.Metrics.KernelCycles));
    T.cell(static_cast<std::uint64_t>(R.Stats.Registers));
    T.cell(std::string("-"));
    const double Delta =
        Base > 0 ? (static_cast<double>(R.Metrics.KernelCycles) - Base) /
                       Base * 100.0
                 : 0.0;
    T.cell(formatDouble(Delta, 2) + "%");
  };
  const double Base = static_cast<double>(Without.Metrics.KernelCycles);
  Row("New RT - w/o Assumptions", Without, Base);
  Row("New RT (+oversubscription)", With, Base);
  T.print(std::cout);
  std::printf("\nRegisters drop by %d and the worksharing loop's carried "
              "state disappears\n(paper: \"no loop carried state\", -5.6%% "
              "kernel time for XSBench).\n",
              static_cast<int>(Without.Stats.Registers) -
                  static_cast<int>(With.Stats.Registers));

  // Microkernel section: with a near-empty loop body the secondary effects
  // (removed control flow, no loop-carried IV) dominate and the delta is
  // plainly visible — the paper's "secondary effects" discussion.
  std::printf("\nMicrokernel (near-empty body, per-iteration overhead "
              "dominant):\n");
  const std::int64_t TinyId = GPU.registry().add(vgpu::NativeOpInfo{
      "tiny",
      [](vgpu::NativeCtx &Ctx) {
        Ctx.storeF64(Ctx.argPtr(1).advance(Ctx.argI64(0) * 8), 1.0);
      },
      2});
  frontend::KernelSpec Micro;
  Micro.Name = "micro_oversub";
  Micro.Params = {{ir::Type::ptr(), "y"}, {ir::Type::i64(), "n"}};
  frontend::NativeBody MB;
  MB.NativeId = TinyId;
  MB.Args = {frontend::BodyArg::iter(), frontend::BodyArg::arg(0)};
  Micro.Stmts = {frontend::Stmt::distributeParallelFor(
      frontend::TripCount::argument(1), MB)};
  const std::uint64_t N = std::uint64_t(Cfg.Teams) * Cfg.Threads;
  vgpu::DeviceAddr Buf = GPU.allocate(N * 8);
  std::uint64_t Args[] = {Buf.Bits, N};
  Table T2({"Build", "Kernel cycles", "# Regs", "Delta time"});
  double MicroBase = 0;
  for (auto [Name, Options] :
       {std::pair<const char *, frontend::CompileOptions>{
            "w/o assumptions", frontend::CompileOptions::newRTNoAssumptions()},
        {"+oversubscription", frontend::CompileOptions::newRT()}}) {
    auto CK = frontend::compileKernel(Micro, Options, GPU.registry());
    auto R = GPU.launch(*GPU.loadImage(*CK->M), CK->Kernel, Args, Cfg.Teams,
                        Cfg.Threads);
    T2.startRow();
    T2.cell(std::string(Name));
    T2.cell(static_cast<std::uint64_t>(R.Metrics.KernelCycles));
    T2.cell(static_cast<std::uint64_t>(CK->Stats.Registers));
    const double Cyc = static_cast<double>(R.Metrics.KernelCycles);
    if (MicroBase == 0)
      MicroBase = Cyc;
    T2.cell(formatDouble((Cyc - MicroBase) / MicroBase * 100.0, 2) + "%");

    json::Value &JRow =
        Report.addRow(std::string("micro/") + Name);
    JRow.set("build", json::Value(Name));
    JRow.set("ok", json::Value(R.Ok));
    JRow.set("cycles", json::Value(R.Metrics.KernelCycles));
    JRow.set("regs", json::Value(std::uint64_t(CK->Stats.Registers)));
    JRow.set("smem_bytes", json::Value(CK->Stats.SharedMemBytes));
    JRow.set("compile", BenchReport::timingJson(CK->Timing));
    if (R.Ok)
      JRow.set("profile", BenchReport::profileJson(R.Profile));
  }
  T2.print(std::cout);
  codesign::bench::printCounterFooter();
  return Report.write();
}
