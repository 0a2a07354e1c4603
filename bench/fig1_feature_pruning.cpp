//===- bench/fig1_feature_pruning.cpp - Paper Figure 1 / Section III-G ------===//
//
// "You only pay for what you actually use": the same rich runtime compiles
// to very different binaries depending on the application code and flags.
// This bench reports, for a fixed saxpy-style kernel:
//   * code size (instructions), registers and shared memory per build;
//   * debug builds (assertions / function tracing) versus release — the
//     debug features cost code and cycles only when enabled at compile
//     time (Section III-G's zero-overhead debugging);
//   * the runtime entry-point trace counts a debug run records.
//
//===----------------------------------------------------------------------===//
#include "BenchCommon.hpp"
#include "BenchReport.hpp"

#include "frontend/TargetCompiler.hpp"
#include "host/HostRuntime.hpp"
#include "rt/RuntimeABI.hpp"

#include <cstring>
#include <iostream>

using namespace codesign;
using namespace codesign::bench;
using namespace codesign::frontend;

namespace {

std::int64_t registerBody(vgpu::VirtualGPU &GPU) {
  return GPU.registry().add(vgpu::NativeOpInfo{
      "axpy",
      [](vgpu::NativeCtx &Ctx) {
        const std::int64_t I = Ctx.argI64(0);
        const vgpu::DeviceAddr Y = Ctx.argPtr(1);
        Ctx.storeF64(Y.advance(I * 8), Ctx.loadF64(Y.advance(I * 8)) * 2.0);
        Ctx.chargeCycles(4);
      },
      4});
}

KernelSpec spec(std::int64_t BodyId) {
  KernelSpec Spec;
  Spec.Name = "fig1_kernel";
  Spec.Params = {{ir::Type::ptr(), "y"}, {ir::Type::i64(), "n"}};
  NativeBody Body;
  Body.NativeId = BodyId;
  Body.Args = {BodyArg::iter(), BodyArg::arg(0)};
  Spec.Stmts = {Stmt::distributeParallelFor(TripCount::argument(1), Body)};
  return Spec;
}

} // namespace

int main() {
  banner("Figure 1 / Section III-G",
         "feature pruning and zero-overhead debugging");
  BenchReport Report("fig1_feature_pruning");
  vgpu::VirtualGPU GPU;
  const std::int64_t BodyId = registerBody(GPU);

  struct Row {
    const char *Name;
    CompileOptions Options;
  };
  const CompileOptions Release = CompileOptions::newRTNoAssumptions();
  const Row Rows[] = {
      {"Unoptimized (referenced runtime linked in)",
       Release.withOptimizer(false)},
      {"Release (full openmp-opt)", Release},
      {"Release + oversubscription assumptions", CompileOptions::newRT()},
      {"Debug: assertions", Release.withDebug(rt::DebugAssertions)},
      {"Debug: assertions + function tracing",
       Release.withDebug(rt::DebugAssertions | rt::DebugFunctionTracing)},
  };

  const std::uint64_t N = smokeSize<std::uint64_t>(4096, 256);
  const std::uint32_t Teams = smokeSize<std::uint32_t>(32, 4);
  const std::uint32_t Threads = smokeSize<std::uint32_t>(128, 32);
  Report.config().set("n", json::Value(N));
  Report.config().set("teams", json::Value(Teams));
  Report.config().set("threads", json::Value(Threads));

  Table T({"Build", "Code size", "# Regs", "SMem", "Kernel cycles"});
  for (const Row &R : Rows) {
    auto CK = compileKernel(spec(BodyId), R.Options, GPU.registry());
    if (!CK) {
      std::fprintf(stderr, "compile failed: %s\n", CK.error().message().c_str());
      continue;
    }
    host::HostRuntime Host(GPU);
    std::vector<double> Y(N, 1.0);
    auto Mapped = Host.enterData(Y.data(), N * 8);
    auto Registered = Host.registerImage(*CK->M);
    if (!Registered) {
      std::fprintf(stderr, "registerImage failed: %s\n",
                   Registered.error().message().c_str());
      continue;
    }
    const host::KernelArg Args[] = {
        host::KernelArg::mapped(Y.data()),
        host::KernelArg::i64(static_cast<std::int64_t>(N))};
    auto LR = Host.launch(CK->Kernel->name(), Args, Teams, Threads);
    T.startRow();
    T.cell(std::string(R.Name));
    T.cell(static_cast<std::uint64_t>(CK->Stats.CodeSize));
    T.cell(static_cast<std::uint64_t>(CK->Stats.Registers));
    T.cell(formatBytes(CK->Stats.SharedMemBytes));
    if (LR && LR->Ok)
      T.cell(static_cast<std::uint64_t>(LR->Metrics.KernelCycles));
    else
      T.cell("n/a");

    json::Value &Row = Report.addRow(R.Name);
    Row.set("build", json::Value(R.Name));
    Row.set("ok", json::Value(bool(LR && LR->Ok)));
    Row.set("code_size", json::Value(CK->Stats.CodeSize));
    Row.set("regs", json::Value(std::uint64_t(CK->Stats.Registers)));
    Row.set("smem_bytes", json::Value(CK->Stats.SharedMemBytes));
    Row.set("compile", BenchReport::timingJson(CK->Timing));
    if (LR && LR->Ok) {
      Row.set("cycles", json::Value(LR->Metrics.KernelCycles));
      Row.set("profile", BenchReport::profileJson(LR->Profile));
    }

    (void)Mapped;
  }
  T.print(std::cout);
  std::printf("\nDebug features are selected by @%s at compile time and cost "
              "nothing in release\nbuilds — the paths are statically dead and "
              "pruned (Figure 1).\n",
              std::string(rt::DebugKindName).c_str());
  codesign::bench::printCounterFooter();
  return Report.write();
}
