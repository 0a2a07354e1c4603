//===- bench/fig_mapping.cpp - Naive per-launch maps vs hoisted residency --===//
//
// The data-mapping experiment: a three-kernel pipeline (init -> K x accum
// -> diff) over three host buffers, launched two ways against the same
// device:
//
//   naive     every launch carries implicit map(tofrom) for every buffer
//             argument — the buffer is copied to the device before and back
//             after each launch (what a directive-per-launch port does);
//   inferred  the same launch sequence through Service::submitPipeline,
//             which hoists each buffer to device residency across the whole
//             pipeline and narrows its motion to the union of the per-kernel
//             clauses the static map-inference pass proved (in: to, work:
//             tofrom, out: from).
//
// Reported per exec tier (tree and bytecode): h2d/d2h transfer counts and
// bytes, modeled transfer cycles, and the byte reduction. The bench fails
// unless (a) the inferred mode eliminates >= 50% of the naive transfer
// bytes and (b) the output buffer is bit-identical across both modes and
// both exec tiers. BENCH_fig_mapping.json carries one row per tier x mode
// plus a "mapping" summary section (schema-checked by validate_bench_json).
//
//===----------------------------------------------------------------------===//
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "BenchReport.hpp"
#include "frontend/KernelCache.hpp"
#include "frontend/TargetCompiler.hpp"
#include "ir/MapKind.hpp"
#include "service/Service.hpp"
#include "support/Table.hpp"
#include "vgpu/VirtualGPU.hpp"

using namespace codesign;
using namespace codesign::bench;

namespace {

/// Exact-integer double arithmetic throughout, so tree and bytecode tiers
/// (and both mapping modes) must agree bit for bit.
struct PipelineOps {
  std::int64_t Init = 0;  ///< work[i] = 2*in[i] + 1
  std::int64_t Accum = 0; ///< work[i] += in[i]
  std::int64_t Diff = 0;  ///< out[i] = work[i] - in[i]
};

PipelineOps registerOps(vgpu::VirtualGPU &GPU) {
  PipelineOps Ops;
  Ops.Init = GPU.registry().add(vgpu::NativeOpInfo{
      "map_init_element",
      [](vgpu::NativeCtx &Ctx) {
        const std::int64_t I = Ctx.argI64(0);
        const vgpu::DeviceAddr In = Ctx.argPtr(1), Work = Ctx.argPtr(2);
        Ctx.storeF64(Work.advance(I * 8), 2.0 * Ctx.loadF64(In.advance(I * 8)) + 1.0);
        Ctx.chargeCycles(4);
      },
      /*ExtraRegisters=*/4});
  Ops.Accum = GPU.registry().add(vgpu::NativeOpInfo{
      "map_accum_element",
      [](vgpu::NativeCtx &Ctx) {
        const std::int64_t I = Ctx.argI64(0);
        const vgpu::DeviceAddr In = Ctx.argPtr(1), Work = Ctx.argPtr(2);
        Ctx.storeF64(Work.advance(I * 8), Ctx.loadF64(Work.advance(I * 8)) +
                                              Ctx.loadF64(In.advance(I * 8)));
        Ctx.chargeCycles(5);
      },
      /*ExtraRegisters=*/4});
  Ops.Diff = GPU.registry().add(vgpu::NativeOpInfo{
      "map_diff_element",
      [](vgpu::NativeCtx &Ctx) {
        const std::int64_t I = Ctx.argI64(0);
        const vgpu::DeviceAddr In = Ctx.argPtr(1), Work = Ctx.argPtr(2),
                               Out = Ctx.argPtr(3);
        Ctx.storeF64(Out.advance(I * 8), Ctx.loadF64(Work.advance(I * 8)) -
                                             Ctx.loadF64(In.advance(I * 8)));
        Ctx.chargeCycles(5);
      },
      /*ExtraRegisters=*/5});
  return Ops;
}

/// (iter, in, work[, out]) element kernel over n items. The per-operand
/// flag masks are what the frontend knows about each native body; the
/// map-inference pass turns them into per-argument map clauses.
frontend::KernelSpec elementSpec(const std::string &Name, std::int64_t NativeId,
                                 bool HasOut, std::uint32_t ReadsMask,
                                 std::uint32_t WritesMask) {
  frontend::KernelSpec Spec;
  Spec.Name = Name;
  Spec.Params = {{ir::Type::ptr(), "in"}, {ir::Type::ptr(), "work"}};
  if (HasOut)
    Spec.Params.push_back({ir::Type::ptr(), "out"});
  Spec.Params.push_back({ir::Type::i64(), "n"});
  frontend::NativeBody Body;
  Body.NativeId = NativeId;
  Body.Args = {frontend::BodyArg::iter(), frontend::BodyArg::arg(0),
               frontend::BodyArg::arg(1)};
  if (HasOut)
    Body.Args.push_back(frontend::BodyArg::arg(2));
  Body.Flags.ReadsArgsMask = ReadsMask;
  Body.Flags.WritesArgsMask = WritesMask;
  Spec.Stmts = {frontend::Stmt::distributeParallelFor(
      frontend::TripCount::argument(HasOut ? 3 : 2), Body)};
  return Spec;
}

/// The launch sequence both modes execute: init, K x accum, diff.
std::vector<host::LaunchRequest>
buildRequests(std::vector<double> &In, std::vector<double> &Work,
              std::vector<double> &Out, unsigned AccumIters,
              std::uint32_t Teams, std::uint32_t Threads,
              const std::string &Tenant) {
  const std::uint64_t N = In.size();
  const std::uint64_t Bytes = N * sizeof(double);
  const auto I64N = host::KernelArg::i64(static_cast<std::int64_t>(N));
  std::vector<host::LaunchRequest> Reqs;
  Reqs.push_back(host::LaunchRequest::make(
      "map_init",
      {host::KernelArg::buffer(In.data(), Bytes),
       host::KernelArg::buffer(Work.data(), Bytes), I64N},
      Teams, Threads, Tenant));
  for (unsigned K = 0; K < AccumIters; ++K)
    Reqs.push_back(host::LaunchRequest::make(
        "map_accum",
        {host::KernelArg::buffer(In.data(), Bytes),
         host::KernelArg::buffer(Work.data(), Bytes), I64N},
        Teams, Threads, Tenant));
  Reqs.push_back(host::LaunchRequest::make(
      "map_diff",
      {host::KernelArg::buffer(In.data(), Bytes),
       host::KernelArg::buffer(Work.data(), Bytes),
       host::KernelArg::buffer(Out.data(), Bytes), I64N},
      Teams, Threads, Tenant));
  return Reqs;
}

struct ModeOutcome {
  bool Ok = false;
  std::string Error;
  host::TransferStats Transfers;
  std::uint64_t Launches = 0;
  std::uint64_t HoistedBuffers = 0;
  std::vector<double> Out; ///< the output buffer after the pipeline
};

/// Naive mode: one submitLaunch per request; every buffer argument's
/// implicit tofrom maps and unmaps it around that single launch.
ModeOutcome runNaive(service::Service &Svc, std::vector<host::LaunchRequest> Reqs) {
  ModeOutcome R;
  for (auto &Req : Reqs) {
    auto T = Svc.submitLaunch(std::move(Req));
    if (!T) {
      R.Error = T.error().message();
      return R;
    }
    auto LR = T->get();
    if (!LR || !LR->Ok) {
      R.Error = LR ? LR->Error : LR.error().message();
      return R;
    }
    R.Transfers.accumulate(host::TransferStats{
        LR->Profile.TransfersToDevice, LR->Profile.TransfersFromDevice,
        LR->Profile.BytesToDevice, LR->Profile.BytesFromDevice,
        LR->Profile.TransferCycles});
    ++R.Launches;
  }
  R.Ok = true;
  return R;
}

/// Inferred mode: the same sequence as one hoisted pipeline job.
ModeOutcome runInferred(service::Service &Svc, const std::string &Tenant,
                        std::vector<host::LaunchRequest> Reqs) {
  ModeOutcome R;
  auto T = Svc.submitPipeline(Tenant, std::move(Reqs));
  if (!T) {
    R.Error = T.error().message();
    return R;
  }
  auto PR = T->get();
  if (!PR) {
    R.Error = PR.error().message();
    return R;
  }
  R.Transfers = PR->Transfers;
  R.Launches = PR->Launches.size();
  R.HoistedBuffers = PR->HoistedBuffers;
  R.Ok = true;
  return R;
}

/// The per-kernel clauses the inference pass proved, as printable text.
std::string inferredClauses(const host::HostRuntime &Host,
                            const std::string &Kernel) {
  const ir::Function *K = Host.findKernel(Kernel);
  if (!K || !K->hasInferredMaps())
    return "(none)";
  std::string Text;
  for (unsigned I = 0; I < K->numArgs(); ++I) {
    if (!K->arg(I)->type().isPointer())
      continue;
    if (!Text.empty())
      Text += " ";
    Text += K->arg(I)->name() + "=" +
            std::string(ir::mapKindName(K->inferredArgMap(I)));
  }
  return Text;
}

} // namespace

int main() {
  const std::uint64_t N = smokeSize<std::uint64_t>(16384, 512);
  const unsigned AccumIters = smokeSize(6u, 2u);
  const std::uint32_t Teams = smokeSize(8u, 4u);
  const std::uint32_t Threads = smokeSize(64u, 32u);
  const std::uint64_t Bytes = N * sizeof(double);

  banner("fig_mapping",
         "host-device mapping: naive per-launch tofrom vs inferred residency");
  std::printf("n=%llu (%llu bytes/buffer) accum_iters=%u grid=%ux%u\n\n",
              static_cast<unsigned long long>(N),
              static_cast<unsigned long long>(Bytes), AccumIters, Teams,
              Threads);

  BenchReport Report("fig_mapping");
  Report.config().set("n", json::Value(N));
  Report.config().set("buffer_bytes", json::Value(Bytes));
  Report.config().set("accum_iters", json::Value(std::uint64_t(AccumIters)));
  Report.config().set("launches", json::Value(std::uint64_t(AccumIters) + 2));

  vgpu::VirtualGPU GPU;
  const PipelineOps Ops = registerOps(GPU);

  frontend::KernelCache::global().clear();
  Counters::global().reset();

  service::ServiceConfig Cfg;
  Cfg.Workers = 2;
  service::Service Svc(GPU, Cfg);
  const std::string Tenant = "mapping";

  // Compile the three kernels once; inference annotates each with the
  // per-argument clauses the flag masks let it prove.
  struct KernelDef {
    const char *Name;
    std::int64_t Id;
    bool HasOut;
    std::uint32_t Reads, Writes;
  };
  const KernelDef Kernels[] = {
      {"map_init", Ops.Init, false, 1u << 1, 1u << 2},
      {"map_accum", Ops.Accum, false, (1u << 1) | (1u << 2), 1u << 2},
      {"map_diff", Ops.Diff, true, (1u << 1) | (1u << 2), 1u << 3}};
  for (const KernelDef &K : Kernels) {
    auto T = Svc.submitCompile(Tenant,
                               elementSpec(K.Name, K.Id, K.HasOut, K.Reads,
                                           K.Writes),
                               frontend::CompileOptions::newRTNoAssumptions());
    if (!T || !T->get()) {
      std::fprintf(stderr, "fig_mapping: compile of %s failed\n", K.Name);
      return 1;
    }
  }

  Table Clauses({"kernel", "inferred clauses"});
  json::Value Inference = json::Value::object();
  for (const char *K : {"map_init", "map_accum", "map_diff"}) {
    const std::string Text = inferredClauses(Svc.runtime(), K);
    Clauses.startRow();
    Clauses.cell(K);
    Clauses.cell(Text);
    Inference.set(K, json::Value(Text));
  }
  Clauses.print(std::cout);
  std::printf("\n");

  // Run every backend x mode combination over fresh host buffers; the
  // reference output is whichever run finished first.
  bool AllOk = true, Identical = true;
  std::vector<double> Golden;
  json::Value Mapping = json::Value::object();
  Mapping.set("inference", std::move(Inference));
  Table Results({"backend", "mode", "launches", "h2d bytes", "d2h bytes",
                 "modeled cycles"});
  double WorstReduction = 100.0;
  for (const char *TierName : {"tree", "bytecode", "native"}) {
    // The queue is drained between runs, so retuning the device backend
    // races with nothing.
    Svc.drain();
    if (auto Set = GPU.setExecBackend(TierName); !Set) {
      std::fprintf(stderr, "fig_mapping: %s\n", Set.error().message().c_str());
      AllOk = false;
      continue;
    }
    std::uint64_t NaiveBytes = 0;
    for (const bool Inferred : {false, true}) {
      std::vector<double> In(N), Work(N, 0.0), Out(N, 0.0);
      for (std::uint64_t I = 0; I < N; ++I)
        In[I] = static_cast<double>(I % 1024);
      auto Reqs = buildRequests(In, Work, Out, AccumIters, Teams, Threads,
                                Tenant);
      ModeOutcome R = Inferred ? runInferred(Svc, Tenant, std::move(Reqs))
                               : runNaive(Svc, std::move(Reqs));
      R.Out = std::move(Out);
      const char *Mode = Inferred ? "inferred" : "naive";
      if (!R.Ok) {
        std::fprintf(stderr, "fig_mapping: %s/%s FAILED: %s\n", TierName,
                     Mode, R.Error.c_str());
        AllOk = false;
        continue;
      }
      if (Golden.empty())
        Golden = R.Out;
      else if (Golden.size() != R.Out.size() ||
               std::memcmp(Golden.data(), R.Out.data(),
                           Golden.size() * sizeof(double)) != 0) {
        std::fprintf(stderr,
                     "fig_mapping: %s/%s output DIVERGES from reference\n",
                     TierName, Mode);
        Identical = false;
      }
      const std::uint64_t TotalBytes = R.Transfers.totalBytes();
      if (!Inferred)
        NaiveBytes = TotalBytes;
      Results.startRow();
      Results.cell(TierName);
      Results.cell(Mode);
      Results.cell(R.Launches);
      Results.cell(R.Transfers.BytesToDevice);
      Results.cell(R.Transfers.BytesFromDevice);
      Results.cell(R.Transfers.ModeledCycles);

      json::Value &Row =
          Report.addRow(std::string(TierName) + "/" + Mode);
      Row.set("backend", json::Value(std::string(TierName)));
      Row.set("mode", json::Value(std::string(Mode)));
      Row.set("launches", json::Value(R.Launches));
      Row.set("h2d_transfers", json::Value(R.Transfers.TransfersToDevice));
      Row.set("d2h_transfers", json::Value(R.Transfers.TransfersFromDevice));
      Row.set("h2d_bytes", json::Value(R.Transfers.BytesToDevice));
      Row.set("d2h_bytes", json::Value(R.Transfers.BytesFromDevice));
      Row.set("modeled_cycles", json::Value(R.Transfers.ModeledCycles));
      if (Inferred) {
        Row.set("hoisted_buffers", json::Value(R.HoistedBuffers));
        const double Reduction =
            NaiveBytes
                ? 100.0 * (1.0 - static_cast<double>(TotalBytes) /
                                     static_cast<double>(NaiveBytes))
                : 0.0;
        Row.set("transfer_byte_reduction_pct", json::Value(Reduction));
        WorstReduction = std::min(WorstReduction, Reduction);
        std::printf("%s: naive %llu bytes -> inferred %llu bytes "
                    "(%.1f%% eliminated)\n",
                    TierName, static_cast<unsigned long long>(NaiveBytes),
                    static_cast<unsigned long long>(TotalBytes), Reduction);
      }
      // Only the naive rows carry a profile: the tenant's last one, read
      // right after the naive run's final submitLaunch.
      if (!Inferred)
        if (auto P = Svc.lastProfile(Tenant))
          Row.set("profile", BenchReport::profileJson(*P));
    }
  }
  std::printf("\n");
  Results.print(std::cout);

  Mapping.set("outputs_identical", json::Value(Identical));
  Mapping.set("worst_reduction_pct", json::Value(WorstReduction));
  Report.setSection("mapping", std::move(Mapping));

  printCounterFooter();

  const bool ReductionOk = AllOk && WorstReduction >= 50.0;
  if (!ReductionOk)
    std::fprintf(stderr,
                 "fig_mapping FAILED: worst transfer-byte reduction %.1f%% "
                 "(need >= 50%%)\n",
                 WorstReduction);
  if (!Identical)
    std::fprintf(stderr, "fig_mapping FAILED: outputs not bit-identical\n");
  const int WriteResult = Report.write();
  return (!AllOk || !ReductionOk || !Identical) ? 1 : WriteResult;
}
