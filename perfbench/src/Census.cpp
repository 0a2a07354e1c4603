#include "Census.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "Workloads.hpp"
#include "exec/Backend.hpp"
#include "host/HostRuntime.hpp"
#include "service/Service.hpp"
#include "support/Stats.hpp"
#include "support/Trace.hpp"

namespace perfbench {

using namespace codesign;

namespace {

/// Repeat Body until it has run at least MinReps times and for at least
/// MinSeconds, or MaxReps times.
template <typename Fn>
void repeat(int MinReps, int MaxReps, double MinSeconds, Fn &&Body) {
  const auto Start = Clock::now();
  for (int I = 0; I < MaxReps; ++I) {
    if (I >= MinReps && secondsBetween(Start, Clock::now()) >= MinSeconds)
      break;
    Body();
  }
}

double elapsedUs(Clock::time_point T0) {
  return microsBetween(T0, Clock::now());
}

std::map<std::string, std::uint64_t> counterSnapshot() {
  std::map<std::string, std::uint64_t> Out;
  for (auto &[Name, V] : Counters::global().snapshot())
    Out[Name] = V;
  return Out;
}

//===----------------------------------------------------------------------===//
// frontend + opt: cold compiles over the spec draw, then cache hits
//===----------------------------------------------------------------------===//

void compileProbe(std::uint64_t Seed, MetricSet &M, OpTally &Ops) {
  vgpu::VirtualGPU GPU;
  const SpecDraw Draw(GPU, Seed, 48);
  const auto Before = counterSnapshot();
  // CompilePhaseTiming is filled only while the library's tracer is on.
  trace::Tracer &Tracer = trace::Tracer::global();
  Tracer.setEnabled(true);
  std::vector<double> Total, Codegen, Link, Opt, Verify, Stats;
  std::uint64_t Instructions = 0;
  for (std::size_t I = 0; I < Draw.size(); ++I) {
    ++Ops.Attempted;
    const auto T0 = Clock::now();
    Expected<frontend::CompiledKernel> CK = [&] {
      ScopedSpan S("frontend.compile");
      return frontend::compileKernel(
          Draw.spec(I, "census_" + std::to_string(I)),
          Draw.build(I).Options.withKernelCache(false), GPU.registry());
    }();
    Total.push_back(elapsedUs(T0));
    if (!CK) {
      Ops.fail("census compile: " + CK.error().message());
      continue;
    }
    const frontend::CompilePhaseTiming &T = CK->Timing;
    Codegen.push_back(static_cast<double>(T.CodegenMicros));
    Link.push_back(static_cast<double>(T.LinkMicros));
    Opt.push_back(static_cast<double>(T.OptMicros));
    Verify.push_back(static_cast<double>(T.VerifyMicros));
    Stats.push_back(static_cast<double>(T.StatsMicros));
    Instructions += irInstructions(*CK->M);
  }
  Tracer.setEnabled(false);
  Tracer.clear();
  const auto After = counterSnapshot();

  M.set("frontend.compile_us", median(Total), "us");
  M.set("frontend.codegen_us", median(Codegen), "us");
  M.set("frontend.link_us", median(Link), "us");
  M.set("frontend.opt_us", median(Opt), "us");
  M.set("frontend.verify_us", median(Verify), "us");
  M.set("frontend.stats_us", median(Stats), "us");
  M.set("opt.ir_instructions", static_cast<double>(Instructions), "count");
  double AnalysisHits = 0, AnalysisMisses = 0;
  for (const auto &[Name, V] : After) {
    const auto It = Before.find(Name);
    const double Delta =
        static_cast<double>(V - (It == Before.end() ? 0 : It->second));
    if (Name.starts_with("opt.pass.") && Name.ends_with(".us"))
      M.set(Name, Delta, "us");
    else if (Name.starts_with("opt.analysis.") && Name.ends_with(".hits"))
      AnalysisHits += Delta;
    else if (Name.starts_with("opt.analysis.") && Name.ends_with(".misses"))
      AnalysisMisses += Delta;
  }
  M.set("opt.analysis.hit_ratio",
        AnalysisHits + AnalysisMisses > 0
            ? AnalysisHits / (AnalysisHits + AnalysisMisses)
            : 0.0,
        "ratio");

  // Warm lookups: the first compile fills the cache, the rest hit.
  const frontend::KernelSpec Spec = Draw.spec(0, "census_cached");
  const frontend::CompileOptions Options = Draw.build(0).Options;
  std::vector<double> HitUs;
  for (int I = 0; I < 201; ++I) {
    ++Ops.Attempted;
    const auto T0 = Clock::now();
    Expected<frontend::CompiledKernel> CK = [&] {
      ScopedSpan S("frontend.cache_hit");
      return frontend::compileKernel(Spec, Options, GPU.registry());
    }();
    if (I > 0)
      HitUs.push_back(elapsedUs(T0));
    if (!CK)
      Ops.fail("census cached compile: " + CK.error().message());
  }
  M.set("frontend.cache_hit_us", median(HitUs), "us");
}

//===----------------------------------------------------------------------===//
// exec + host: the three launch shapes, per backend
//===----------------------------------------------------------------------===//

struct Shape {
  const char *Name;
  std::uint32_t Teams, Threads;
  std::int64_t N;
};
constexpr Shape Shapes[] = {{"empty", 1, 1, 0},
                            {"fanout", 64, 64, 0},
                            {"fanout_64k", 64, 64, 65536}};

void launchProbe(const std::string &Backend, MetricSet &M, OpTally &Ops) {
  constexpr std::uint64_t N = 65536;
  vgpu::VirtualGPU GPU;
  if (auto Ok = GPU.setExecBackend(Backend); !Ok) {
    Ops.fail(Ok.error().message());
    return;
  }
  const std::int64_t Saxpy = registerSaxpy(GPU);
  auto CK = frontend::compileKernel(
      saxpySpec("census_saxpy", Saxpy),
      frontend::CompileOptions::newRTNoAssumptions(), GPU.registry());
  if (!CK) {
    Ops.fail("census saxpy compile: " + CK.error().message());
    return;
  }
  std::vector<double> X(N), Y(N), Out(N, 0.0);
  for (std::uint64_t I = 0; I < N; ++I) {
    X[I] = static_cast<double>(I % 97) * 0.5;
    Y[I] = static_cast<double>(I % 89) - 3.0;
  }
  // Direct device path: VirtualGPU::launch on a loadImage'd image.
  const auto Image = GPU.loadImage(*CK->M, CK->Bytecode);
  const vgpu::DeviceAddr DX = GPU.allocate(N * 8), DY = GPU.allocate(N * 8),
                         DOut = GPU.allocate(N * 8);
  const auto Bytes = [](std::vector<double> &V) {
    return std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t *>(V.data()), V.size() * 8);
  };
  GPU.write(DX, Bytes(X));
  GPU.write(DY, Bytes(Y));
  const double A = 2.5;
  std::uint64_t ABits = 0;
  std::memcpy(&ABits, &A, 8);
  // Host path (default backend only): HostRuntime::launch on present data.
  const bool Default = Backend == vgpu::DeviceConfig{}.ExecBackend;
  host::HostRuntime Host(GPU);
  if (Default) {
    if (auto Ok = Host.registerImage(*CK->M, CK->Bytecode); !Ok)
      Ops.fail("census register: " + Ok.error().message());
    for (std::vector<double> *V : {&X, &Y, &Out})
      if (auto Ok = Host.enterData(V->data(), N * 8); !Ok)
        Ops.fail("census enterData: " + Ok.error().message());
  }
  const std::string Prefix =
      Default ? "exec.launch_us." : "exec." + Backend + ".launch_us.";
  bool First = true;
  for (const Shape &S : Shapes) {
    const std::uint64_t Args[] = {DX.Bits, DY.Bits, DOut.Bits, ABits,
                                  static_cast<std::uint64_t>(S.N), 0};
    const host::KernelArg HostArgs[] = {
        host::KernelArg::mapped(X.data()), host::KernelArg::mapped(Y.data()),
        host::KernelArg::mapped(Out.data()), host::KernelArg::f64(A),
        host::KernelArg::i64(S.N), host::KernelArg::i64(0)};
    std::vector<double> DirectUs, HostUs;
    const auto Direct = [&] {
      ++Ops.Attempted;
      const auto T0 = Clock::now();
      vgpu::LaunchResult R;
      {
        ScopedSpan Span("exec.launch");
        R = GPU.launch(*Image, CK->Kernel, Args, S.Teams, S.Threads);
      }
      const double Us = elapsedUs(T0);
      if (!R.Ok)
        Ops.fail("census launch (" + Backend + "): " + R.Error);
      return Us;
    };
    if (First) {
      // The first launch of a module pays the backend's preparation
      // (native: C++ emission, host compile, dlopen).
      const double Us = Direct();
      if (Backend == "native")
        M.set("exec.native.first_launch_s", Us / 1e6, "s");
      First = false;
    }
    Direct(); // warm-up of this shape
    repeat(5, 2000, 0.15, [&] {
      DirectUs.push_back(Direct());
      if (!Default)
        return;
      ++Ops.Attempted;
      const auto T0 = Clock::now();
      Expected<vgpu::LaunchResult> R = [&] {
        ScopedSpan Span("host.launch");
        return Host.launch("census_saxpy", HostArgs, S.Teams, S.Threads);
      }();
      HostUs.push_back(elapsedUs(T0));
      if (!R || !R->Ok)
        Ops.fail("census host launch: " + (R ? R->Error : R.error().message()));
    });
    M.set(Prefix + S.Name, median(DirectUs), "us");
    if (Default)
      M.set(std::string("host.launch_overhead_us.") + S.Name,
            median(HostUs) - median(DirectUs), "us");
    if (S.N > 0) {
      ++Ops.Attempted;
      std::vector<double> Got(N);
      GPU.read(DOut, std::span<std::uint8_t>(
                         reinterpret_cast<std::uint8_t *>(Got.data()), N * 8));
      for (std::uint64_t I = 0; I < N; ++I)
        if (Got[I] != A * X[I] + Y[I]) {
          Ops.fail("census saxpy (" + Backend + ") differs from closed form");
          break;
        }
    }
  }
  if (Default)
    for (std::vector<double> *V : {&X, &Y, &Out})
      (void)Host.exitData(V->data());
}

//===----------------------------------------------------------------------===//
// host: transfers
//===----------------------------------------------------------------------===//

void transferProbe(MetricSet &M, OpTally &Ops) {
  vgpu::VirtualGPU GPU;
  host::HostRuntime Host(GPU);
  std::vector<double> Buf(1 << 17); // 1 MiB
  for (std::size_t I = 0; I < Buf.size(); ++I)
    Buf[I] = static_cast<double>(I);
  std::vector<double> CallUs;
  const auto Timed = [&](const char *What, auto &&Call) {
    ++Ops.Attempted;
    const auto T0 = Clock::now();
    bool Ok;
    {
      ScopedSpan S("host.transfer");
      Ok = static_cast<bool>(Call());
    }
    CallUs.push_back(elapsedUs(T0));
    if (!Ok)
      Ops.fail(std::string("census ") + What + " failed");
  };
  for (int Rep = 0; Rep < 64; ++Rep) { // fixed, so the byte count is exact
    Timed("enterData", [&] { return Host.enterData(Buf.data(), Buf.size() * 8); });
    Timed("updateTo", [&] { return Host.updateTo(Buf.data()); });
    Buf[7] = -1.0; // the device copy still holds 7.0
    Timed("updateFrom", [&] { return Host.updateFrom(Buf.data()); });
    if (Buf[7] != 7.0)
      Ops.fail("census transfer round trip lost data");
    Timed("exitData",
          [&] { return Host.exitData(Buf.data(), /*CopyFrom=*/true); });
  }
  M.set("host.transfer_us", median(CallUs), "us");
  M.set("host.transfer_bytes",
        static_cast<double>(Host.transfers().stats().totalBytes()), "bytes");
}

//===----------------------------------------------------------------------===//
// apps + vgpu + exec: warm proxy sweeps under every backend
//===----------------------------------------------------------------------===//

void appsProbe(std::uint64_t Seed, MetricSet &M, OpTally &Ops) {
  ProxySuite Suite(Seed);
  const auto &Cases = Suite.cases();
  std::vector<std::uint64_t> Hashes(Cases.size(), 0);
  const std::string Default = vgpu::DeviceConfig{}.ExecBackend;
  // The default backend first: its hashes are the parity reference.
  std::vector<std::string> Backends = exec::BackendRegistry::global().names();
  std::stable_partition(Backends.begin(), Backends.end(),
                        [&](const std::string &B) { return B == Default; });
  for (const std::string &Backend : Backends) {
    if (auto Ok = Suite.setBackend(Backend); !Ok) {
      Ops.fail(Ok.error().message());
      continue;
    }
    constexpr int Sweeps = 3; // the first is a warm-up
    // Per app: per-sweep sums of App::run wall and launch wall.
    std::map<std::string, std::vector<double>> RunUs, LaunchUs;
    double Cycles = 0, Insts = 0, Regs = 0, Smem = 0;
    std::vector<double> NsPerInst;
    for (int Sweep = 0; Sweep < Sweeps; ++Sweep) {
      std::map<std::string, double> Run, Launch;
      double LaunchNs = 0, SweepInsts = 0;
      ScopedSpan SweepSpan("bench.sweep");
      for (std::size_t I = 0; I < Cases.size(); ++I) {
        ++Ops.Attempted;
        const auto T0 = Clock::now();
        apps::AppRunResult R;
        {
          ScopedSpan S("apps.run");
          R = Cases[I].Run();
        }
        Run[Cases[I].App] += elapsedUs(T0);
        Launch[Cases[I].App] += static_cast<double>(R.WallMicros);
        if (!R.Ok || !R.Verified) {
          Ops.fail("census " + Backend + " " + Cases[I].Row + ": " +
                   (R.Ok ? "wrong output" : R.Error));
          continue;
        }
        if (Backend == Default)
          Hashes[I] = R.OutputHash;
        else if (R.OutputHash != Hashes[I])
          Ops.fail("census " + Backend + " " + Cases[I].Row +
                   ": output differs from " + Default);
        LaunchNs += static_cast<double>(R.WallMicros) * 1e3;
        SweepInsts += static_cast<double>(R.Metrics.DynamicInstructions);
        if (Sweep == 0 && Backend == Default) {
          Cycles += static_cast<double>(R.Metrics.KernelCycles);
          Insts += static_cast<double>(R.Metrics.DynamicInstructions);
          Regs += R.Stats.Registers;
          Smem += static_cast<double>(R.Stats.SharedMemBytes);
        }
      }
      if (Sweep == 0)
        continue;
      for (auto &[App, Us] : Run)
        RunUs[App].push_back(Us);
      for (auto &[App, Us] : Launch)
        LaunchUs[App].push_back(Us);
      if (SweepInsts > 0)
        NsPerInst.push_back(LaunchNs / SweepInsts);
    }
    for (auto &[App, Us] : LaunchUs)
      M.set("exec." + Backend + ".launch_us." + App, median(Us), "us");
    if (Backend != Default)
      continue;
    for (auto &[App, Us] : RunUs) {
      const double Run = median(Us), Launch = median(LaunchUs[App]);
      M.set("apps.run_us." + App, Run, "us");
      M.set("apps.launch_us." + App, Launch, "us");
      M.set("apps.rest_us." + App, Run - Launch, "us");
    }
    M.set("vgpu.kernel_cycles", Cycles, "cycles");
    M.set("vgpu.modeled_insts", Insts, "count");
    M.set("vgpu.registers", Regs, "count");
    M.set("vgpu.smem_bytes", Smem, "bytes");
    M.set("vgpu.ns_per_modeled_inst", median(NsPerInst), "ns");
  }
}

//===----------------------------------------------------------------------===//
// service: a short open loop at the workload's fixed rate
//===----------------------------------------------------------------------===//

void serviceProbe(std::uint64_t Seed, MetricSet &M, OpTally &Ops) {
  ServiceRig Rig(Seed, Ops);
  OpenLoopResult R;
  {
    ScopedSpan S("bench.open_loop");
    R = Rig.run(ServiceFixedRate, 1.5, Ops);
  }
  const service::QueueStats Q = Rig.queueStats(); // of the open loop alone
  {
    ScopedSpan S("bench.saturate");
    M.set("service.capacity_rps", Rig.saturate(2.0, Ops), "1/s");
  }
  Rig.verify(Ops);
  M.set("service.queue_wait_us_p50", percentile(R.QueueWaitUs, 50), "us");
  M.set("service.queue_wait_us_p99", percentile(R.QueueWaitUs, 99), "us");
  M.set("service.queue_depth_mean", Q.MeanDepth, "count");
  M.set("service.queue_peak", static_cast<double>(Q.Peak), "count");
  M.set("service.rejected", static_cast<double>(Q.Rejected), "count");
  M.set("service.generator_late_us_max", R.GeneratorLateMaxUs, "us");
}

} // namespace

double sweepAttribution(const std::vector<Span> &Spans) {
  const std::vector<std::int64_t> Self = selfTimesNs(Spans);
  double Total = 0, Covered = 0;
  for (std::size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Name == "bench.sweep" && Spans[I].EndNs >= 0) {
      Total += static_cast<double>(Spans[I].durationNs());
      Covered += static_cast<double>(Spans[I].durationNs() - Self[I]);
    }
  return Total > 0 ? Covered / Total : 0.0;
}

void runCensus(std::uint64_t Seed, MetricSet &M, OpTally &Ops) {
  ScopedSpan Root("bench.census");
  compileProbe(Seed, M, Ops);
  for (const std::string &Backend : exec::BackendRegistry::global().names())
    launchProbe(Backend, M, Ops);
  transferProbe(M, Ops);
  appsProbe(Seed, M, Ops);
  serviceProbe(Seed, M, Ops);
  M.set("trace.sweep_attributed_ratio",
        sweepAttribution(SpanRecorder::global().spans()), "ratio");
}

} // namespace perfbench
