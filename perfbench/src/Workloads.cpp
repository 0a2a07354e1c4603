#include "Workloads.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <sstream>
#include <sys/prctl.h>
#include <thread>

#include "apps/GridMini.hpp"
#include "apps/MiniFMM.hpp"
#include "apps/RSBench.hpp"
#include "apps/TestSNAP.hpp"
#include "apps/XSBench.hpp"
#include "frontend/KernelCache.hpp"
#include "host/HostRuntime.hpp"
#include "service/Service.hpp"
#include "support/Json.hpp"
#include "support/Rng.hpp"

namespace perfbench {

using namespace codesign;
using frontend::BodyArg;
using frontend::KernelSpec;
using frontend::NativeBody;
using frontend::Stmt;
using frontend::TripCount;

//===----------------------------------------------------------------------===//
// Shared fixtures
//===----------------------------------------------------------------------===//

std::int64_t registerSaxpy(vgpu::VirtualGPU &GPU) {
  return GPU.registry().add(vgpu::NativeOpInfo{
      "perfbench_saxpy",
      [](vgpu::NativeCtx &Ctx) {
        const std::int64_t I = Ctx.argI64(0);
        const vgpu::DeviceAddr X = Ctx.argPtr(1), Y = Ctx.argPtr(2),
                               Out = Ctx.argPtr(3);
        const double A = Ctx.argF64(4);
        const std::int64_t Off = Ctx.argI64(5);
        Ctx.storeF64(Out.advance((Off + I) * 8),
                     A * Ctx.loadF64(X.advance(I * 8)) +
                         Ctx.loadF64(Y.advance(I * 8)));
        Ctx.chargeCycles(6);
      },
      /*ExtraRegisters=*/6});
}

KernelSpec saxpySpec(const std::string &Name, std::int64_t SaxpyId,
                     bool Mapped) {
  KernelSpec Spec;
  Spec.Name = Name;
  const auto Ptr = [&](const char *P, ir::MapKind M) {
    return Mapped ? frontend::ParamSpec::mappedPtr(P, M)
                  : frontend::ParamSpec{ir::Type::ptr(), P};
  };
  Spec.Params = {Ptr("x", ir::MapKind::To),
                 Ptr("y", ir::MapKind::To),
                 Ptr("out", ir::MapKind::From),
                 {ir::Type::f64(), "a"},
                 {ir::Type::i64(), "n"},
                 {ir::Type::i64(), "off"}};
  NativeBody Body;
  Body.NativeId = SaxpyId;
  Body.Args = {BodyArg::iter(),   BodyArg::arg(0), BodyArg::arg(1),
               BodyArg::arg(2),   BodyArg::arg(3), BodyArg::arg(5)};
  Spec.Stmts = {Stmt::distributeParallelFor(TripCount::argument(4), Body)};
  return Spec;
}

std::uint64_t irInstructions(const ir::Module &M) {
  std::uint64_t N = 0;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      N += BB->size();
  return N;
}

namespace {

/// Closed-form saxpy check over N elements of Out starting at Off.
bool saxpyMatches(const double *Out, const std::vector<double> &X,
                  const std::vector<double> &Y, double A, std::size_t N) {
  for (std::size_t I = 0; I < N; ++I)
    if (Out[I] != A * X[I] + Y[I])
      return false;
  return true;
}

void fillInputs(std::vector<double> &X, std::vector<double> &Y,
                Rng &R) {
  for (double &V : X)
    V = R.uniform(-1.0, 1.0);
  for (double &V : Y)
    V = R.uniform(-1.0, 1.0);
}

std::string errorOf(const Expected<vgpu::LaunchResult> &R) {
  return R ? R->Error : R.error().message();
}

} // namespace

//===----------------------------------------------------------------------===//
// Spec draw (compile-cold)
//===----------------------------------------------------------------------===//

SpecDraw::SpecDraw(vgpu::VirtualGPU &GPU, std::uint64_t Seed,
                   std::size_t Length)
    : Builds(apps::paperBuildConfigs(/*IncludeAssumed=*/true)) {
  // Bodies are never executed: the draw is compiled, not launched. The
  // declared register pressure mirrors the apps' bodies.
  const auto Noop = [](vgpu::NativeCtx &) {};
  ElemId = GPU.registry().add({"draw_elem", Noop, 24});
  SerialId = GPU.registry().add({"draw_serial", Noop, 8});
  ScratchId = GPU.registry().add({"draw_scratch", Noop, 16});
  TaskId = GPU.registry().add({"draw_task", Noop, 4});
  // The draw is stratified: it runs in rounds of every (shape, build) pair,
  // each round in its own seeded order, so each round runs every pass the
  // four pipelines have. A pair's variant rotates from a seeded start, so
  // four rounds meet every (shape, build, variant) once. The seed changes
  // the order and the rotation, not the mix: a percentile of compile time
  // does not move with the seed.
  Rng R(Seed ^ 0xC0FFEEULL);
  const auto Pairs = static_cast<unsigned>(4 * Builds.size());
  std::vector<unsigned> Rotation(Pairs), Order(Pairs);
  for (unsigned &V : Rotation)
    V = static_cast<unsigned>(R.below(4));
  const std::size_t Rounds =
      std::max<std::size_t>(1, (Length + Pairs - 1) / Pairs);
  for (std::size_t Round = 0; Round < Rounds; ++Round) {
    for (unsigned I = 0; I < Pairs; ++I)
      Order[I] = I;
    for (unsigned I = Pairs; I > 1; --I)
      std::swap(Order[I - 1], Order[R.below(I)]);
    for (unsigned Pair : Order)
      Draw.push_back({Pair % 4, Pair / 4,
                      static_cast<unsigned>((Rotation[Pair] + Round) % 4)});
  }
}

KernelSpec SpecDraw::spec(std::size_t I, std::string Name) const {
  const Entry &E = Draw[I];
  KernelSpec Spec;
  Spec.Name = std::move(Name);
  NativeBody Elem;
  Elem.NativeId = ElemId;
  Elem.Args = {BodyArg::iter(), BodyArg::arg(0), BodyArg::arg(1)};
  for (unsigned V = 0; V < E.Variant; ++V)
    Elem.Args.push_back(BodyArg::constant(V + 1));
  switch (E.Shape) {
  case 0: // SPMD distribute-parallel-for (XSBench, RSBench)
    Spec.Params = {{ir::Type::ptr(), "out"},
                   {ir::Type::ptr(), "in"},
                   {ir::Type::i64(), "n"}};
    Spec.Stmts = {Stmt::distributeParallelFor(TripCount::argument(2), Elem)};
    break;
  case 1: { // generic: serial + parallel { for, nested parallel } (MiniFMM)
    Spec.Params = {{ir::Type::ptr(), "out"},
                   {ir::Type::ptr(), "in"},
                   {ir::Type::i64(), "n"}};
    NativeBody Serial{SerialId, {BodyArg::arg(1), BodyArg::teamNum()}, {}};
    NativeBody Task{TaskId, {BodyArg::arg(0)}, {}};
    Spec.Stmts = {Stmt::serial(Serial),
                  Stmt::parallel({Stmt::forLoop(TripCount::argument(2), Elem),
                                  Stmt::parallelWork(Task)})};
    break;
  }
  case 2: { // per-team scratch (TestSNAP)
    Spec.Params = {{ir::Type::ptr(), "out"},
                   {ir::Type::ptr(), "in"},
                   {ir::Type::i64(), "n"}};
    NativeBody Scratch{ScratchId,
                       {BodyArg::iter(), BodyArg::arg(0), BodyArg::scratch(),
                        BodyArg::threadNum()},
                       {}};
    Spec.Stmts = {Stmt::distributeParallelFor(TripCount::argument(2), Scratch,
                                              1024u * (E.Variant + 1))};
    break;
  }
  default: // trip count loaded from memory (GridMini by reference)
    Spec.Params = {{ir::Type::ptr(), "out"},
                   {ir::Type::ptr(), "in"},
                   {ir::Type::ptr(), "bound"}};
    Spec.Stmts = {Stmt::distributeParallelFor(TripCount::loadFrom(2, 0), Elem)};
    break;
  }
  return Spec;
}

//===----------------------------------------------------------------------===//
// Proxy suite
//===----------------------------------------------------------------------===//

struct ProxySuite::Box {
  std::unique_ptr<vgpu::VirtualGPU> GPU; // declared first: outlives the app
  std::shared_ptr<void> App;
};

template <typename App, typename Config>
void ProxySuite::add(const char *Name, const std::string &RowPrefix,
                     Config Cfg, bool IncludeAssumed) {
  auto B = std::make_unique<Box>();
  B->GPU = std::make_unique<vgpu::VirtualGPU>();
  auto A = std::make_shared<App>(*B->GPU, Cfg);
  for (const apps::BuildConfig &Build :
       apps::paperBuildConfigs(IncludeAssumed)) {
    App *Raw = A.get();
    Cases.push_back({Name, RowPrefix + "/" + Build.Name,
                     [Raw, Build] { return Raw->run(Build); }});
  }
  B->App = std::move(A);
  Boxes.push_back(std::move(B));
}

ProxySuite::ProxySuite(std::uint64_t Seed) {
  // Seed offsets keep each app's default input at DefaultSeed.
  const auto AppSeed = [&](std::uint64_t Default) {
    return Default + (Seed - DefaultSeed) * 0x9E3779B97F4A7C15ULL;
  };
  // Sizes are those of bench/fig10_relative_performance and
  // bench/fig12_gridmini_gflops.
  apps::XSBenchConfig XS;
  XS.NLookups = 8192;
  XS.Teams = 64;
  XS.Threads = 128;
  XS.Seed = AppSeed(XS.Seed);
  add<apps::XSBench>("XSBench", "10a", XS, true);
  apps::RSBenchConfig RS;
  RS.Teams = 128;
  RS.Threads = 64;
  RS.NLookups = std::uint64_t(RS.Teams) * RS.Threads * 4;
  RS.Seed = AppSeed(RS.Seed);
  add<apps::RSBench>("RSBench", "10b", RS, false);
  apps::TestSNAPConfig TS;
  TS.NAtoms = 128;
  TS.Teams = 64;
  TS.Seed = AppSeed(TS.Seed);
  add<apps::TestSNAP>("TestSNAP", "10c", TS, true);
  apps::MiniFMMConfig FMM;
  FMM.Teams = 32;
  FMM.Seed = AppSeed(FMM.Seed);
  add<apps::MiniFMM>("MiniFMM", "10d", FMM, true);
  for (std::uint64_t Volume : {1024u, 4096u, 16384u}) {
    apps::GridMiniConfig GM;
    GM.Volume = Volume;
    GM.Teams = static_cast<std::uint32_t>(Volume / 128);
    GM.Threads = 128;
    GM.Seed = AppSeed(GM.Seed);
    add<apps::GridMini>("GridMini", "v" + std::to_string(Volume), GM, true);
  }
}

ProxySuite::~ProxySuite() = default;

Expected<void> ProxySuite::setBackend(const std::string &Name) {
  for (auto &B : Boxes)
    if (auto Ok = B->GPU->setExecBackend(Name); !Ok)
      return Ok;
  return {};
}

namespace {

//===----------------------------------------------------------------------===//
// proxy-apps
//===----------------------------------------------------------------------===//

/// The committed fig10/fig12 bytecode rows by name.
struct CommittedRow {
  std::uint64_t Cycles = 0, Regs = 0, SmemBytes = 0, OutputHash = 0;
};

std::map<std::string, CommittedRow> loadCommittedRows(const std::string &Root,
                                                      OpTally &Ops) {
  std::map<std::string, CommittedRow> Rows;
  for (const char *File :
       {"bench/results/BENCH_fig10_relative_performance.bytecode.json",
        "bench/results/BENCH_fig12_gridmini_gflops.bytecode.json"}) {
    std::ifstream In(Root + "/" + File);
    std::stringstream SS;
    SS << In.rdbuf();
    auto Doc = json::parse(SS.str());
    const json::Value *List = Doc ? Doc->find("rows") : nullptr;
    if (!List) {
      Ops.fail(std::string("cannot read committed rows from ") + File);
      continue;
    }
    for (std::size_t I = 0; I < List->size(); ++I) {
      const json::Value &R = List->at(I);
      const json::Value *Name = R.find("name"), *Cycles = R.find("cycles"),
                        *Regs = R.find("regs"), *Smem = R.find("smem_bytes"),
                        *Hash = R.find("output_hash");
      if (!Name || !Cycles || !Regs || !Smem || !Hash) {
        Ops.fail(std::string("incomplete committed row in ") + File);
        continue;
      }
      Rows[Name->asString()] = {Cycles->asUInt(), Regs->asUInt(),
                                Smem->asUInt(), Hash->asUInt()};
    }
  }
  return Rows;
}

class ProxyApps final : public Workload {
public:
  ProxyApps(std::uint64_t Seed, std::string Root)
      : Seed(Seed), Root(std::move(Root)) {}

  void setup(OpTally &Ops) override {
    Suite.reset();
    frontend::KernelCache::global().clear();
    Suite = std::make_unique<ProxySuite>(Seed);
    // Warm-up sweep: fills the kernel cache and fixes each case's expected
    // cycles and output hash for the measured sweeps.
    Expected.clear();
    for (const AppCase &C : Suite->cases()) {
      apps::AppRunResult R = C.Run();
      ++Ops.Attempted;
      if (!R.Ok || !R.Verified)
        Ops.fail(C.Row + ": " + (R.Ok ? "wrong output" : R.Error));
      Expected.push_back(R);
    }
    if (Seed == DefaultSeed)
      checkCommitted(Ops);
  }

  Window measure(double Seconds, OpTally &Ops) override {
    Window W;
    const std::uint64_t Misses0 = frontend::KernelCache::global().misses();
    const auto Start = Clock::now();
    const auto Stop = Start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(Seconds));
    std::uint64_t Sweeps = 0;
    for (auto Now = Start; Now < Stop; Now = Clock::now()) {
      W.Speed.maybeProbe(W.OpMs.size());
      Now = Clock::now(); // the sweep's time leaves the probe out
      ScopedSpan Sweep("bench.sweep", ++Sweeps);
      const auto &Cases = Suite->cases();
      for (std::size_t I = 0; I < Cases.size(); ++I) {
        apps::AppRunResult R;
        {
          ScopedSpan Run("apps.run");
          R = Cases[I].Run();
        }
        ++Ops.Attempted;
        if (!R.Ok || !R.Verified || R.OutputHash != Expected[I].OutputHash ||
            R.Metrics.KernelCycles != Expected[I].Metrics.KernelCycles)
          Ops.fail(Cases[I].Row + ": output or cycles changed across sweeps");
      }
      W.OpMs.push_back(microsBetween(Now, Clock::now()) / 1e3);
    }
    W.OpsPerSecond = blockRate(W.OpMs);
    if (frontend::KernelCache::global().misses() != Misses0)
      Ops.fail("kernel cache missed after warm-up");
    return W;
  }

private:
  void checkCommitted(OpTally &Ops) {
    const auto Rows = loadCommittedRows(Root, Ops);
    const auto &Cases = Suite->cases();
    for (std::size_t I = 0; I < Cases.size(); ++I) {
      auto It = Rows.find(Cases[I].Row);
      const apps::AppRunResult &R = Expected[I];
      if (It == Rows.end()) {
        Ops.fail(Cases[I].Row + ": no committed row");
        continue;
      }
      const CommittedRow &C = It->second;
      if (R.Metrics.KernelCycles != C.Cycles || R.Stats.Registers != C.Regs ||
          R.Stats.SharedMemBytes != C.SmemBytes ||
          R.OutputHash != C.OutputHash)
        Ops.fail(Cases[I].Row + ": differs from the committed bytecode row");
    }
  }

  std::uint64_t Seed;
  std::string Root;
  std::unique_ptr<ProxySuite> Suite;
  std::vector<apps::AppRunResult> Expected;
};

//===----------------------------------------------------------------------===//
// launch-storm
//===----------------------------------------------------------------------===//

class LaunchStorm final : public Workload {
public:
  explicit LaunchStorm(std::uint64_t Seed) : Seed(Seed) {}

  static constexpr std::uint64_t N = 4096;

  void setup(OpTally &Ops) override {
    Host.reset();
    Kernel = {};
    GPU = std::make_unique<vgpu::VirtualGPU>();
    const std::int64_t Saxpy = registerSaxpy(*GPU);
    Host = std::make_unique<host::HostRuntime>(*GPU);
    Rng R(Seed);
    X.resize(N);
    Y.resize(N);
    fillInputs(X, Y, R);
    Out.assign(N, 0.0);
    Interleave = Rng(Seed * 0x9E3779B97F4A7C15ULL + 1);
    ++Ops.Attempted;
    auto CK = frontend::compileKernel(
        saxpySpec("storm_saxpy", Saxpy),
        frontend::CompileOptions::newRTNoAssumptions(), GPU->registry());
    if (!CK) {
      Ops.fail("compile: " + CK.error().message());
      return;
    }
    Kernel = *CK;
    if (auto Ok = Host->registerImage(*Kernel.M, Kernel.Bytecode); !Ok)
      Ops.fail("register: " + Ok.error().message());
    for (std::vector<double> *V : {&X, &Y, &Out})
      if (auto A = Host->enterData(V->data(), N * 8); !A)
        Ops.fail("enterData: " + A.error().message());
    // One warm launch of each shape.
    launch(1, 1, Ops);
    launch(64, 64, Ops);
  }

  /// Share of fan-out launches in the interleave. At 1 in 4, the p50 of all
  /// launches falls inside the empty launches and the p90 inside the
  /// fan-out ones (the two modes are far apart), so one latency sample
  /// tracks both shapes.
  static constexpr double FanoutShare = 0.25;

  Window measure(double Seconds, OpTally &Ops) override {
    Window W;
    const auto Start = Clock::now();
    const auto Stop = Start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(Seconds));
    for (auto Now = Start; Now < Stop; Now = Clock::now()) {
      W.Speed.maybeProbe(W.OpMs.size());
      const bool Fanout = Interleave.chance(FanoutShare);
      const auto T0 = Clock::now();
      launch(Fanout ? 64 : 1, Fanout ? 64 : 1, Ops);
      W.OpMs.push_back(microsBetween(T0, Clock::now()) / 1e3);
    }
    W.OpsPerSecond = blockRate(W.OpMs);
    return W;
  }

  /// A full n = N launch read back against the closed form: the kernel the
  /// storm launched computes saxpy.
  void finish(OpTally &Ops) override {
    ++Ops.Attempted;
    auto R = Host->launch(
        "storm_saxpy",
        std::vector<host::KernelArg>{
            host::KernelArg::mapped(X.data()), host::KernelArg::mapped(Y.data()),
            host::KernelArg::mapped(Out.data()), host::KernelArg::f64(2.5),
            host::KernelArg::i64(static_cast<std::int64_t>(N)),
            host::KernelArg::i64(0)},
        16, 64);
    if (!R || !R->Ok) {
      Ops.fail("verification launch: " + errorOf(R));
      return;
    }
    if (!Host->updateFrom(Out.data()) ||
        !saxpyMatches(Out.data(), X, Y, 2.5, N))
      Ops.fail("saxpy output differs from the closed form");
  }

private:
  void launch(std::uint32_t Teams, std::uint32_t Threads, OpTally &Ops) {
    ScopedSpan S(Teams == 1 ? "host.launch.empty" : "host.launch.fanout");
    ++Ops.Attempted;
    const host::KernelArg Args[] = {
        host::KernelArg::mapped(X.data()), host::KernelArg::mapped(Y.data()),
        host::KernelArg::mapped(Out.data()), host::KernelArg::f64(2.5),
        host::KernelArg::i64(0), host::KernelArg::i64(0)};
    auto R = Host->launch("storm_saxpy", Args, Teams, Threads);
    if (!R || !R->Ok)
      Ops.fail("launch: " + errorOf(R));
  }

  std::uint64_t Seed;
  std::unique_ptr<vgpu::VirtualGPU> GPU;
  frontend::CompiledKernel Kernel;
  std::unique_ptr<host::HostRuntime> Host;
  std::vector<double> X, Y, Out;
  Rng Interleave;
};

//===----------------------------------------------------------------------===//
// compile-cold
//===----------------------------------------------------------------------===//

class CompileCold final : public Workload {
public:
  explicit CompileCold(std::uint64_t Seed) : Seed(Seed) {}

  static constexpr std::size_t DrawLength = 64;

  void setup(OpTally &Ops) override {
    Draw.reset();
    GPU = std::make_unique<vgpu::VirtualGPU>();
    Draw = std::make_unique<SpecDraw>(*GPU, Seed, DrawLength);
    // Warm-up: one pass over the draw fixes its instruction count.
    Instructions = 0;
    for (std::size_t I = 0; I < Draw->size(); ++I)
      Instructions += compile(I, Ops);
  }

  Window measure(double Seconds, OpTally &Ops) override {
    Window W;
    const auto Start = Clock::now();
    const auto Stop = Start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(Seconds));
    std::uint64_t PassInstructions = 0;
    std::size_t I = 0;
    for (auto Now = Start; Now < Stop; Now = Clock::now()) {
      W.Speed.maybeProbe(W.OpMs.size());
      const auto T0 = Clock::now();
      PassInstructions += compile(I, Ops);
      W.OpMs.push_back(microsBetween(T0, Clock::now()) / 1e3);
      if (++I == Draw->size()) {
        if (PassInstructions != Instructions)
          Ops.fail("post-pipeline instruction count changed across passes");
        PassInstructions = 0;
        I = 0;
      }
    }
    W.OpsPerSecond = blockRate(W.OpMs);
    return W;
  }

private:
  std::uint64_t compile(std::size_t I, OpTally &Ops) {
    ++Ops.Attempted;
    ScopedSpan S("frontend.compile");
    auto CK = frontend::compileKernel(
        Draw->spec(I, "cold_" + std::to_string(NextName++)),
        Draw->build(I).Options.withKernelCache(false), GPU->registry());
    if (!CK) {
      Ops.fail("compile: " + CK.error().message());
      return 0;
    }
    return irInstructions(*CK->M);
  }

  std::uint64_t Seed;
  std::unique_ptr<vgpu::VirtualGPU> GPU;
  std::unique_ptr<SpecDraw> Draw;
  std::uint64_t Instructions = 0;
  std::uint64_t NextName = 0;
};

//===----------------------------------------------------------------------===//
// service-open-loop
//===----------------------------------------------------------------------===//

class ServiceOpenLoop final : public Workload {
public:
  explicit ServiceOpenLoop(std::uint64_t Seed) : Seed(Seed) {}

  void setup(OpTally &Ops) override {
    Rig.reset();
    frontend::KernelCache::global().clear();
    Rig = std::make_unique<ServiceRig>(Seed, Ops);
  }

  /// Probes cannot run between the requests of an open loop without
  /// delaying the schedule, so they bracket the window instead.
  Window measure(double Seconds, OpTally &Ops) override {
    constexpr int Probes = 8;
    Window W;
    for (int I = 0; I < Probes; ++I)
      W.Speed.maybeProbe(0, 0.0);
    OpenLoopResult R = Rig->run(ServiceFixedRate, Seconds, Ops);
    for (int I = 0; I < Probes; ++I)
      W.Speed.maybeProbe(R.LatencyMs.size(), 0.0);
    W.OpMs = std::move(R.LatencyMs);
    W.OpsPerSecond = R.CompletedPerSecond;
    return W;
  }

  void finish(OpTally &Ops) override { Rig->verify(Ops); }

private:
  std::uint64_t Seed;
  std::unique_ptr<ServiceRig> Rig;
};

} // namespace

//===----------------------------------------------------------------------===//
// Service rig
//===----------------------------------------------------------------------===//

struct ServiceRig::Impl {
  static constexpr std::uint64_t N = 512;     ///< elements per launch
  static constexpr std::uint64_t Slots = 2048; ///< output slots (> in-flight)
  static constexpr std::uint64_t PipeN = 256;  ///< elements per pipeline
  static constexpr unsigned Kernels = 8;

  /// Buffers one pipeline request owns until its ticket completes.
  struct PipeBuffers {
    std::vector<double> X, Y, Out;
    double A = 0.0;
  };

  struct Pending {
    std::uint64_t Id = 0; ///< the service's request id
    std::uint64_t Index = 0;
    Clock::time_point Due;
    service::Ticket<vgpu::LaunchResult> Launch;
    service::Ticket<service::PipelineResult> Pipe;
    service::Ticket<frontend::CompiledKernel> Compile;
    std::unique_ptr<PipeBuffers> Buf;

    [[nodiscard]] bool ready() const {
      return Launch.valid()  ? Launch.ready()
             : Pipe.valid()  ? Pipe.ready()
                             : Compile.ready();
    }
  };

  std::unique_ptr<vgpu::VirtualGPU> GPU;
  std::int64_t SaxpyId = 0;
  std::vector<double> X, Y, Out;
  std::vector<double> LastA; ///< per slot: the a of its last writer, 0 = none
  std::vector<KernelSpec> Specs;
  Rng Mix;
  std::uint64_t NextSlot = 0;
  std::uint64_t NextIndex = 0;
  unsigned Workers = 1;
  std::unique_ptr<service::Service> Svc; // declared last: drained first

  /// Submit request Index; returns false when admission refused it.
  bool submit(Pending &P, OpTally &Ops) {
    const std::uint64_t Kind = Mix.below(100);
    const double A = 1.0 + static_cast<double>(P.Index % 13) * 0.25;
    if (Kind < 80) {
      const std::uint64_t Slot = NextSlot++ % Slots;
      LastA[Slot] = A;
      auto T = Svc->submitLaunch(host::LaunchRequest::make(
          Specs[Mix.below(Kernels)].Name,
          {host::KernelArg::mapped(X.data()), host::KernelArg::mapped(Y.data()),
           host::KernelArg::mapped(Out.data()), host::KernelArg::f64(A),
           host::KernelArg::i64(N), host::KernelArg::i64(Slot * N)},
          8, 64, "svc"));
      if (!T)
        return false;
      P.Id = T->id();
      P.Launch = std::move(*T);
    } else if (Kind < 90) {
      P.Buf = std::make_unique<PipeBuffers>();
      P.Buf->X.assign(X.begin(), X.begin() + PipeN);
      P.Buf->Y.assign(Y.begin(), Y.begin() + PipeN);
      P.Buf->Out.assign(PipeN, 0.0);
      P.Buf->A = A;
      std::vector<host::LaunchRequest> Steps;
      for (int S = 0; S < 3; ++S)
        Steps.push_back(host::LaunchRequest::make(
            "svc_pipe",
            {host::KernelArg::buffer(P.Buf->X.data(), PipeN * 8),
             host::KernelArg::buffer(P.Buf->Y.data(), PipeN * 8),
             host::KernelArg::buffer(P.Buf->Out.data(), PipeN * 8),
             host::KernelArg::f64(S == 2 ? A : A + 1.0),
             host::KernelArg::i64(PipeN), host::KernelArg::i64(0)},
            4, 64, "svc"));
      auto T = Svc->submitPipeline("svc", std::move(Steps));
      if (!T)
        return false;
      P.Id = T->id();
      P.Pipe = std::move(*T);
    } else {
      auto T = Svc->submitCompile(
          "svc", Specs[Mix.below(Kernels)],
          frontend::CompileOptions::newRTNoAssumptions());
      if (!T)
        return false;
      P.Id = T->id();
      P.Compile = std::move(*T);
    }
    ++Ops.Attempted;
    return true;
  }

  /// Take a ready request's outcome and check it.
  void complete(Pending &P, OpTally &Ops) {
    if (P.Launch.valid()) {
      auto R = P.Launch.get();
      if (!R || !R->Ok)
        Ops.fail("service launch: " + errorOf(R));
    } else if (P.Pipe.valid()) {
      auto R = P.Pipe.get();
      bool Ok = R.hasValue();
      for (std::size_t I = 0; Ok && I < R->Launches.size(); ++I)
        Ok = R->Launches[I].Ok;
      if (!Ok || !saxpyMatches(P.Buf->Out.data(), P.Buf->X, P.Buf->Y,
                               P.Buf->A, PipeN))
        Ops.fail("service pipeline: wrong or failed output");
    } else if (auto R = P.Compile.get(); !R) {
      Ops.fail("service compile: " + R.error().message());
    }
  }

  /// Complete the ready requests among the oldest of Live (kept in
  /// submission order). The service dequeues FIFO, so finished requests
  /// are among the oldest few; polling only those keeps the generator's
  /// cost flat when a backlog builds. OnDone sees each request first.
  template <typename Fn>
  void poll(std::deque<Pending> &Live, OpTally &Ops, Fn &&OnDone) {
    constexpr std::size_t PollWindow = 64;
    const auto Now = Clock::now();
    for (std::size_t I = 0; I < std::min(PollWindow, Live.size());) {
      if (!Live[I].ready()) {
        ++I;
        continue;
      }
      OnDone(Live[I], Now);
      complete(Live[I], Ops);
      Live.erase(Live.begin() + static_cast<std::ptrdiff_t>(I));
    }
  }

  /// Poll until Live is empty, for at most 30 s.
  template <typename Fn>
  void finishAll(std::deque<Pending> &Live, OpTally &Ops, Fn &&OnDone) {
    const auto Stop = Clock::now() + std::chrono::seconds(30);
    while (!Live.empty() && Clock::now() < Stop) {
      poll(Live, Ops, OnDone);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    if (!Live.empty()) {
      Ops.fail("service requests did not complete within 30 s");
      Svc->drain(); // pipelines still reference their buffers
    }
  }

  /// Submit the next request; a refusal counts as a failed op.
  bool submitNext(std::deque<Pending> &Live, Clock::time_point Due,
                  OpTally &Ops) {
    Pending Req;
    Req.Index = NextIndex++;
    Req.Due = Due;
    if (!submit(Req, Ops)) {
      ++Ops.Attempted;
      Ops.fail("service refused a request (queue full)");
      return false;
    }
    Live.push_back(std::move(Req));
    return true;
  }
};

ServiceRig::ServiceRig(std::uint64_t Seed, OpTally &Ops)
    : P(std::make_unique<Impl>()) {
  P->GPU = std::make_unique<vgpu::VirtualGPU>();
  P->SaxpyId = registerSaxpy(*P->GPU);
  Rng R(Seed);
  P->X.resize(Impl::N);
  P->Y.resize(Impl::N);
  fillInputs(P->X, P->Y, R);
  P->Out.assign(Impl::N * Impl::Slots, 0.0);
  P->LastA.assign(Impl::Slots, 0.0);
  P->Mix = Rng(Seed * 0x9E3779B97F4A7C15ULL + 2);
  service::ServiceConfig Config;
  // One generator thread plus the workers: nproc load threads in all.
  P->Workers = std::max(1u, std::thread::hardware_concurrency() - 1);
  Config.Workers = P->Workers;
  Config.QueueCapacity = 1024;
  Config.Policy = service::AdmissionPolicy::Reject;
  P->Svc = std::make_unique<service::Service>(*P->GPU, Config);
  for (unsigned K = 0; K < Impl::Kernels; ++K)
    P->Specs.push_back(saxpySpec("svc_saxpy" + std::to_string(K), P->SaxpyId));
  std::vector<KernelSpec> Warm = P->Specs;
  Warm.push_back(saxpySpec("svc_pipe", P->SaxpyId, /*Mapped=*/true));
  for (KernelSpec &S : Warm) {
    ++Ops.Attempted;
    auto T = P->Svc->submitCompile(
        "setup", std::move(S), frontend::CompileOptions::newRTNoAssumptions());
    auto CK = T ? T->get() : Expected<frontend::CompiledKernel>(T.error());
    if (!CK)
      Ops.fail("service warm-up compile: " + CK.error().message());
  }
  auto &Host = P->Svc->runtime();
  for (std::vector<double> *V : {&P->X, &P->Y, &P->Out})
    if (auto A = Host.enterData(V->data(), V->size() * 8); !A)
      Ops.fail("enterData: " + A.error().message());
}

ServiceRig::~ServiceRig() {
  P->Svc->drain();
  auto &Host = P->Svc->runtime();
  for (std::vector<double> *V : {&P->X, &P->Y, &P->Out})
    (void)Host.exitData(V->data());
}

service::QueueStats ServiceRig::queueStats() const {
  return P->Svc->queueStats();
}

namespace {

/// Tightens the calling thread's timer slack for its lifetime. The default
/// 50 us slack would add up to that much to every open-loop sleep, and so
/// to every measured latency. Only the calling thread changes: the
/// service's threads already exist and keep the default.
class PreciseSleeps {
public:
  PreciseSleeps() : Old(::prctl(PR_GET_TIMERSLACK)) {
    ::prctl(PR_SET_TIMERSLACK, 1000UL);
  }
  PreciseSleeps(const PreciseSleeps &) = delete;
  PreciseSleeps &operator=(const PreciseSleeps &) = delete;
  ~PreciseSleeps() {
    if (Old > 0)
      ::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(Old));
  }

private:
  int Old;
};

} // namespace

OpenLoopResult ServiceRig::run(double Rate, double Seconds, OpTally &Ops) {
  const PreciseSleeps Slack;
  OpenLoopResult Out;
  const service::TenantStats Before = P->Svc->tenantStats("svc");
  std::deque<Impl::Pending> Live;
  std::vector<double> LaunchLatencyUs;
  Clock::time_point LastDone;
  const auto OnDone = [&](const Impl::Pending &Done, Clock::time_point Now) {
    LastDone = Now;
    const double Ms = microsBetween(Done.Due, Now) / 1e3;
    Out.LatencyMs.push_back(Ms);
    if (Done.Launch.valid())
      LaunchLatencyUs.push_back(Ms * 1e3);
    if (SpanRecorder::global().enabled())
      SpanRecorder::global().add(Done.Launch.valid() ? "service.launch"
                                 : Done.Pipe.valid() ? "service.pipeline"
                                                     : "service.compile",
                                 Done.Due, Now, Done.Id);
  };
  const OpenLoopSchedule Sched(Clock::now() + std::chrono::milliseconds(1),
                               Rate);
  const auto Planned = static_cast<std::uint64_t>(Rate * Seconds);
  for (std::uint64_t I = 0; I < Planned; ++I) {
    const auto Due = Sched.due(I);
    for (;;) {
      P->poll(Live, Ops, OnDone);
      const auto Now = Clock::now();
      if (Now >= Due)
        break;
      if (microsBetween(Now, Due) > 150)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      else
        std::this_thread::yield();
    }
    P->submitNext(Live, Due, Ops);
    Out.GeneratorLateMaxUs =
        std::max(Out.GeneratorLateMaxUs, Sched.latenessMicros(I, Clock::now()));
  }
  P->finishAll(Live, Ops, OnDone);
  Out.CompletedPerSecond = static_cast<double>(Out.LatencyMs.size()) /
                           secondsBetween(Sched.due(0), LastDone);
  // Queue wait: each launch's latency less the mean wall time of the
  // launches themselves over this window.
  const service::TenantStats After = P->Svc->tenantStats("svc");
  const double Launches = static_cast<double>(After.LaunchWallMicros.count() -
                                              Before.LaunchWallMicros.count());
  const double MeanWall =
      Launches > 0 ? (After.LaunchWallMicros.sum() -
                      Before.LaunchWallMicros.sum()) / Launches
                   : 0.0;
  for (double Us : LaunchLatencyUs)
    Out.QueueWaitUs.push_back(Us - MeanWall);
  return Out;
}

double ServiceRig::saturate(double Seconds, OpTally &Ops) {
  const PreciseSleeps Slack;
  // Four requests per worker keep every worker busy between polls.
  const std::size_t Outstanding = 4 * P->Workers;
  constexpr int Slices = 10;
  std::vector<double> PerSlice(Slices, 0.0);
  const auto Start = Clock::now();
  const double SliceSeconds = Seconds / Slices;
  const auto OnDone = [&](const Impl::Pending &, Clock::time_point Now) {
    const auto Slice = static_cast<int>(secondsBetween(Start, Now) / SliceSeconds);
    if (Slice < Slices)
      PerSlice[Slice] += 1.0;
  };
  std::deque<Impl::Pending> Live;
  for (auto Now = Start; secondsBetween(Start, Now) < Seconds;
       Now = Clock::now()) {
    while (Live.size() < Outstanding && P->submitNext(Live, Now, Ops)) {
    }
    P->poll(Live, Ops, OnDone);
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  P->finishAll(Live, Ops, OnDone);
  for (double &Count : PerSlice)
    Count /= SliceSeconds;
  return median(std::move(PerSlice));
}

void ServiceRig::verify(OpTally &Ops) {
  P->Svc->drain();
  ++Ops.Attempted;
  if (!P->Svc->runtime().updateFrom(P->Out.data())) {
    Ops.fail("service readback failed");
    return;
  }
  for (std::uint64_t S = 0; S < Impl::Slots; ++S)
    if (P->LastA[S] != 0.0 &&
        !saxpyMatches(P->Out.data() + S * Impl::N, P->X, P->Y, P->LastA[S],
                      Impl::N)) {
      Ops.fail("service launch output differs from the closed form");
      return;
    }
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

std::unique_ptr<Workload> makeWorkload(std::string_view Name,
                                       std::uint64_t Seed,
                                       const std::string &RepoRoot) {
  if (Name == "proxy-apps")
    return std::make_unique<ProxyApps>(Seed, RepoRoot);
  if (Name == "launch-storm")
    return std::make_unique<LaunchStorm>(Seed);
  if (Name == "compile-cold")
    return std::make_unique<CompileCold>(Seed);
  if (Name == "service-open-loop")
    return std::make_unique<ServiceOpenLoop>(Seed);
  return nullptr;
}

} // namespace perfbench
