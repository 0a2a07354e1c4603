//===- exec/LaunchEngine.cpp - Backend registry + shared launch engine -----===//
//
// The backend-independent half of every kernel launch, extracted from the
// old vgpu::KernelLauncher: argument/geometry validation, the occupancy
// calculation linking Figure 11's resource columns to Figure 10's kernel
// times, the launch plan kept on the image, the parallel team fan-out on
// the process's executor, and the deterministic fold of the teams'
// outcomes into the launch result in team-ID order. Backends only supply
// bindKernel/runTeam.
//
//===----------------------------------------------------------------------===//
#include "exec/Backend.hpp"

#include <algorithm>
#include <utility>

#include "exec/BuiltinBackends.hpp"
#include "support/ThreadPool.hpp"
#include "vgpu/Bytecode.hpp"
#include "vgpu/KernelStats.hpp"

namespace codesign::exec {

//===----------------------------------------------------------------------===//
// BackendRegistry
//===----------------------------------------------------------------------===//

BackendRegistry &BackendRegistry::global() {
  static BackendRegistry *R = [] {
    auto *Reg = new BackendRegistry();
    Reg->add(makeTreeBackend());
    Reg->add(makeBytecodeBackend());
    Reg->add(makeNativeBackend());
    return Reg;
  }();
  return *R;
}

void BackendRegistry::add(std::unique_ptr<Backend> B) {
  CODESIGN_ASSERT(B != nullptr, "null backend registration");
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &Existing : Backends)
    CODESIGN_ASSERT(Existing->name() != B->name(),
                    "backend name registered twice");
  Backends.push_back(std::move(B));
}

Expected<Backend *> BackendRegistry::lookup(std::string_view Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &B : Backends)
    if (B->name() == Name)
      return B.get();
  std::string Known;
  for (const auto &B : Backends) {
    if (!Known.empty())
      Known += ", ";
    Known += B->name();
  }
  return Error("unknown execution backend '" + std::string(Name) +
               "' (registered: " + Known + ")");
}

std::vector<std::string> BackendRegistry::names() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<std::string> Names;
  Names.reserve(Backends.size());
  for (const auto &B : Backends)
    Names.emplace_back(B->name());
  return Names;
}

//===----------------------------------------------------------------------===//
// Launch engine
//===----------------------------------------------------------------------===//

using vgpu::KernelStaticStats;
using vgpu::LaunchResult;
using vgpu::ModuleImage;
using vgpu::TeamRunOutcome;

namespace {

/// The outcome array of the last launch this host thread finished. The
/// next launch on the thread takes it over; a launch nested in a team
/// finds it taken and allocates its own.
thread_local std::vector<TeamRunOutcome> SpareOutcomes;

/// Fold one team's outcome into the launch result: its counters into the
/// metrics and the profile, its cycles into the team distribution.
void addTeam(LaunchResult &R, const TeamRunOutcome &T) {
  const vgpu::HotCounters &C = T.Counters;
  vgpu::LaunchMetrics &M = R.Metrics;
  M.DynamicInstructions += C.DynamicInstructions;
  M.GlobalLoads += C.GlobalLoads;
  M.GlobalStores += C.GlobalStores;
  M.SharedLoads += C.SharedLoads;
  M.SharedStores += C.SharedStores;
  M.LocalAccesses += C.LocalAccesses;
  M.Atomics += C.Atomics;
  M.Barriers += C.Barriers;
  M.Calls += C.Calls;
  M.NativeCycles += C.NativeCycles;
  M.DeviceMallocs += C.DeviceMallocs;
  vgpu::LaunchProfile &P = R.Profile;
  for (std::size_t K = 0; K < vgpu::NumOpClasses; ++K)
    P.OpCounts[K] += C.Ops[K];
  P.GlobalBytesRead += C.GlobalBytesRead;
  P.GlobalBytesWritten += C.GlobalBytesWritten;
  P.SharedBytesRead += C.SharedBytesRead;
  P.SharedBytesWritten += C.SharedBytesWritten;
  P.BarrierWaitCycles += C.BarrierWaitCycles;
  ++P.Teams;
  P.TeamCyclesMin = std::min(P.TeamCyclesMin, T.Cycles);
  P.TeamCyclesMax = std::max(P.TeamCyclesMax, T.Cycles);
  P.TeamCyclesTotal += T.Cycles;
}

} // namespace

LaunchResult launch(Backend &B, const LaunchEnv &Env,
                    const vgpu::ModuleImage &Image, const ir::Function *Kernel,
                    std::span<const std::uint64_t> Args,
                    std::uint32_t NumTeams, std::uint32_t NumThreads) {
  const vgpu::DeviceConfig &Config = Env.Config;
  LaunchResult Result;
  if (!Kernel->hasAttr(ir::FnAttr::Kernel)) {
    Result.Error = "function '" + Kernel->name() + "' is not a kernel";
    return Result;
  }
  if (Args.size() != Kernel->numArgs()) {
    Result.Error = "kernel argument count mismatch";
    return Result;
  }
  if (NumThreads == 0 || NumThreads > Config.MaxThreadsPerTeam ||
      NumTeams == 0) {
    Result.Error = "invalid launch configuration";
    return Result;
  }
  if (Image.sharedStaticSize() > Config.SharedMemPerTeam) {
    Result.Error = "static shared memory exceeds device capacity";
    return Result;
  }

  // The launch plan: the kernel's static stats and the backend's bound
  // kernel, built by the first launch of this kernel on this image and
  // kept there. Binding does the backend's one-time work (bytecode
  // lowering, the native compile) before the fan-out, so no team pays it
  // under contention, and a backend that cannot execute this kernel fails
  // the whole launch with an explicit error. A refused bind is not kept.
  // The stats come with the compile's lowering when the image was loaded
  // with one; an image of a bare module computes them here.
  const ModuleImage::LaunchPlan *Plan =
      Image.findPlan(&B, Kernel, Config.DetectRaces);
  if (!Plan) {
    auto Bound = B.bindKernel(Image, Kernel, Env);
    if (!Bound) {
      Result.Error =
          std::string(B.name()) + " backend: " + Bound.error().message();
      return Result;
    }
    const vgpu::BCFunction *Lowered =
        Image.bytecode() ? Image.bytecode()->functionFor(Kernel) : nullptr;
    Plan = &Image.addPlan(
        {&B, Kernel, Config.DetectRaces,
         Lowered && Lowered->Stats
             ? *Lowered->Stats
             : vgpu::computeKernelStats(*Kernel, Env.Registry),
         Bound.takeValue()});
  }
  const KernelStaticStats &Stats = Plan->Stats;
  BoundKernel &Bound = *Plan->Bound;

  // Occupancy: how many teams one SM can host concurrently, limited by
  // shared memory and register usage (the Figure 11 -> Figure 10 link).
  std::uint32_t Occupancy = Config.MaxConcurrentTeamsPerSM;
  if (Stats.SharedMemBytes > 0)
    Occupancy = std::min<std::uint32_t>(
        Occupancy,
        static_cast<std::uint32_t>(Config.SharedMemPerTeam /
                                   Stats.SharedMemBytes));
  const std::uint64_t RegsPerTeam =
      static_cast<std::uint64_t>(Stats.Registers) * NumThreads;
  if (RegsPerTeam > 0)
    Occupancy = std::min<std::uint32_t>(
        Occupancy,
        static_cast<std::uint32_t>(Config.RegisterFilePerSM / RegsPerTeam));
  Occupancy = std::max<std::uint32_t>(Occupancy, 1);
  Result.Metrics.TeamsPerSM = Occupancy;

  // Execute the teams. Each team counts into its own team model and hands
  // its outcome back into its slot of Outcomes; teams touch no other
  // mutable state besides global memory (reached via atomics), so they can
  // execute on any number of host threads. The outcomes are folded in
  // team-ID order below, which makes every reported number — and the error
  // reported for a trapping launch — bit-identical to a serial run: the
  // fold stops at the lowest-numbered trapping team, exactly the team a
  // serial sweep stops at (every team below it completes cleanly in both
  // modes).
  struct OutcomesLease {
    std::vector<TeamRunOutcome> V = std::exchange(SpareOutcomes, {});
    ~OutcomesLease() { SpareOutcomes = std::move(V); }
  } Lease;
  std::vector<TeamRunOutcome> &Outcomes = Lease.V;
  Outcomes.resize(NumTeams);
  const auto RunTeam = [&](std::uint64_t Team) {
    Outcomes[Team] =
        B.runTeam(Bound, Env, Image, Kernel, Args,
                  static_cast<std::uint32_t>(Team), NumTeams, NumThreads);
  };
  const std::uint32_t Width = std::min<std::uint32_t>(
      support::resolveHostThreads(Config.HostThreads), NumTeams);
  if (Width <= 1) {
    // Serial fallback: execute in the caller, stopping at the first trap
    // like the original engine.
    for (std::uint32_t Team = 0; Team < NumTeams; ++Team) {
      RunTeam(Team);
      if (Outcomes[Team].Err)
        break;
    }
  } else {
    support::ThreadPool::global().parallelFor(Width, NumTeams, RunTeam);
  }

  // Deterministic fold in team-ID order.
  for (std::uint32_t Team = 0; Team < NumTeams; ++Team) {
    if (Outcomes[Team].Err) {
      Result.Error = *Outcomes[Team].Err;
      return Result;
    }
    addTeam(Result, Outcomes[Team]);
  }
  // Wall time per SM: teams go to SMs round-robin, and each SM runs its
  // teams in waves of `Occupancy`; a wave lasts as long as its slowest
  // team.
  for (std::uint32_t SM = 0; SM < Config.NumSMs && SM < NumTeams; ++SM) {
    std::uint64_t Wall = 0, WaveMax = 0;
    std::uint32_t InWave = 0;
    for (std::uint32_t Team = SM; Team < NumTeams; Team += Config.NumSMs) {
      WaveMax = std::max(WaveMax, Outcomes[Team].Cycles);
      if (++InWave == Occupancy) {
        Wall += WaveMax;
        WaveMax = 0;
        InWave = 0;
      }
    }
    Result.Metrics.KernelCycles =
        std::max(Result.Metrics.KernelCycles, Wall + WaveMax);
  }
  Result.Ok = true;
  return Result;
}

} // namespace codesign::exec
