//===- exec/LaunchEngine.cpp - Backend registry + shared launch engine -----===//
//
// The backend-independent half of every kernel launch, extracted from the
// old vgpu::KernelLauncher: argument/geometry validation, the occupancy
// calculation linking Figure 11's resource columns to Figure 10's kernel
// times, the parallel team fan-out on the host ThreadPool, and the
// deterministic merge of per-team metric shards in team-ID order. Backends
// only supply prepareModule/bindKernel/runTeam.
//
//===----------------------------------------------------------------------===//
#include "exec/Backend.hpp"

#include <algorithm>

#include "exec/BuiltinBackends.hpp"
#include "support/ThreadPool.hpp"
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
using vgpu::LaunchMetrics;
using vgpu::LaunchProfile;
using vgpu::LaunchResult;

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

  // Occupancy: how many teams one SM can host concurrently, limited by
  // shared memory and register usage (the Figure 11 -> Figure 10 link).
  const KernelStaticStats Stats =
      vgpu::computeKernelStats(*Kernel, Env.Registry);
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

  // Backend hooks: per-image preparation and per-kernel binding happen
  // once, before the fan-out, so no team pays them under contention and a
  // backend that cannot execute this kernel fails the whole launch with an
  // explicit error.
  if (auto Prep = B.prepareModule(Image, Env); !Prep) {
    Result.Error =
        std::string(B.name()) + " backend: " + Prep.error().message();
    return Result;
  }
  auto Bound = B.bindKernel(Image, Kernel, Env);
  if (!Bound) {
    Result.Error =
        std::string(B.name()) + " backend: " + Bound.error().message();
    return Result;
  }

  // Execute the teams. Each team runs against a private metrics shard and
  // touches no mutable state besides global memory (reached via atomics),
  // so teams can execute on any number of host threads. The shards are
  // merged in team-ID order below, which makes every reported number — and
  // the error reported for a trapping launch — bit-identical to a serial
  // run. On failure the merge reports the lowest-numbered trapping team —
  // exactly the team a serial sweep would have stopped at (every team below
  // it completes cleanly in both modes).
  struct TeamShard {
    bool Ran = false;
    TeamOutcome Out;
    LaunchMetrics Metrics;
    LaunchProfile Profile;
  };
  std::vector<TeamShard> Shards(NumTeams);
  const auto RunTeam = [&](std::uint64_t Team) {
    TeamShard &S = Shards[Team];
    B.runTeam(**Bound, Env, Image, Kernel, Args,
              static_cast<std::uint32_t>(Team), NumTeams, NumThreads,
              S.Metrics, Config.CollectProfile ? &S.Profile : nullptr, S.Out);
    S.Ran = true;
  };
  const std::uint32_t Workers = std::min<std::uint32_t>(
      support::resolveHostThreads(Config.HostThreads), NumTeams);
  if (Workers <= 1) {
    // Serial fallback: execute in the caller, stopping at the first trap
    // like the original engine.
    for (std::uint32_t Team = 0; Team < NumTeams; ++Team) {
      RunTeam(Team);
      if (Shards[Team].Out.Err)
        break;
    }
  } else {
    support::ThreadPool Pool(Workers);
    Pool.parallelFor(NumTeams, RunTeam);
  }

  // Deterministic merge in team-ID order.
  std::vector<std::vector<std::uint64_t>> PerSM(Config.NumSMs);
  for (std::uint32_t Team = 0; Team < NumTeams; ++Team) {
    TeamShard &S = Shards[Team];
    if (!S.Ran)
      break; // serial fallback stopped at a lower team's trap
    if (S.Out.Err) {
      Result.Error = *S.Out.Err;
      return Result;
    }
    Result.Metrics.accumulate(S.Metrics);
    if (Config.CollectProfile) {
      Result.Profile.Collected = true;
      Result.Profile.accumulate(S.Profile);
      Result.Profile.addTeam(S.Out.Cycles);
    }
    PerSM[Team % Config.NumSMs].push_back(S.Out.Cycles);
  }
  // Wall time per SM: its teams run in waves of `Occupancy`.
  for (const auto &Teams : PerSM) {
    std::uint64_t Wall = 0;
    for (std::size_t I = 0; I < Teams.size(); I += Occupancy) {
      std::uint64_t BatchMax = 0;
      for (std::size_t J = I; J < std::min(Teams.size(), I + Occupancy); ++J)
        BatchMax = std::max(BatchMax, Teams[J]);
      Wall += BatchMax;
    }
    Result.Metrics.KernelCycles = std::max(Result.Metrics.KernelCycles, Wall);
  }
  Result.Ok = true;
  return Result;
}

} // namespace codesign::exec
