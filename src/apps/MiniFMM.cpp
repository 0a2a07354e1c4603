#include "apps/MiniFMM.hpp"

#include <algorithm>
#include <cmath>

namespace codesign::apps {

using frontend::BodyArg;
using frontend::KernelSpec;
using frontend::NativeBody;
using frontend::Stmt;
using frontend::TripCount;
using vgpu::DeviceAddr;
using vgpu::NativeCtx;
using vgpu::NativeOpInfo;

namespace {

/// P2P kernel both sides share: softened inverse-square interaction.
double p2p(const double *P) {
  const double DX = P[0] - P[4], DY = P[1] - P[5], DZ = P[2] - P[6];
  const double R2 = DX * DX + DY * DY + DZ * DZ + 1e-6;
  const double Inv = 1.0 / std::sqrt(R2);
  return P[3] * P[7] * Inv * Inv * Inv * (DX + DY + DZ);
}

} // namespace

MiniFMM::MiniFMM(vgpu::VirtualGPU &GPU, MiniFMMConfig Cfg)
    : Harness("MiniFMM", GPU, [this] { return reference(); }), Cfg(Cfg) {
  generate();
  upload();
  Harness.reference(); // with the inputs (AppCommon.hpp, "Reference cache")

  // Serial per-team traversal bookkeeping: mark this team's subtree.
  PrepBodyId = GPU.registry().add(NativeOpInfo{
      "minifmm_prepare",
      [](NativeCtx &Ctx) {
        const DeviceAddr Marks = Ctx.argPtr(0);
        const std::int32_t Team = Ctx.argI32(1);
        Ctx.storeF64(Marks.advance(static_cast<std::int64_t>(Team) * 8),
                     static_cast<double>(Team) + 0.5);
        Ctx.chargeCycles(200); // traversal bookkeeping
      },
      8});

  // P2P interaction: (iv, outPtr, particlesPtr, teamNum).
  P2PBodyId = GPU.registry().add(NativeOpInfo{
      "minifmm_p2p",
      [this](NativeCtx &Ctx) {
        const std::int64_t Local = Ctx.argI64(0);
        const std::int32_t Team = Ctx.argI32(3);
        const std::int64_t Pair =
            static_cast<std::int64_t>(Team) * this->Cfg.PairsPerTeam + Local;
        double P[8];
        const DeviceAddr Src = Ctx.argPtr(2).advance(Pair * 8 * 8);
        Ctx.loadBlockF64(Src, P, 8);
        Ctx.storeF64(Ctx.argPtr(1).advance(Pair * 8), p2p(P));
        Ctx.chargeCycles(90);
      },
      14});

  // Nested-task tail: every executing thread bumps its team's counter.
  TaskTailId = GPU.registry().add(NativeOpInfo{
      "minifmm_task_tail",
      [](NativeCtx &Ctx) {
        const DeviceAddr Counter =
            Ctx.argPtr(0).advance(static_cast<std::int64_t>(Ctx.teamId()) * 8);
        // Model a small dynamic task: read-modify-write plus compute.
        const double Old = Ctx.loadF64(Counter);
        Ctx.storeF64(Counter, Old + 1.0);
        Ctx.chargeCycles(120);
      },
      6});
}

void MiniFMM::generate() {
  Rng R(Cfg.Seed);
  const std::size_t NPairs =
      static_cast<std::size_t>(Cfg.Teams) * Cfg.PairsPerTeam;
  Particles.resize(NPairs * 8);
  for (double &V : Particles)
    V = R.uniform(-1.0, 1.0);
  Out.assign(NPairs, 0.0);
  TeamMarks.assign(Cfg.Teams, 0.0);
  TaskCount.assign(Cfg.Teams, 0.0);
}

void MiniFMM::upload() {
  host::HostRuntime &Host = Harness.host();
  auto A = Host.enterData(Particles.data(), Particles.size() * 8);
  auto B = Host.enterData(Out.data(), Out.size() * 8);
  auto C = Host.enterData(TeamMarks.data(), TeamMarks.size() * 8);
  auto D = Host.enterData(TaskCount.data(), TaskCount.size() * 8);
  CODESIGN_ASSERT(A && B && C && D, "minifmm upload failed");
}

KernelSpec MiniFMM::makeSpec() const {
  KernelSpec Spec;
  Spec.Name = "minifmm_traverse_kernel";
  Spec.Params = {{ir::Type::ptr(), "out"},
                 {ir::Type::ptr(), "particles"},
                 {ir::Type::ptr(), "marks"},
                 {ir::Type::ptr(), "taskcount"},
                 {ir::Type::i64(), "pairs_per_team"}};
  NativeBody Prep;
  Prep.NativeId = PrepBodyId;
  Prep.Args = {BodyArg::arg(2), BodyArg::teamNum()};

  NativeBody P2P;
  P2P.NativeId = P2PBodyId;
  P2P.Args = {BodyArg::iter(), BodyArg::arg(0), BodyArg::arg(1),
              BodyArg::teamNum()};

  NativeBody Tail;
  Tail.NativeId = TaskTailId;
  Tail.Args = {BodyArg::arg(3)};

  Spec.Stmts = {
      Stmt::serial(Prep),
      Stmt::parallel({Stmt::forLoop(TripCount::argument(4), P2P),
                      Stmt::parallelWork(Tail)}),
  };
  return Spec;
}

std::vector<double> MiniFMM::reference() const {
  std::vector<double> Ref;
  Ref.reserve(Out.size() + Cfg.Teams);
  for (std::size_t Pair = 0; Pair < Out.size(); ++Pair)
    Ref.push_back(p2p(Particles.data() + Pair * 8));
  for (std::uint32_t T = 0; T < Cfg.Teams; ++T)
    Ref.push_back(static_cast<double>(T) + 0.5);
  return Ref;
}

AppRunResult MiniFMM::run(const BuildConfig &Build) {
  const host::KernelArg Args[] = {
      host::KernelArg::mapped(Out.data()),
      host::KernelArg::mapped(Particles.data()),
      host::KernelArg::mapped(TeamMarks.data()),
      host::KernelArg::mapped(TaskCount.data()),
      host::KernelArg::i64(Cfg.PairsPerTeam)};
  const std::span<const double> Ref = Harness.reference();
  std::vector<double> ExpectedTasks(Cfg.Teams);
  AppRunResult Result = Harness.run(
      Build, makeSpec(), Args, Cfg.Teams, Cfg.Threads,
      {{"out", Out, Ref.first(Out.size())},
       {"marks", TeamMarks, Ref.subspan(Out.size()), 1e-12},
       {"tasks", TaskCount, ExpectedTasks, 1e-12}},
      [&](const ir::Function &Kernel) {
        // The nested-task counter depends on how many threads execute the
        // region: the generic-mode runtime runs it on the workers, the
        // SPMD/native lowerings on every thread of the team.
        std::fill(ExpectedTasks.begin(), ExpectedTasks.end(),
                  Kernel.execMode() == ir::ExecMode::Generic
                      ? static_cast<double>(Cfg.Threads - 1)
                      : static_cast<double>(Cfg.Threads));
      });
  if (Result.Ok)
    Result.AppMetric =
        static_cast<double>(Out.size()) /
        (static_cast<double>(Result.Metrics.KernelCycles) / 1000.0);
  return Result;
}

} // namespace codesign::apps
