#include "apps/TestSNAP.hpp"

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

constexpr std::uint32_t WS = TestSNAPConfig::WorkspaceDoublesPerThread;

/// Build the per-pair workspace values (stand-in for the Ulist expansion).
void fillWorkspace(double X, double Y, double Z, double *W) {
  W[0] = X;
  W[1] = Y;
  W[2] = Z;
  for (std::uint32_t I = 3; I < WS; ++I)
    W[I] = W[I - 1] * 0.75 + W[I - 2] * 0.2 - W[I - 3] * 0.05;
}

/// Contract the workspace into one force contribution.
double contract(const double *W) {
  double F = 0;
  for (std::uint32_t I = 0; I < WS; ++I)
    F += W[I] * W[(I * 7 + 3) % WS];
  return F;
}

} // namespace

TestSNAP::TestSNAP(vgpu::VirtualGPU &GPU, TestSNAPConfig Cfg)
    : Harness("TestSNAP", GPU, [this] { return reference(); }), Cfg(Cfg) {
  generate();
  upload();
  // Body: (iv, forcesPtr, positionsPtr, scratchPtr, threadNum). The
  // workspace round-trips through the team-shared scratch — exactly the
  // too-big-for-registers intermediate arrays of the real TestSNAP.
  BodyId = GPU.registry().add(NativeOpInfo{
      "testsnap_pair",
      [](NativeCtx &Ctx) {
        const std::int64_t Pair = Ctx.argI64(0);
        const DeviceAddr Forces = Ctx.argPtr(1);
        const DeviceAddr Pos = Ctx.argPtr(2).advance(Pair * 3 * 8);
        const std::int32_t Tn = Ctx.argI32(4);
        const DeviceAddr Slot =
            Ctx.argPtr(3).advance(static_cast<std::int64_t>(Tn) * WS * 8);
        double W[WS];
        fillWorkspace(Ctx.loadF64(Pos), Ctx.loadF64(Pos.advance(8)),
                      Ctx.loadF64(Pos.advance(16)), W);
        // Stage through shared memory (charged as shared traffic).
        Ctx.storeBlockF64(Slot, W, WS);
        double R[WS];
        Ctx.loadBlockF64(Slot, R, WS);
        const double F = contract(R);
        Ctx.storeF64(Forces.advance(Pair * 8), F);
        Ctx.chargeCycles(WS * 12); // recurrence + contraction FLOPs
      },
      20});
}

void TestSNAP::generate() {
  Rng R(Cfg.Seed);
  const std::size_t NPairs =
      static_cast<std::size_t>(Cfg.NAtoms) * Cfg.NNeighbors;
  Positions.resize(NPairs * 3);
  for (double &V : Positions)
    V = R.uniform(-1.0, 1.0);
  Forces.assign(NPairs, 0.0);
}

void TestSNAP::upload() {
  host::HostRuntime &Host = Harness.host();
  auto A = Host.enterData(Positions.data(), Positions.size() * 8);
  auto B = Host.enterData(Forces.data(), Forces.size() * 8);
  CODESIGN_ASSERT(A && B, "testsnap upload failed");
}

KernelSpec TestSNAP::makeSpec() const {
  KernelSpec Spec;
  Spec.Name = "testsnap_force_kernel";
  Spec.Params = {{ir::Type::ptr(), "forces"},
                 {ir::Type::ptr(), "positions"},
                 {ir::Type::i64(), "npairs"}};
  NativeBody Body;
  Body.NativeId = BodyId;
  Body.Args = {BodyArg::iter(), BodyArg::arg(0), BodyArg::arg(1),
               BodyArg::scratch(), BodyArg::threadNum()};
  Spec.Stmts = {Stmt::distributeParallelFor(TripCount::argument(2), Body,
                                            scratchBytes())};
  return Spec;
}

std::vector<double> TestSNAP::reference() const {
  std::vector<double> Ref(Forces.size());
  double W[WS];
  for (std::size_t Pair = 0; Pair < Ref.size(); ++Pair) {
    fillWorkspace(Positions[Pair * 3], Positions[Pair * 3 + 1],
                  Positions[Pair * 3 + 2], W);
    Ref[Pair] = contract(W);
  }
  return Ref;
}

AppRunResult TestSNAP::run(const BuildConfig &Build) {
  const host::KernelArg Args[] = {
      host::KernelArg::mapped(Forces.data()),
      host::KernelArg::mapped(Positions.data()),
      host::KernelArg::i64(static_cast<std::int64_t>(Forces.size()))};
  AppRunResult Result =
      Harness.run(Build, makeSpec(), Args, Cfg.Teams, Cfg.Threads,
                  {{"forces", Forces, Harness.reference()}});
  if (Result.Ok)
    Result.AppMetric =
        static_cast<double>(Forces.size()) /
        (static_cast<double>(Result.Metrics.KernelCycles) / 1000.0);
  return Result;
}

} // namespace codesign::apps
