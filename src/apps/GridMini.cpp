#include "apps/GridMini.hpp"

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

/// C = A * B for 3x3 complex matrices in [row][col][re,im] layout.
void su3mul(const double *A, const double *B, double *C) {
  for (int R = 0; R < 3; ++R)
    for (int Cc = 0; Cc < 3; ++Cc) {
      double Re = 0, Im = 0;
      for (int K = 0; K < 3; ++K) {
        const double Ar = A[(R * 3 + K) * 2], Ai = A[(R * 3 + K) * 2 + 1];
        const double Br = B[(K * 3 + Cc) * 2], Bi = B[(K * 3 + Cc) * 2 + 1];
        Re += Ar * Br - Ai * Bi;
        Im += Ar * Bi + Ai * Br;
      }
      C[(R * 3 + Cc) * 2] = Re;
      C[(R * 3 + Cc) * 2 + 1] = Im;
    }
}

} // namespace

GridMini::GridMini(vgpu::VirtualGPU &GPU, GridMiniConfig Cfg)
    : Harness("GridMini", GPU, [this] { return reference(); }), Cfg(Cfg) {
  generate();
  upload();
  // Body: (iv, uPtr, vPtr, outPtr): 36 field loads, 198 FLOPs, 18 stores.
  BodyId = GPU.registry().add(NativeOpInfo{
      "gridmini_su3xsu3",
      [](NativeCtx &Ctx) {
        const std::int64_t Site = Ctx.argI64(0);
        const DeviceAddr U = Ctx.argPtr(1).advance(Site * 18 * 8);
        const DeviceAddr V = Ctx.argPtr(2).advance(Site * 18 * 8);
        const DeviceAddr O = Ctx.argPtr(3).advance(Site * 18 * 8);
        double A[18], B[18], C[18];
        Ctx.loadBlockF64(U, A, 18);
        Ctx.loadBlockF64(V, B, 18);
        su3mul(A, B, C);
        Ctx.storeBlockF64(O, C, 18);
        Ctx.chargeCycles(static_cast<std::uint64_t>(GridMini::FlopsPerSite) *
                         2);
      },
      36});
}

void GridMini::generate() {
  Rng R(Cfg.Seed);
  const std::size_t N = static_cast<std::size_t>(Cfg.Volume) * 18;
  FieldU.resize(N);
  FieldV.resize(N);
  FieldOut.assign(N, 0.0);
  for (double &X : FieldU)
    X = R.uniform(-1.0, 1.0);
  for (double &X : FieldV)
    X = R.uniform(-1.0, 1.0);
  BoundBlock = {static_cast<std::int64_t>(Cfg.Volume)};
}

void GridMini::upload() {
  host::HostRuntime &Host = Harness.host();
  auto A = Host.enterData(FieldU.data(), FieldU.size() * 8);
  auto B = Host.enterData(FieldV.data(), FieldV.size() * 8);
  auto C = Host.enterData(FieldOut.data(), FieldOut.size() * 8);
  auto D = Host.enterData(BoundBlock.data(), 8);
  CODESIGN_ASSERT(A && B && C && D, "gridmini upload failed");
}

KernelSpec GridMini::makeSpec(bool ByValue) const {
  KernelSpec Spec;
  Spec.Name = "gridmini_su3_kernel";
  Spec.Params = {{ir::Type::ptr(), "u"},
                 {ir::Type::ptr(), "v"},
                 {ir::Type::ptr(), "out"},
                 {ir::Type::ptr(), "bound"},
                 {ir::Type::i64(), "n"}};
  NativeBody Body;
  Body.NativeId = BodyId;
  Body.Args = {BodyArg::iter(), BodyArg::arg(0), BodyArg::arg(1),
               BodyArg::arg(2)};
  const TripCount Trip =
      ByValue ? TripCount::argument(4) : TripCount::loadFrom(3, 0);
  Spec.Stmts = {Stmt::distributeParallelFor(Trip, Body)};
  return Spec;
}

std::vector<double> GridMini::reference() const {
  std::vector<double> Ref(FieldOut.size());
  for (std::size_t Site = 0; Site < Cfg.Volume; ++Site)
    su3mul(FieldU.data() + Site * 18, FieldV.data() + Site * 18,
           Ref.data() + Site * 18);
  return Ref;
}

AppRunResult GridMini::run(const BuildConfig &Build) {
  // CUDA always passes the bound by value (the paper matched the OpenMP
  // version to it); OpenMP follows the knob.
  const bool ByValue =
      Build.Options.CG.RT == frontend::RuntimeKind::Native || Cfg.BoundByValue;
  const host::KernelArg Args[] = {
      host::KernelArg::mapped(FieldU.data()),
      host::KernelArg::mapped(FieldV.data()),
      host::KernelArg::mapped(FieldOut.data()),
      host::KernelArg::mapped(BoundBlock.data()),
      host::KernelArg::i64(static_cast<std::int64_t>(Cfg.Volume))};
  AppRunResult Result =
      Harness.run(Build, makeSpec(ByValue), Args, Cfg.Teams, Cfg.Threads,
                  {{"out", FieldOut, Harness.reference()}});
  if (Result.Ok)
    Result.AppMetric = static_cast<double>(Cfg.Volume) * FlopsPerSite /
                       static_cast<double>(Result.Metrics.KernelCycles);
  return Result;
}

} // namespace codesign::apps
