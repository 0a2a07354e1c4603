#include "apps/RSBench.hpp"

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

/// The Faddeeva-flavoured pole evaluation both sides share. Pole data is
/// (Re(MP_EA), Im(MP_EA), Re(MP_RT), Im(MP_RT)).
double evalPoles(const double *P, std::uint32_t NPoles, double E) {
  double Sig = 0.0;
  const double SqrtE = std::sqrt(E + 1e-12);
  for (std::uint32_t K = 0; K < NPoles; ++K) {
    const double EaR = P[K * 4 + 0], EaI = P[K * 4 + 1];
    const double RtR = P[K * 4 + 2], RtI = P[K * 4 + 3];
    // (RT / (EA - sqrt(E))) with complex arithmetic, accumulate real part.
    const double DR = EaR - SqrtE, DI = EaI + 1e-6;
    const double Den = DR * DR + DI * DI;
    const double QR = (RtR * DR + RtI * DI) / Den;
    const double QI = (RtI * DR - RtR * DI) / Den;
    // A couple of transcendental-ish refinement steps (compute padding
    // standing in for the real Faddeeva evaluation).
    const double W = QR * QR - QI * QI + 0.5 * QR * QI;
    Sig += QR + 0.01 * W;
  }
  return Sig;
}

} // namespace

RSBench::RSBench(vgpu::VirtualGPU &GPU, RSBenchConfig Cfg)
    : Harness("RSBench", GPU, [this] { return reference(); }), Cfg(Cfg) {
  generate();
  upload();
  Harness.reference(); // with the inputs (AppCommon.hpp, "Reference cache")
  // Body: (iv, outPtr, polesPtr, matPtr). Pole data for one window is
  // staged into a local buffer (charged loads), then the heavy arithmetic
  // is charged as pure compute: the compute-bound profile.
  BodyId = GPU.registry().add(NativeOpInfo{
      "rsbench_lookup",
      [this](NativeCtx &Ctx) {
        const std::uint64_t Iv = static_cast<std::uint64_t>(Ctx.argI64(0));
        const DeviceAddr OutP = Ctx.argPtr(1);
        const DeviceAddr PolesP = Ctx.argPtr(2);
        const DeviceAddr MatsP = Ctx.argPtr(3);
        const std::uint64_t H = ivHash(Iv);
        const double E = hashToUnit(H);
        const std::uint32_t Mat =
            static_cast<std::uint32_t>(H % this->Cfg.NMaterials);
        const std::uint32_t Win = static_cast<std::uint32_t>(
            E * this->Cfg.NWindows) % this->Cfg.NWindows;
        double Total = 0.0;
        thread_local std::vector<double> Buf;
        Buf.resize(this->Cfg.NPolesPerWindow * 4);
        for (std::uint32_t K = 0; K < this->Cfg.NNuclidesPerMaterial; ++K) {
          const std::int64_t Nuc = Ctx.loadI64(MatsP.advance(
              (static_cast<std::int64_t>(Mat) * this->Cfg.NNuclidesPerMaterial +
               K) *
              8));
          const std::int64_t Base =
              ((Nuc * this->Cfg.NWindows + Win) * this->Cfg.NPolesPerWindow) * 4 * 8;
          Ctx.loadBlockF64(PolesP.advance(Base), Buf.data(),
                           this->Cfg.NPolesPerWindow * 4);
          Total += evalPoles(Buf.data(), this->Cfg.NPolesPerWindow, E);
          // ~70 FLOPs per pole, charged as compute (the FLOPs happen
          // natively above).
          Ctx.chargeCycles(this->Cfg.NPolesPerWindow * 140);
        }
        Ctx.storeF64(OutP.advance(static_cast<std::int64_t>(Iv) * 8), Total);
      },
      40});
}

void RSBench::generate() {
  Rng R(Cfg.Seed);
  Poles.resize(static_cast<std::size_t>(Cfg.NNuclides) * Cfg.NWindows *
               Cfg.NPolesPerWindow * 4);
  for (double &V : Poles)
    V = R.uniform(0.5, 2.0);
  MaterialTable.resize(
      static_cast<std::size_t>(Cfg.NMaterials) * Cfg.NNuclidesPerMaterial);
  for (auto &N : MaterialTable)
    N = static_cast<std::int64_t>(R.below(Cfg.NNuclides));
  Out.assign(Cfg.NLookups, 0.0);
}

void RSBench::upload() {
  host::HostRuntime &Host = Harness.host();
  auto A = Host.enterData(Poles.data(), Poles.size() * 8);
  auto B = Host.enterData(MaterialTable.data(), MaterialTable.size() * 8);
  auto C = Host.enterData(Out.data(), Out.size() * 8);
  CODESIGN_ASSERT(A && B && C, "rsbench upload failed");
}

KernelSpec RSBench::makeSpec() const {
  KernelSpec Spec;
  Spec.Name = "rsbench_lookup_kernel";
  Spec.Params = {{ir::Type::ptr(), "out"},
                 {ir::Type::ptr(), "poles"},
                 {ir::Type::ptr(), "mats"},
                 {ir::Type::i64(), "n"}};
  NativeBody Body;
  Body.NativeId = BodyId;
  Body.Args = {BodyArg::iter(), BodyArg::arg(0), BodyArg::arg(1),
               BodyArg::arg(2)};
  Spec.Stmts = {Stmt::distributeParallelFor(TripCount::argument(3), Body)};
  return Spec;
}

std::vector<double> RSBench::reference() const {
  std::vector<double> Ref(Cfg.NLookups);
  for (std::uint64_t Iv = 0; Iv < Cfg.NLookups; ++Iv) {
    const std::uint64_t H = ivHash(Iv);
    const double E = hashToUnit(H);
    const std::uint32_t Mat = static_cast<std::uint32_t>(H % Cfg.NMaterials);
    const std::uint32_t Win =
        static_cast<std::uint32_t>(E * Cfg.NWindows) % Cfg.NWindows;
    double Total = 0.0;
    for (std::uint32_t K = 0; K < Cfg.NNuclidesPerMaterial; ++K) {
      const std::int64_t Nuc =
          MaterialTable[static_cast<std::size_t>(Mat) *
                            Cfg.NNuclidesPerMaterial +
                        K];
      const std::size_t Base =
          (static_cast<std::size_t>(Nuc) * Cfg.NWindows + Win) *
          Cfg.NPolesPerWindow * 4;
      Total += evalPoles(Poles.data() + Base, Cfg.NPolesPerWindow, E);
    }
    Ref[Iv] = Total;
  }
  return Ref;
}

AppRunResult RSBench::run(const BuildConfig &Build) {
  const host::KernelArg Args[] = {
      host::KernelArg::mapped(Out.data()),
      host::KernelArg::mapped(Poles.data()),
      host::KernelArg::mapped(MaterialTable.data()),
      host::KernelArg::i64(static_cast<std::int64_t>(Cfg.NLookups))};
  AppRunResult Result =
      Harness.run(Build, makeSpec(), Args, Cfg.Teams, Cfg.Threads,
                  {{"out", Out, Harness.reference()}});
  if (Result.Ok)
    Result.AppMetric =
        static_cast<double>(Cfg.NLookups) /
        (static_cast<double>(Result.Metrics.KernelCycles) / 1000.0);
  return Result;
}

} // namespace codesign::apps
