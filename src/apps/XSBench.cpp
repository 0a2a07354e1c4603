#include "apps/XSBench.hpp"

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

/// The lookup computation, shared by the device functor and the host
/// reference (identical operation order => bitwise-identical results).
struct LookupInputs {
  std::uint64_t NG = 0;
  std::uint32_t NNucPerMat = 0;
  std::uint32_t NMaterials = 0;
};

/// Device-side lookup. Every table access goes through Ctx (and is charged
/// as a global-memory access), preserving the memory-bound character.
double deviceLookup(NativeCtx &Ctx, std::uint64_t Iv, DeviceAddr Grid,
                    DeviceAddr XS, DeviceAddr Mats, const LookupInputs &In) {
  const std::uint64_t H = ivHash(Iv);
  const double E = hashToUnit(H);
  const std::uint32_t Mat = static_cast<std::uint32_t>(H % In.NMaterials);
  // Binary search over the unionized grid.
  std::uint64_t Lo = 0, Hi = In.NG - 1;
  while (Hi - Lo > 1) {
    const std::uint64_t Mid = (Lo + Hi) / 2;
    const double V = Ctx.loadF64(Grid.advance(static_cast<std::int64_t>(Mid) * 8));
    if (V <= E)
      Lo = Mid;
    else
      Hi = Mid;
  }
  const double ELo = Ctx.loadF64(Grid.advance(static_cast<std::int64_t>(Lo) * 8));
  const double EHi = Ctx.loadF64(Grid.advance(static_cast<std::int64_t>(Hi) * 8));
  const double F = (E - ELo) / (EHi - ELo + 1e-30);
  double Total = 0.0;
  for (std::uint32_t K = 0; K < In.NNucPerMat; ++K) {
    const std::int64_t Nuc = Ctx.loadI64(
        Mats.advance((static_cast<std::int64_t>(Mat) * In.NNucPerMat + K) * 8));
    const std::int64_t Base = (Nuc * static_cast<std::int64_t>(In.NG) +
                               static_cast<std::int64_t>(Lo)) *
                              16;
    double AB[2];
    Ctx.loadBlockF64(XS.advance(Base), AB, 2);
    Total += AB[0] * (1.0 - F) + AB[1] * F;
  }
  Ctx.chargeCycles(80); // index arithmetic + interpolation FLOPs
  return Total;
}

} // namespace

XSBench::XSBench(vgpu::VirtualGPU &GPU, XSBenchConfig Cfg)
    : Harness("XSBench", GPU, [this] { return reference(); }), Cfg(Cfg) {
  generate();
  upload();
  Harness.reference(); // with the inputs (AppCommon.hpp, "Reference cache")

  // Config-by-reference body: (iv, outPtr, cfgPtr). The five field loads
  // per iteration are the Section VII by-reference overhead.
  BodyByRefId = GPU.registry().add(NativeOpInfo{
      "xsbench_lookup_cfgptr",
      [this](NativeCtx &Ctx) {
        const std::uint64_t Iv = static_cast<std::uint64_t>(Ctx.argI64(0));
        const DeviceAddr OutP = Ctx.argPtr(1);
        const DeviceAddr CfgP = Ctx.argPtr(2);
        LookupInputs In;
        In.NG = static_cast<std::uint64_t>(Ctx.loadI64(CfgP));
        In.NNucPerMat =
            static_cast<std::uint32_t>(Ctx.loadI64(CfgP.advance(8)));
        In.NMaterials =
            static_cast<std::uint32_t>(Ctx.loadI64(CfgP.advance(16)));
        const DeviceAddr Grid(
            static_cast<std::uint64_t>(Ctx.loadI64(CfgP.advance(24))));
        const DeviceAddr XS(
            static_cast<std::uint64_t>(Ctx.loadI64(CfgP.advance(32))));
        const DeviceAddr Mats(
            static_cast<std::uint64_t>(Ctx.loadI64(CfgP.advance(40))));
        const double R = deviceLookup(Ctx, Iv, Grid, XS, Mats, In);
        Ctx.storeF64(OutP.advance(static_cast<std::int64_t>(Iv) * 8), R);
      },
      24});

  // By-value body (CUDA style): (iv, outPtr, gridPtr, xsPtr, matPtr).
  BodyByValId = GPU.registry().add(NativeOpInfo{
      "xsbench_lookup_byval",
      [this](NativeCtx &Ctx) {
        const std::uint64_t Iv = static_cast<std::uint64_t>(Ctx.argI64(0));
        const DeviceAddr OutP = Ctx.argPtr(1);
        LookupInputs In;
        In.NG = this->Cfg.NGridpoints;
        In.NNucPerMat = this->Cfg.NNuclidesPerMaterial;
        In.NMaterials = this->Cfg.NMaterials;
        const double R = deviceLookup(Ctx, Iv, Ctx.argPtr(2), Ctx.argPtr(3),
                                      Ctx.argPtr(4), In);
        Ctx.storeF64(OutP.advance(static_cast<std::int64_t>(Iv) * 8), R);
      },
      22});
}

XSBench::~XSBench() = default;

void XSBench::generate() {
  Rng R(Cfg.Seed);
  EnergyGrid.resize(Cfg.NGridpoints);
  for (std::uint64_t I = 0; I < Cfg.NGridpoints; ++I)
    EnergyGrid[I] =
        (static_cast<double>(I) + 0.5 * R.uniform()) /
        static_cast<double>(Cfg.NGridpoints);
  XSData.resize(Cfg.NNuclides * Cfg.NGridpoints * 2);
  for (double &V : XSData)
    V = R.uniform(0.1, 10.0);
  MaterialTable.resize(
      static_cast<std::size_t>(Cfg.NMaterials) * Cfg.NNuclidesPerMaterial);
  for (auto &N : MaterialTable)
    N = static_cast<std::int64_t>(R.below(Cfg.NNuclides));
  Out.assign(Cfg.NLookups, 0.0);
}

void XSBench::upload() {
  host::HostRuntime &Host = Harness.host();
  auto GridAddr =
      Host.enterData(EnergyGrid.data(), EnergyGrid.size() * 8);
  auto XSAddr = Host.enterData(XSData.data(), XSData.size() * 8);
  auto MatAddr =
      Host.enterData(MaterialTable.data(), MaterialTable.size() * 8);
  CODESIGN_ASSERT(GridAddr && XSAddr && MatAddr, "xsbench upload failed");
  ConfigBlock = {Cfg.NGridpoints,
                 Cfg.NNuclidesPerMaterial,
                 Cfg.NMaterials,
                 GridAddr->Bits,
                 XSAddr->Bits,
                 MatAddr->Bits};
  auto CfgAddr = Host.enterData(ConfigBlock.data(), ConfigBlock.size() * 8);
  auto OutAddr = Host.enterData(Out.data(), Out.size() * 8);
  CODESIGN_ASSERT(CfgAddr && OutAddr, "xsbench upload failed");
}

KernelSpec XSBench::makeSpec(bool ByReference) const {
  KernelSpec Spec;
  Spec.Name = "xsbench_lookup_kernel";
  NativeBody Body;
  Body.Flags.ReadsMemory = true;
  Body.Flags.WritesMemory = true;
  Body.Flags.Divergent = true;
  if (ByReference) {
    Spec.Params = {{ir::Type::ptr(), "out"},
                   {ir::Type::ptr(), "cfg"},
                   {ir::Type::i64(), "n"}};
    Body.NativeId = BodyByRefId;
    Body.Args = {BodyArg::iter(), BodyArg::arg(0), BodyArg::arg(1)};
  } else {
    Spec.Params = {{ir::Type::ptr(), "out"},
                   {ir::Type::ptr(), "grid"},
                   {ir::Type::ptr(), "xs"},
                   {ir::Type::ptr(), "mats"},
                   {ir::Type::i64(), "n"}};
    Body.NativeId = BodyByValId;
    Body.Args = {BodyArg::iter(), BodyArg::arg(0), BodyArg::arg(1),
                 BodyArg::arg(2), BodyArg::arg(3)};
  }
  Spec.Stmts = {Stmt::distributeParallelFor(
      TripCount::argument(static_cast<unsigned>(Spec.Params.size() - 1)),
      Body)};
  return Spec;
}

std::vector<double> XSBench::reference() const {
  std::vector<double> Ref(Cfg.NLookups);
  for (std::uint64_t Iv = 0; Iv < Cfg.NLookups; ++Iv) {
    const std::uint64_t H = ivHash(Iv);
    const double E = hashToUnit(H);
    const std::uint32_t Mat = static_cast<std::uint32_t>(H % Cfg.NMaterials);
    std::uint64_t Lo = 0, Hi = Cfg.NGridpoints - 1;
    while (Hi - Lo > 1) {
      const std::uint64_t Mid = (Lo + Hi) / 2;
      if (EnergyGrid[Mid] <= E)
        Lo = Mid;
      else
        Hi = Mid;
    }
    const double F = (E - EnergyGrid[Lo]) /
                     (EnergyGrid[Hi] - EnergyGrid[Lo] + 1e-30);
    double Total = 0.0;
    for (std::uint32_t K = 0; K < Cfg.NNuclidesPerMaterial; ++K) {
      const std::int64_t Nuc =
          MaterialTable[static_cast<std::size_t>(Mat) *
                            Cfg.NNuclidesPerMaterial +
                        K];
      const std::size_t Base =
          (static_cast<std::size_t>(Nuc) * Cfg.NGridpoints + Lo) * 2;
      Total += XSData[Base] * (1.0 - F) + XSData[Base + 1] * F;
    }
    Ref[Iv] = Total;
  }
  return Ref;
}

AppRunResult XSBench::run(const BuildConfig &Build) {
  // CUDA receives the fields by value; OpenMP follows the config knob.
  const bool ByRef = Build.Options.CG.RT != frontend::RuntimeKind::Native &&
                     Cfg.ConfigStructByReference;
  std::vector<host::KernelArg> Args;
  Args.push_back(host::KernelArg::mapped(Out.data()));
  if (ByRef) {
    Args.push_back(host::KernelArg::mapped(ConfigBlock.data()));
  } else {
    Args.push_back(host::KernelArg::mapped(EnergyGrid.data()));
    Args.push_back(host::KernelArg::mapped(XSData.data()));
    Args.push_back(host::KernelArg::mapped(MaterialTable.data()));
  }
  Args.push_back(host::KernelArg::i64(static_cast<std::int64_t>(Cfg.NLookups)));

  AppRunResult Result =
      Harness.run(Build, makeSpec(ByRef), Args, Cfg.Teams, Cfg.Threads,
                  {{"out", Out, Harness.reference()}});
  if (Result.Ok)
    Result.AppMetric =
        static_cast<double>(Cfg.NLookups) /
        (static_cast<double>(Result.Metrics.KernelCycles) / 1000.0);
  return Result;
}

} // namespace codesign::apps
