#include "apps/AppCommon.hpp"

#include <algorithm>
#include <chrono>

#include "frontend/Driver.hpp"
#include "support/Hash.hpp"

namespace codesign::apps {

namespace {

bool matches(const AppOutput &O) {
  return std::equal(O.Data.begin(), O.Data.end(), O.Expected.begin(),
                    O.Expected.end(), [&](double Out, double Ref) {
                      return withinTolerance(Out, Ref, O.Tolerance);
                    });
}

} // namespace

std::vector<BuildConfig> paperBuildConfigs(bool IncludeAssumed) {
  std::vector<BuildConfig> Out;
  // The legacy baseline exists only in -DCODESIGN_BUILD_OLDRT=ON builds;
  // default builds compare the co-designed configurations (and the
  // execution backends) against each other.
  if (frontend::hasOldRT())
    Out.push_back({"Old RT (Nightly)", frontend::CompileOptions::oldRT()});
  Out.push_back({"New RT (Nightly)", frontend::CompileOptions::newRTNightly()});
  Out.push_back({"New RT - w/o Assumptions",
                 frontend::CompileOptions::newRTNoAssumptions()});
  if (IncludeAssumed)
    Out.push_back({"New RT", frontend::CompileOptions::newRT()});
  Out.push_back({"CUDA", frontend::CompileOptions::cuda()});
  return Out;
}

AppHarness::AppHarness(std::string App, vgpu::VirtualGPU &GPU,
                       std::function<std::vector<double>()> Reference)
    : App(std::move(App)), GPU(GPU), Host(GPU),
      ComputeReference(std::move(Reference)) {}

const std::vector<double> &AppHarness::reference() {
  if (!Reference)
    Reference = ComputeReference();
  return *Reference;
}

AppRunResult
AppHarness::run(const BuildConfig &Build, const frontend::KernelSpec &Spec,
                std::span<const host::KernelArg> Args, std::uint32_t Teams,
                std::uint32_t Threads, std::initializer_list<AppOutput> Outputs,
                const std::function<void(const ir::Function &)> &OnCompiled) {
  AppRunResult Result;
  Result.Build = Build.Name;
  auto CK = frontend::compileKernel(Spec, Build.Options, GPU.registry());
  if (!CK) {
    Result.Error = CK.error().message();
    return Result;
  }
  Result.Stats = CK->Stats;
  Result.Compile = CK->Timing;
  Result.Module = CK->M;
  if (Installed) {
    if (auto Out = Host.unregisterImage(*Installed); !Out) {
      Result.Error = Out.error().message();
      return Result;
    }
    Installed.reset();
  }
  if (auto Out = Host.registerImage(*CK->M, CK->Bytecode); !Out) {
    Result.Error = Out.error().message();
    return Result;
  }
  Installed = CK->M;
  if (OnCompiled)
    OnCompiled(*CK->Kernel);

  const auto TransferError = [&](const char *What, const AppOutput &O,
                                 const Error &E) {
    return App + ": " + What + " of output '" + std::string(O.Name) +
           "' failed: " + E.message();
  };
  for (const AppOutput &O : Outputs) {
    std::fill(O.Data.begin(), O.Data.end(), 0.0);
    if (auto Reset = Host.updateTo(O.Data.data()); !Reset) {
      Result.Error = TransferError("reset", O, Reset.error());
      return Result;
    }
  }

  const auto WallStart = std::chrono::steady_clock::now();
  auto LR = Host.launch(CK->Kernel->name(), Args, Teams, Threads);
  Result.WallMicros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - WallStart)
          .count());
  Result.Backend = GPU.execBackend();
  if (!LR || !LR->Ok) {
    Result.Error = LR ? LR->Error : LR.error().message();
    return Result;
  }
  Result.Metrics = LR->Metrics;
  Result.Profile = LR->Profile;

  // Each output's hash seeds the next one's, so the chain covers the
  // outputs in order.
  Result.OutputHash = 0;
  for (const AppOutput &O : Outputs) {
    if (auto Back = Host.updateFrom(O.Data.data()); !Back) {
      Result.Error = TransferError("readback", O, Back.error());
      return Result;
    }
    Result.OutputHash = xxh64(O.Data.data(), O.Data.size() * sizeof(double),
                              Result.OutputHash);
  }
  Result.Ok = true;
  Result.Verified = std::all_of(Outputs.begin(), Outputs.end(), matches);
  return Result;
}

} // namespace codesign::apps
