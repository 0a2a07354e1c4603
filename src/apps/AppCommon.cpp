#include "apps/AppCommon.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "frontend/Driver.hpp"
#include "support/Hash.hpp"
#include "support/ThreadPool.hpp"

namespace codesign::apps {

namespace {

/// Step 5 of the run protocol: fill Result's OutputHash and Verified from
/// the read-back Outputs, on at most HostThreads threads.
void hashAndCheck(std::initializer_list<AppOutput> Outputs,
                  unsigned HostThreads, AppRunResult &Result) {
  bool SizesMatch = true;
  std::size_t Elements = 0;
  for (const AppOutput &O : Outputs) {
    SizesMatch = SizesMatch && O.Data.size() == O.Expected.size();
    Elements += O.Data.size();
  }
  constexpr std::size_t Chunk = AppHarness::CheckChunk;
  const std::size_t Chunks = SizesMatch ? (Elements + Chunk - 1) / Chunk : 0;
  std::uint64_t Hash = 0;
  std::atomic<bool> Pass{true};
  const auto Item = [&](std::uint64_t I) {
    if (I == 0) {
      // Each output's hash seeds the next one's, so the chain covers the
      // outputs in order.
      for (const AppOutput &O : Outputs)
        Hash = xxh64(O.Data.data(), O.Data.size() * sizeof(double), Hash);
      return;
    }
    // Item I checks elements [Begin, End) of the outputs laid end to end
    // in output order.
    const std::size_t Begin = (I - 1) * Chunk, End = Begin + Chunk;
    std::size_t Base = 0;
    for (const AppOutput &O : Outputs) {
      const std::size_t Lo = std::max(Begin, Base);
      const std::size_t Hi = std::min(End, Base + O.Data.size());
      if (Lo < Hi &&
          !std::equal(O.Data.begin() + (Lo - Base),
                      O.Data.begin() + (Hi - Base),
                      O.Expected.begin() + (Lo - Base),
                      [&](double Out, double Ref) {
                        return withinTolerance(Out, Ref, O.Tolerance);
                      }))
        Pass.store(false);
      Base += O.Data.size();
    }
  };
  // At most one thread per check chunk, so outputs that fit one chunk stay
  // on the caller and wake no helper.
  const std::size_t Width =
      std::min<std::size_t>(support::resolveHostThreads(HostThreads), Chunks);
  support::ThreadPool::global().parallelFor(static_cast<unsigned>(Width),
                                            1 + Chunks, Item);
  Result.OutputHash = Hash;
  Result.Verified = SizesMatch && Pass.load();
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
    if (auto Reset = Host.memsetDevice(O.Data.data(), 0); !Reset) {
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

  for (const AppOutput &O : Outputs) {
    if (auto Back = Host.updateFrom(O.Data.data()); !Back) {
      Result.Error = TransferError("readback", O, Back.error());
      return Result;
    }
  }
  Result.Ok = true;
  hashAndCheck(Outputs, GPU.config().HostThreads, Result);
  return Result;
}

} // namespace codesign::apps
