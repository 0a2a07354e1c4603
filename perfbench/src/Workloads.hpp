//===- perfbench/Workloads.hpp - The benchmark's four workloads ------------===//
//
// Each workload drives one layer of the stack hardest (see README.md):
//
//   proxy-apps         closed loop, warm sweeps of the five proxy apps
//   launch-storm       closed loop, HostRuntime::launch of empty/fan-out
//   compile-cold       closed loop, uncached compileKernel over a spec draw
//   service-open-loop  open loop into service::Service at a fixed rate
//
// A workload is set up several times per run (set-up time is a metric of
// its own), then measured for a fixed wall-clock window. Every op checks
// its output; a wrong or failed op is counted in the run's OpTally.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "Harness.hpp"
#include "apps/AppCommon.hpp"
#include "frontend/KernelSpec.hpp"
#include "service/Service.hpp"
#include "vgpu/VirtualGPU.hpp"

namespace perfbench {

/// The seed the benchmark is tuned and checked at; the proxy apps then run
/// on their own default inputs, whose outputs are committed under
/// bench/results.
inline constexpr std::uint64_t DefaultSeed = 1;
/// A seed never used while tuning, for confirming a claim.
inline constexpr std::uint64_t HoldoutSeed = 20261016;

/// What one measurement window produced.
struct Window {
  /// Latency of every primary op, milliseconds.
  std::vector<double> OpMs;
  /// Primary ops completed per second: blockRate for the closed loops,
  /// completions per second at the fixed rate for the open loop.
  double OpsPerSecond = 0.0;
  /// Host speed probes: between the ops of a closed loop, around the
  /// window of the open loop.
  SpeedTrack Speed;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// One complete set-up: fresh device, generated inputs, uploads and a
  /// warm-up that fills the kernel cache. Replaces any previous set-up.
  virtual void setup(OpTally &Ops) = 0;
  /// Measure for Seconds of wall time.
  virtual Window measure(double Seconds, OpTally &Ops) = 0;
  /// Checks that read results back after the measured window.
  virtual void finish(OpTally &Ops) { (void)Ops; }
};

/// The workload named Name, or null. RepoRoot locates bench/results.
std::unique_ptr<Workload> makeWorkload(std::string_view Name,
                                       std::uint64_t Seed,
                                       const std::string &RepoRoot);

//===----------------------------------------------------------------------===//
// Shared fixtures (also used by the layer census)
//===----------------------------------------------------------------------===//

/// Register the benchmark's saxpy body on GPU: out[off+i] = a*x[i] + y[i].
std::int64_t registerSaxpy(codesign::vgpu::VirtualGPU &GPU);

/// saxpy(x, y, out, a, n, off) as one distribute-parallel-for. Mapped
/// gives the three pointers map(to/to/from) clauses (for Buffer args).
codesign::frontend::KernelSpec saxpySpec(const std::string &Name,
                                         std::int64_t SaxpyId,
                                         bool Mapped = false);

/// Post-pipeline instruction count of every defined function in M.
std::uint64_t irInstructions(const codesign::ir::Module &M);

/// The compile-cold spec draw: seeded rounds of every (shape, build) pair,
/// whose shapes mirror the proxy apps, with a rotating variant. Length is
/// rounded up to whole rounds; 64 entries meet every (shape, build,
/// variant) once.
class SpecDraw {
public:
  SpecDraw(codesign::vgpu::VirtualGPU &GPU, std::uint64_t Seed,
           std::size_t Length);
  [[nodiscard]] std::size_t size() const { return Draw.size(); }
  /// Spec I of the cycle under a caller-chosen (unique) kernel name.
  [[nodiscard]] codesign::frontend::KernelSpec spec(std::size_t I,
                                                    std::string Name) const;
  [[nodiscard]] const codesign::apps::BuildConfig &build(std::size_t I) const {
    return Builds[Draw[I].Build];
  }

private:
  struct Entry {
    unsigned Shape = 0;
    unsigned Build = 0;
    unsigned Variant = 0;
  };
  std::vector<codesign::apps::BuildConfig> Builds;
  std::vector<Entry> Draw;
  std::int64_t ElemId = 0, SerialId = 0, ScratchId = 0, TaskId = 0;
};

/// One (app, build) case of a proxy-app sweep.
struct AppCase {
  std::string App;  ///< "XSBench", ..., "GridMini"
  std::string Row;  ///< committed bench/results row name, e.g. "10a/CUDA"
  std::function<codesign::apps::AppRunResult()> Run;
};

/// The five proxy apps at the fig10/fig12 sizes, each on its own device,
/// with inputs seeded from the benchmark seed (their default inputs at
/// DefaultSeed).
class ProxySuite {
public:
  explicit ProxySuite(std::uint64_t Seed);
  ~ProxySuite();
  ProxySuite(const ProxySuite &) = delete;
  ProxySuite &operator=(const ProxySuite &) = delete;

  [[nodiscard]] const std::vector<AppCase> &cases() const { return Cases; }
  /// Select the execution backend of every device.
  codesign::Expected<void> setBackend(const std::string &Name);

private:
  struct Box;
  template <typename App, typename Config>
  void add(const char *Name, const std::string &RowPrefix, Config Cfg,
           bool IncludeAssumed);
  std::vector<std::unique_ptr<Box>> Boxes;
  std::vector<AppCase> Cases;
};

/// What one open-loop window produced.
struct OpenLoopResult {
  std::vector<double> LatencyMs;   ///< due time -> completion seen
  std::vector<double> QueueWaitUs; ///< launch latency minus mean launch wall
  double GeneratorLateMaxUs = 0.0;
  /// Completions per second from the first due time to the last completion:
  /// the offered rate while the service keeps up, less once a backlog grows.
  double CompletedPerSecond = 0.0;
};

/// The service-open-loop fixture: one Service with nproc-1 workers, eight
/// registered saxpy kernels and present buffers.
class ServiceRig {
public:
  ServiceRig(std::uint64_t Seed, OpTally &Ops);
  ~ServiceRig();
  ServiceRig(const ServiceRig &) = delete;
  ServiceRig &operator=(const ServiceRig &) = delete;

  /// Send requests at Rate for Seconds on a fixed schedule.
  OpenLoopResult run(double Rate, double Seconds, OpTally &Ops);
  /// The service's capacity, requests per second: keep four requests per
  /// worker outstanding for Seconds and take the median completion rate
  /// over ten equal slices. Above this rate an open loop's backlog grows.
  /// (A per-layer metric: between runs it moves with the host's load by
  /// more than an end-to-end bound allows.)
  double saturate(double Seconds, OpTally &Ops);
  /// Read every output slot back and compare it with the closed form.
  void verify(OpTally &Ops);
  [[nodiscard]] codesign::service::QueueStats queueStats() const;

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

/// The service workload's fixed open-loop rate, a quarter to a third of
/// its capacity: at half of it the latency tail does not repeat.
inline constexpr double ServiceFixedRate = 1500.0;

} // namespace perfbench
