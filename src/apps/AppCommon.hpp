//===- apps/AppCommon.hpp - Shared proxy-application harness ---------------===//
//
// Each proxy application (XSBench, RSBench, GridMini, TestSNAP, MiniFMM)
// generates a deterministic workload, uploads it through the host runtime,
// and then runs its kernel under any of the paper's five build
// configurations. AppHarness::run owns the run protocol all five share:
//
//   1. compile the app's kernel spec under the build and swap the module
//      into the runtime, replacing the previous build's module;
//   2. zero every output's device copy on the device (memsetDevice): no
//      host bytes move, and the readback in step 4 overwrites the host
//      copy;
//   3. launch through HostRuntime::launch, timed into WallMicros;
//   4. read every output back (updateFrom, one per output);
//   5. hash and check the read-back outputs in one job on the process's
//      executor, at the device's HostThreads width: item 0 chains XXH64
//      over the outputs, in the app's output order, into OutputHash
//      (support/Hash.hpp: each output's hash is seeded with the previous
//      one's), and every other item compares one CheckChunk-element chunk
//      of the outputs, laid end to end in output order, against the app's
//      host reference. The job allocates nothing and its results do not
//      depend on the width.
//
// The result carries the launch metrics plus the static resource stats:
// everything Figures 10-13 need.
//
// Reference cache. An app's reference values are computed once and reused
// by every run, build and backend. This relies on one condition: an app's
// inputs are fixed after construction. Runs zero and read back only the
// outputs, so nothing a reference reads ever changes. Every run still reads
// back, hashes and compares every output element, so a wrong output is
// caught on any run, not only the first. The proxy apps compute their
// reference at the end of construction, so its buffer (as large as an
// output) is allocated with the inputs it shares a lifetime with. Computed
// on the first run instead, it would be allocated among that run's
// compiled kernels, which live in the kernel cache: the set-up that next
// builds the same apps can then find the hole the previous reference left
// split by a cached kernel and extend the heap for its own.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cmath>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "frontend/TargetCompiler.hpp"
#include "host/HostRuntime.hpp"
#include "support/Rng.hpp"
#include "vgpu/VirtualGPU.hpp"

namespace codesign::apps {

/// One build row of the paper's Figure 11.
struct BuildConfig {
  std::string Name;
  frontend::CompileOptions Options;
};

/// The paper's five build configurations, in Figure 11 order:
/// Old RT (Nightly), New RT (Nightly), New RT w/o Assumptions, New RT,
/// CUDA (NVCC). Pass IncludeAssumed=false for workloads where the
/// oversubscription assumption does not hold (more iterations than
/// hardware threads) — the paper likewise reports "n/a" for the assumed
/// build on several benchmarks (Figure 11).
std::vector<BuildConfig> paperBuildConfigs(bool IncludeAssumed = true);

/// Outcome of running one app under one build configuration.
struct AppRunResult {
  std::string Build;
  bool Ok = false;
  std::string Error;
  vgpu::LaunchMetrics Metrics;
  vgpu::KernelStaticStats Stats;
  /// Launch profile (op classes, byte traffic, barrier waits, team
  /// imbalance); filled when the launch succeeded.
  vgpu::LaunchProfile Profile;
  /// Per-phase compile timing; populated only when tracing is enabled.
  frontend::CompilePhaseTiming Compile;
  /// The compiled (and executed) kernel module; treat as read-only. The
  /// harness keeps only the latest build's module registered, so this
  /// pointer is what keeps an older run's module alive. Analysis-only
  /// consumers — the lint test harness runs the static linter over exactly
  /// what ran on the device.
  std::shared_ptr<ir::Module> Module;
  bool Verified = false;
  /// Application-level throughput in work-items per kilocycle (apps scale
  /// and label this as appropriate: lookups, sites, atom-steps, pairs).
  double AppMetric = 0.0;
  /// Host wall-clock time of the kernel launch, microseconds (steady clock
  /// around HostRuntime::launch), and the execution backend that produced
  /// it. Simulated metrics are backend-invariant by construction (the
  /// native backend reports no cycle model); WallMicros is the real-time
  /// cost of producing them, which the bench reports so backend speedups
  /// are measurable.
  std::uint64_t WallMicros = 0;
  std::string Backend;
  /// XXH64 of the kernel's device-visible output buffers, read back after
  /// the launch and chained in the app's output order. The backend parity
  /// suite asserts this is bit-identical across the tree, bytecode, and
  /// native engines; bench/results pins its value per figure row.
  std::uint64_t OutputHash = 0;
};

/// The one comparison behind AppRunResult::Verified: an output element
/// passes only when it lies within Tol of its reference value. A NaN on
/// either side fails, since every ordered comparison with NaN is false.
inline bool withinTolerance(double Out, double Ref, double Tol) {
  return std::fabs(Out - Ref) <= Tol;
}

/// One buffer an app's kernel writes.
struct AppOutput {
  /// Names the buffer in error messages.
  std::string_view Name;
  /// The host copy, mapped in the harness's runtime. Its device copy is
  /// zeroed on the device before the launch, and the readback after the
  /// launch overwrites this copy.
  std::vector<double> &Data;
  /// The value each element of Data must hold, one per element.
  std::span<const double> Expected;
  double Tolerance = 1e-9;
};

/// The run protocol the proxy apps share (see the file comment). Owns the
/// app's host runtime, the one module it has registered there, and the
/// app's cached reference values. Not thread-safe, like the apps.
class AppHarness {
public:
  /// Output elements one check item of step 5 compares: a chunk of the
  /// run's outputs laid end to end, so small outputs share one item.
  static constexpr std::size_t CheckChunk = 8192;

  /// App names the app in error messages. Reference computes the app's
  /// expected output values from its inputs; it runs at most once.
  AppHarness(std::string App, vgpu::VirtualGPU &GPU,
             std::function<std::vector<double>()> Reference);

  /// The runtime the app maps its buffers in.
  [[nodiscard]] host::HostRuntime &host() { return Host; }

  /// The app's reference values: computed on the first call, then returned
  /// unchanged. Valid only while the app's inputs stay as constructed.
  const std::vector<double> &reference();

  /// Compile Spec under Build, zero Outputs on the device, launch Spec's
  /// kernel with Args on Teams x Threads, and read back, hash and verify
  /// Outputs. OnCompiled, when set, sees the compiled kernel before the
  /// launch, for expected values that depend on how the kernel was
  /// lowered. A failed reset or transfer is returned as Error, naming the
  /// app, the buffer and the runtime's message.
  AppRunResult
  run(const BuildConfig &Build, const frontend::KernelSpec &Spec,
      std::span<const host::KernelArg> Args, std::uint32_t Teams,
      std::uint32_t Threads, std::initializer_list<AppOutput> Outputs,
      const std::function<void(const ir::Function &)> &OnCompiled = {});

private:
  std::string App;
  vgpu::VirtualGPU &GPU;
  host::HostRuntime Host;
  /// The module registered with Host. Builds compile the same kernel name
  /// and the runtime rejects duplicate names, so each run swaps it out.
  std::shared_ptr<ir::Module> Installed;
  std::function<std::vector<double>()> ComputeReference;
  std::optional<std::vector<double>> Reference;
};

/// Device-side deterministic hash used by kernels that need per-iteration
/// pseudo-randomness (the Monte Carlo lookups). Must match the host
/// reference exactly.
constexpr std::uint64_t ivHash(std::uint64_t Iv) {
  std::uint64_t S = Iv + 0x9E3779B97F4A7C15ULL;
  S = (S ^ (S >> 30)) * 0xBF58476D1CE4E5B9ULL;
  S = (S ^ (S >> 27)) * 0x94D049BB133111EBULL;
  return S ^ (S >> 31);
}

/// Uniform double in [0,1) from a hash value.
constexpr double hashToUnit(std::uint64_t H) {
  return static_cast<double>(H >> 11) * 0x1.0p-53;
}

} // namespace codesign::apps
