//===- perfbench/main.cpp - Benchmark entry point --------------------------===//
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--repo-root <dir>] [--trace-out <file>]
//
// Sets the workload up several times (set-up time is the median), then
// measures it for --seconds. With --trace 0 it prints the end-to-end
// metrics: set-up time, peak RSS, and the op latency percentiles. Times
// are read against a reference work probed between set-ups and between
// ops (see SpeedTrack), which makes them repeat between runs on a shared
// host where wall-clock times do not. With
// --trace 1 it measures half the window untraced and half traced, runs
// the layer census, prints the per-layer metrics and writes
// the spans as Chrome trace-event JSON to --trace-out. The last line of
// stdout is the JSON result; the exit code is non-zero when any op failed
// or produced wrong output.
//
//===----------------------------------------------------------------------===//
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "Census.hpp"
#include "Harness.hpp"
#include "Workloads.hpp"
#include "frontend/KernelCache.hpp"

using namespace perfbench;

namespace {

/// Set-ups per run: at least SetupRepeats and, for a cheap set-up, more
/// until SetupSeconds have gone into them (at most SetupRepeatsMax).
/// Set-up time is their median.
constexpr int SetupRepeats = 7;
constexpr int SetupRepeatsMax = 50;
constexpr double SetupSeconds = 1.0;
/// The reference work's time on the host speed `setup_s` is quoted at,
/// close to its time on the 4-core x86-64 VM the benchmark was tuned on.
constexpr double NominalReferenceMs = 1.0;

struct Args {
  std::string Workload;
  std::uint64_t Seed = DefaultSeed;
  double Seconds = 10;
  bool Trace = false;
  std::string RepoRoot = ".";
  std::string TraceOut;
};

[[noreturn]] void usage(const std::string &Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--repo-root <dir>] "
               "[--trace-out <file>]\n",
               Why.c_str());
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage("missing value for " + Flag);
    const std::string V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = V;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        usage("bad --seed " + V);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(A.Seconds > 0) || A.Seconds > 600)
        usage("bad --seconds " + V);
    } else if (Flag == "--trace") {
      if (V != "0" && V != "1")
        usage("bad --trace " + V);
      A.Trace = V == "1";
    } else if (Flag == "--repo-root") {
      A.RepoRoot = V;
    } else if (Flag == "--trace-out") {
      A.TraceOut = V;
    } else {
      usage("unknown flag " + Flag);
    }
  }
  if (A.Workload.empty())
    usage("--workload is required");
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  const Args A = parseArgs(Argc, Argv);
  std::unique_ptr<Workload> W = makeWorkload(A.Workload, A.Seed, A.RepoRoot);
  if (!W)
    usage("unknown workload " + A.Workload);

  OpTally Ops;
  MetricSet Metrics;
  // Set-ups alternate with reference probes, so that set-up time is read
  // against the host's speed like the op latencies.
  std::vector<double> SetupMs;
  SpeedTrack SetupSpeed;
  double SetupTotal = 0;
  for (int I = 0; I < SetupRepeatsMax &&
                  (I < SetupRepeats || SetupTotal < SetupSeconds);
       ++I) {
    SetupSpeed.maybeProbe(SetupMs.size(), 0.0);
    const auto T0 = Clock::now();
    W->setup(Ops);
    SetupMs.push_back(microsBetween(T0, Clock::now()) / 1e3);
    SetupTotal += SetupMs.back() / 1e3;
  }
  SetupSpeed.maybeProbe(SetupMs.size(), 0.0);

  if (!A.Trace) {
    const Window Win = W->measure(A.Seconds, Ops);
    W->finish(Ops);
    Metrics.set("setup_s",
                median(SetupSpeed.relative(SetupMs)) * NominalReferenceMs /
                    1e3,
                "s");
    Metrics.set("peak_rss_mb", peakRssMb(), "MB");
    const std::vector<double> Rel = Win.Speed.relative(Win.OpMs);
    Metrics.set("op_p50_ref", percentile(Rel, 50), "ref");
    Metrics.set("op_p90_ref", percentile(Rel, 90), "ref");
  } else {
    // Untraced then traced halves of the window: their ratio is the
    // tracing overhead on this workload's primary metric.
    const Window Plain = W->measure(A.Seconds / 2, Ops);
    // Set-up and the untraced half in wall-clock units, next to the host
    // speed the end-to-end metrics are read against.
    Metrics.set("wall.setup_s", median(SetupMs) / 1e3, "s");
    Metrics.set("wall.op_p50_ms", percentile(Plain.OpMs, 50), "ms");
    Metrics.set("wall.op_p90_ms", percentile(Plain.OpMs, 90), "ms");
    Metrics.set("wall.ops_per_s", Plain.OpsPerSecond, "1/s");
    Metrics.set("bench.reference_ms", median(Plain.Speed.probeMs()), "ms");
    SpanRecorder &Rec = SpanRecorder::global();
    Rec.setEnabled(true);
    const auto Cache0 = codesign::frontend::KernelCache::global().stats();
    Window Traced;
    {
      ScopedSpan Root("bench.window");
      Traced = W->measure(A.Seconds / 2, Ops);
    }
    W->finish(Ops);
    const auto Cache1 = codesign::frontend::KernelCache::global().stats();
    const double Hits = static_cast<double>(Cache1.hits() - Cache0.hits());
    const double Misses =
        static_cast<double>(Cache1.misses() - Cache0.misses());
    const double Coalesced =
        static_cast<double>(Cache1.coalesced() - Cache0.coalesced());
    runCensus(A.Seed, Metrics, Ops);
    Rec.setEnabled(false);
    // Kernel-cache traffic of the workload's own traced window.
    Metrics.set("frontend.cache.hits", Hits, "count");
    Metrics.set("frontend.cache.misses", Misses, "count");
    Metrics.set("frontend.cache.coalesced", Coalesced, "count");
    const double Lookups = Hits + Misses + Coalesced;
    Metrics.set("frontend.cache.hit_ratio", Lookups > 0 ? Hits / Lookups : 0.0,
                "ratio");
    Metrics.set("trace.overhead_ratio",
                percentile(Traced.Speed.relative(Traced.OpMs), 50) /
                    percentile(Plain.Speed.relative(Plain.OpMs), 50),
                "ratio");
    if (!A.TraceOut.empty()) {
      std::ofstream OS(A.TraceOut);
      writeChromeTrace(OS, Rec.spans());
      if (!OS)
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     A.TraceOut.c_str());
    }
  }

  for (const std::string &E : Ops.Errors)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", E.c_str());
  std::cout << resultJson(Ops, Metrics) << std::endl;
  return Ops.Failed == 0 ? 0 : 1;
}
