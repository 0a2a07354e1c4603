//===- bench/BenchReport.hpp - Machine-readable bench reports --------------===//
//
// Every bench binary emits, next to its human-readable tables, one
// BENCH_<name>.json file following the "codesign-bench/1" schema:
//
//   {
//     "schema": "codesign-bench/1",
//     "bench": "<binary name>",
//     "smoke": false,
//     "config": { ... bench-specific workload parameters ... },
//     "rows": [ { "name": "...", ...per-row measurements... }, ... ],
//     "pass_timings": { "opt.pass.<pass>.us": n, ... },
//     "kernel_cache": { "kernel-cache.hits": n, "kernel-cache.misses": n },
//     "analysis_cache": { "opt.analysis.<name>.hits": n, ...misses,
//                         ...invalidations (nonzero entries only) },
//     "lint": { "opt.lint.runs": n, "opt.lint.<rule>.findings": n, ... },
//     "transfers": { "host.transfer.h2d.bytes": n, ...h2d/d2h transfers,
//                    bytes and modeled cycles (host.transfer.* counters) },
//     "counters": { ...remaining process-wide counters... },
//     ...bench-specific sections via setSection (e.g. soak_service's
//     "service" object with throughput/latency/queue/cache summaries)...
//   }
//
// Rows produced from an AppRunResult carry build flavor, cycles, registers,
// shared memory, verification status, compile-phase timing and (when the
// device profiled the launch) the interpreter profile. Environment knobs:
//
//   CODESIGN_BENCH_DIR    output directory (default: current directory)
//   CODESIGN_BENCH_SMOKE  when set and != "0", benches shrink their
//                         workloads to smoke-test size (ctest bench-smoke)
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "BenchCommon.hpp"
#include "support/Json.hpp"
#include "support/Stats.hpp"
#include "support/Trace.hpp"
#include "vgpu/Metrics.hpp"

namespace codesign::bench {

/// True when CODESIGN_BENCH_SMOKE requests tiny workloads.
inline bool smokeMode() {
  const char *Env = std::getenv("CODESIGN_BENCH_SMOKE");
  return Env && *Env && std::string_view(Env) != "0";
}

/// Pick the full-size or smoke-size value of a workload parameter.
template <typename T> T smokeSize(T Full, T Smoke) {
  return smokeMode() ? Smoke : Full;
}

/// Directory BENCH_<name>.json files are written to.
inline std::string outputDir() {
  const char *Env = std::getenv("CODESIGN_BENCH_DIR");
  return Env && *Env ? std::string(Env) : std::string(".");
}

/// Builder for one bench's JSON report.
class BenchReport {
public:
  /// EnableTracing turns on the global tracer: pass timings and
  /// compile-phase clocks only tick while it is enabled, and the figure
  /// benches want them in the report. micro_pipeline passes false — it
  /// measures the disabled-tracer fast path.
  explicit BenchReport(std::string Bench, bool EnableTracing = true)
      : Bench(std::move(Bench)) {
    Config = json::Value::object();
    Rows = json::Value::array();
    if (EnableTracing)
      trace::Tracer::global().setEnabled(true);
  }

  /// Bench-level workload parameters ("config" object).
  json::Value &config() { return Config; }

  /// Attach a bench-specific top-level section (e.g. the soak bench's
  /// "service" object with throughput/latency/queue/cache summaries). The
  /// object must be fully built; later sets of the same name replace the
  /// earlier section. Reserved names (schema, bench, rows, ...) lose to the
  /// standard sections at write time.
  void setSection(std::string Name, json::Value V) {
    for (auto &[Existing, Val] : Sections)
      if (Existing == Name) {
        Val = std::move(V);
        return;
      }
    Sections.emplace_back(std::move(Name), std::move(V));
  }

  /// Append a row; every row carries at least its "name".
  json::Value &addRow(std::string Name) {
    json::Value Row = json::Value::object();
    Row.set("name", json::Value(std::move(Name)));
    return Rows.push(std::move(Row));
  }

  /// Append a row filled from one application run.
  json::Value &addAppRow(std::string Name, const std::string &App,
                         const AppRunResult &R) {
    json::Value &Row = addRow(std::move(Name));
    Row.set("app", json::Value(App));
    fillRow(Row, R);
    return Row;
  }

  /// Fill a row with the standard AppRunResult fields.
  static void fillRow(json::Value &Row, const AppRunResult &R) {
    Row.set("build", json::Value(R.Build));
    Row.set("ok", json::Value(R.Ok));
    if (!R.Ok) {
      Row.set("error", json::Value(R.Error));
      return;
    }
    Row.set("verified", json::Value(R.Verified));
    Row.set("cycles", json::Value(R.Metrics.KernelCycles));
    Row.set("instructions", json::Value(R.Metrics.DynamicInstructions));
    Row.set("regs", json::Value(std::uint64_t(R.Stats.Registers)));
    Row.set("smem_bytes", json::Value(R.Stats.SharedMemBytes));
    Row.set("code_size", json::Value(R.Stats.CodeSize));
    Row.set("app_metric", json::Value(R.AppMetric));
    Row.set("wall_us", json::Value(R.WallMicros));
    if (!R.Backend.empty())
      Row.set("backend", json::Value(R.Backend));
    Row.set("output_hash", json::Value(R.OutputHash));
    Row.set("compile", timingJson(R.Compile));
    if (R.Ok)
      Row.set("profile", profileJson(R.Profile));
  }

  static json::Value timingJson(const frontend::CompilePhaseTiming &T) {
    json::Value V = json::Value::object();
    V.set("cache_hit", json::Value(T.CacheHit));
    V.set("codegen_us", json::Value(T.CodegenMicros));
    V.set("link_us", json::Value(T.LinkMicros));
    V.set("opt_us", json::Value(T.OptMicros));
    V.set("verify_us", json::Value(T.VerifyMicros));
    V.set("stats_us", json::Value(T.StatsMicros));
    V.set("total_us", json::Value(T.totalMicros()));
    return V;
  }

  static json::Value profileJson(const vgpu::LaunchProfile &P) {
    json::Value V = json::Value::object();
    json::Value Ops = json::Value::object();
    for (std::size_t I = 0; I < vgpu::NumOpClasses; ++I)
      if (P.OpCounts[I])
        Ops.set(vgpu::opClassName(static_cast<vgpu::OpClass>(I)),
                json::Value(P.OpCounts[I]));
    V.set("op_counts", std::move(Ops));
    V.set("global_bytes_read", json::Value(P.GlobalBytesRead));
    V.set("global_bytes_written", json::Value(P.GlobalBytesWritten));
    V.set("shared_bytes_read", json::Value(P.SharedBytesRead));
    V.set("shared_bytes_written", json::Value(P.SharedBytesWritten));
    V.set("barrier_wait_cycles", json::Value(P.BarrierWaitCycles));
    V.set("teams", json::Value(P.Teams));
    V.set("team_cycles_min", json::Value(P.teamCyclesMin()));
    V.set("team_cycles_max", json::Value(P.teamCyclesMax()));
    V.set("team_cycles_mean", json::Value(P.teamCyclesMean()));
    V.set("team_imbalance", json::Value(P.teamImbalance()));
    if (P.TransfersToDevice || P.TransfersFromDevice) {
      json::Value T = json::Value::object();
      T.set("h2d_transfers", json::Value(P.TransfersToDevice));
      T.set("d2h_transfers", json::Value(P.TransfersFromDevice));
      T.set("h2d_bytes", json::Value(P.BytesToDevice));
      T.set("d2h_bytes", json::Value(P.BytesFromDevice));
      T.set("modeled_cycles", json::Value(P.TransferCycles));
      V.set("transfers", std::move(T));
    }
    return V;
  }

  /// Assemble the report (folding in the process-wide counters) and write
  /// BENCH_<bench>.json. Returns 0 on success; prints a warning and
  /// returns 1 on I/O failure, so benches can `return Report.write();`.
  int write() {
    json::Value Doc = json::Value::object();
    for (auto &[Name, V] : Sections)
      Doc.set(Name, std::move(V));
    Doc.set("schema", json::Value("codesign-bench/1"));
    Doc.set("bench", json::Value(Bench));
    Doc.set("smoke", json::Value(smokeMode()));
    Doc.set("config", std::move(Config));
    Doc.set("rows", std::move(Rows));
    json::Value PassTimings = json::Value::object();
    json::Value Cache = json::Value::object();
    json::Value AnalysisCache = json::Value::object();
    json::Value Lint = json::Value::object();
    json::Value Transfers = json::Value::object();
    json::Value Other = json::Value::object();
    for (const auto &[Name, Count] : Counters::global().snapshot()) {
      json::Value *Dest = &Other;
      if (Name.rfind("opt.analysis.", 0) == 0)
        Dest = &AnalysisCache;
      else if (Name.rfind("opt.lint.", 0) == 0)
        Dest = &Lint;
      else if (Name.rfind("host.transfer.", 0) == 0)
        Dest = &Transfers;
      else if (Name.rfind("opt.pass.", 0) == 0 ||
               Name.rfind("opt.fixpoint", 0) == 0)
        Dest = &PassTimings;
      else if (Name.rfind("kernel-cache.", 0) == 0)
        Dest = &Cache;
      Dest->set(Name, json::Value(Count));
    }
    Doc.set("pass_timings", std::move(PassTimings));
    Doc.set("kernel_cache", std::move(Cache));
    Doc.set("analysis_cache", std::move(AnalysisCache));
    Doc.set("lint", std::move(Lint));
    Doc.set("transfers", std::move(Transfers));
    Doc.set("counters", std::move(Other));

    const std::string Path = outputDir() + "/BENCH_" + Bench + ".json";
    std::ofstream Out(Path);
    if (Out)
      Out << Doc.dump(2) << '\n';
    if (!Out) {
      std::fprintf(stderr, "warning: could not write %s\n", Path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", Path.c_str());
    return 0;
  }

private:
  std::string Bench;
  json::Value Config;
  json::Value Rows;
  std::vector<std::pair<std::string, json::Value>> Sections;
};

} // namespace codesign::bench
