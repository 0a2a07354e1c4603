//===- bench/soak_service.cpp - Multi-tenant service soak ------------------===//
//
// Soaks the src/service compile-and-launch service the way a shared
// deployment would: many client threads, each its own tenant, hammering one
// Service with compile storms (identical concurrent requests that must
// coalesce onto single compilations) and repeated kernel launches.
//
// Reported, both as tables and in the BENCH_soak_service.json "service"
// section: request throughput, launch latency percentiles (p50/p95/p99
// from exact per-client samples), submission-queue depth statistics, and
// kernel-cache hits, misses, coalesced waits and entries. The proof
// obligation of the compile storm: with C clients each issuing R requests
// spread over K distinct kernels, the cache records exactly K misses —
// every other request is a hit or was coalesced onto an in-flight compile.
//
// Smoke mode (CODESIGN_BENCH_SMOKE=1) keeps the storm at 8 clients x 125
// requests = 1000 concurrent compiles so the single-flight property is
// still exercised under contention; ctest runs it under the bench-smoke
// and tsan labels.
//
//===----------------------------------------------------------------------===//
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "BenchReport.hpp"
#include "frontend/KernelCache.hpp"
#include "frontend/TargetCompiler.hpp"
#include "service/Service.hpp"
#include "support/Table.hpp"
#include "vgpu/VirtualGPU.hpp"

using namespace codesign;
using namespace codesign::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

double microsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// The K distinct kernels: saxpy clones that differ only by name (distinct
/// cache keys, identical work).
frontend::KernelSpec saxpySpec(const std::string &Name,
                               std::int64_t NativeId) {
  frontend::KernelSpec Spec;
  Spec.Name = Name;
  Spec.Params = {{ir::Type::ptr(), "x"},
                 {ir::Type::ptr(), "y"},
                 {ir::Type::f64(), "a"},
                 {ir::Type::i64(), "n"}};
  frontend::NativeBody Body;
  Body.NativeId = NativeId;
  Body.Args = {frontend::BodyArg::iter(), frontend::BodyArg::arg(0),
               frontend::BodyArg::arg(1), frontend::BodyArg::arg(2)};
  Spec.Stmts = {frontend::Stmt::distributeParallelFor(
      frontend::TripCount::argument(3), Body)};
  return Spec;
}

struct ClientOutcome {
  std::uint64_t CompileErrors = 0;
  std::uint64_t LaunchErrors = 0;
  Samples LaunchLatencyUs; ///< submit -> outcome, per launch request
};

} // namespace

int main() {
  // Workload shape. The smoke storm keeps the acceptance-relevant floor:
  // >= 8 concurrent clients, >= 1000 identical compile requests.
  const unsigned Clients = smokeSize(16u, 8u);
  const unsigned CompilesPerClient = smokeSize(250u, 125u);
  const unsigned Kernels = smokeSize(8u, 4u);
  const unsigned LaunchesPerClient = smokeSize(64u, 12u);
  const std::uint64_t N = smokeSize<std::uint64_t>(4096, 256);
  const std::uint32_t Teams = smokeSize(8u, 4u);
  const std::uint32_t Threads = smokeSize(64u, 32u);

  banner("soak_service",
         "multi-tenant async service: compile storms + launch soak");
  std::printf("clients=%u compiles/client=%u kernels=%u launches/client=%u "
              "n=%llu grid=%ux%u\n\n",
              Clients, CompilesPerClient, Kernels, LaunchesPerClient,
              static_cast<unsigned long long>(N), Teams, Threads);

  BenchReport Report("soak_service");
  Report.config().set("clients", json::Value(std::uint64_t(Clients)));
  Report.config().set("compiles_per_client",
                      json::Value(std::uint64_t(CompilesPerClient)));
  Report.config().set("kernels", json::Value(std::uint64_t(Kernels)));
  Report.config().set("launches_per_client",
                      json::Value(std::uint64_t(LaunchesPerClient)));
  Report.config().set("n", json::Value(N));

  vgpu::VirtualGPU GPU;
  const std::int64_t SaxpyId = GPU.registry().add(vgpu::NativeOpInfo{
      "saxpy_element",
      [](vgpu::NativeCtx &Ctx) {
        const std::int64_t I = Ctx.argI64(0);
        const vgpu::DeviceAddr X = Ctx.argPtr(1), Y = Ctx.argPtr(2);
        const double A = Ctx.argF64(3);
        Ctx.storeF64(Y.advance(I * 8),
                     A * Ctx.loadF64(X.advance(I * 8)) +
                         Ctx.loadF64(Y.advance(I * 8)));
        Ctx.chargeCycles(6);
      },
      /*ExtraRegisters=*/6});

  // A fresh cache makes the single-flight accounting exact: after the
  // storm, misses == number of distinct kernels, no matter how many
  // thousands of requests raced.
  frontend::KernelCache::global().clear();
  Counters::global().reset();

  service::ServiceConfig SvcConfig;
  SvcConfig.Workers = std::max(2u, std::thread::hardware_concurrency() / 2);
  SvcConfig.QueueCapacity = 512;
  SvcConfig.Policy = service::AdmissionPolicy::Block;
  service::Service Svc(GPU, SvcConfig);

  // --- Phase 1: compile storm ----------------------------------------------
  // Every client thread submits CompilesPerClient requests round-robin over
  // the K distinct specs; all clients run concurrently, so each distinct
  // kernel sees hundreds of identical in-flight requests.
  const auto StormStart = std::chrono::steady_clock::now();
  std::vector<ClientOutcome> Outcomes(Clients);
  {
    std::vector<std::thread> Threads2;
    Threads2.reserve(Clients);
    for (unsigned C = 0; C < Clients; ++C)
      Threads2.emplace_back([&, C] {
        const std::string Tenant = "client" + std::to_string(C);
        std::vector<service::Ticket<frontend::CompiledKernel>> Tickets;
        Tickets.reserve(CompilesPerClient);
        for (unsigned R = 0; R < CompilesPerClient; ++R) {
          auto Spec =
              saxpySpec("saxpy_k" + std::to_string(R % Kernels), SaxpyId);
          auto T = Svc.submitCompile(
              Tenant, std::move(Spec),
              frontend::CompileOptions::newRTNoAssumptions());
          if (!T) {
            ++Outcomes[C].CompileErrors;
            continue;
          }
          Tickets.push_back(std::move(*T));
        }
        for (auto &T : Tickets)
          if (auto CK = T.get(); !CK)
            ++Outcomes[C].CompileErrors;
      });
    for (auto &T : Threads2)
      T.join();
  }
  Svc.drain();
  const double StormSeconds = secondsSince(StormStart);
  const std::uint64_t StormRequests =
      std::uint64_t(Clients) * CompilesPerClient;

  const frontend::KernelCache::Stats CacheStats =
      frontend::KernelCache::global().stats();
  std::printf("compile storm: %llu requests in %.3fs (%.0f req/s)\n",
              static_cast<unsigned long long>(StormRequests), StormSeconds,
              static_cast<double>(StormRequests) / StormSeconds);
  std::printf("  kernel cache: %llu misses (distinct kernels: %u), "
              "%llu hits, %llu coalesced onto in-flight compiles\n",
              static_cast<unsigned long long>(CacheStats.misses()), Kernels,
              static_cast<unsigned long long>(CacheStats.hits()),
              static_cast<unsigned long long>(CacheStats.coalesced()));
  const bool SingleFlightOk = CacheStats.misses() == Kernels;
  if (!SingleFlightOk)
    std::fprintf(stderr,
                 "SINGLE-FLIGHT VIOLATION: %llu misses for %u kernels\n",
                 static_cast<unsigned long long>(CacheStats.misses()),
                 Kernels);

  // --- Phase 2: launch soak ------------------------------------------------
  // Each client maps its own vectors through the shared runtime, then
  // issues repeated launches of "its" kernel, timing submit -> outcome.
  const auto SoakStart = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> Threads2;
    Threads2.reserve(Clients);
    for (unsigned C = 0; C < Clients; ++C)
      Threads2.emplace_back([&, C] {
        const std::string Tenant = "client" + std::to_string(C);
        std::vector<double> X(N), Y(N);
        for (std::uint64_t I = 0; I < N; ++I) {
          X[I] = static_cast<double>(I);
          Y[I] = 1.0;
        }
        auto &Host = Svc.runtime();
        if (!Host.enterData(X.data(), N * 8) ||
            !Host.enterData(Y.data(), N * 8)) {
          Outcomes[C].LaunchErrors += LaunchesPerClient;
          return;
        }
        const std::string Kernel =
            "saxpy_k" + std::to_string(C % Kernels);
        for (unsigned L = 0; L < LaunchesPerClient; ++L) {
          host::LaunchRequest Req = host::LaunchRequest::make(
              Kernel,
              {host::KernelArg::mapped(X.data()),
               host::KernelArg::mapped(Y.data()),
               host::KernelArg::f64(2.0),
               host::KernelArg::i64(static_cast<std::int64_t>(N))},
              Teams, Threads, Tenant);
          const auto Begin = std::chrono::steady_clock::now();
          auto T = Svc.submitLaunch(std::move(Req));
          if (!T) {
            ++Outcomes[C].LaunchErrors;
            continue;
          }
          auto R = T->get();
          if (!R || !R->Ok)
            ++Outcomes[C].LaunchErrors;
          else
            Outcomes[C].LaunchLatencyUs.add(microsSince(Begin));
        }
        (void)Host.exitData(X.data());
        (void)Host.exitData(Y.data(), /*CopyFrom=*/true);
      });
    for (auto &T : Threads2)
      T.join();
  }
  Svc.drain();
  const double SoakSeconds = secondsSince(SoakStart);

  // --- Aggregate + report --------------------------------------------------
  Samples AllLatency;
  std::uint64_t CompileErrors = 0, LaunchErrors = 0;
  for (const ClientOutcome &O : Outcomes) {
    AllLatency.merge(O.LaunchLatencyUs);
    CompileErrors += O.CompileErrors;
    LaunchErrors += O.LaunchErrors;
  }
  const service::QueueStats QS = Svc.queueStats();
  const std::uint64_t TotalRequests = QS.Enqueued;
  const double TotalSeconds = StormSeconds + SoakSeconds;

  Table T({"metric", "value"});
  T.startRow();
  T.cell("requests (all kinds)");
  T.cell(TotalRequests);
  T.startRow();
  T.cell("throughput (req/s)");
  T.cell(TotalSeconds > 0 ? static_cast<double>(TotalRequests) / TotalSeconds
                          : 0.0,
         1);
  T.startRow();
  T.cell("launch p50 (us)");
  T.cell(static_cast<std::uint64_t>(AllLatency.percentile(50)));
  T.startRow();
  T.cell("launch p95 (us)");
  T.cell(static_cast<std::uint64_t>(AllLatency.percentile(95)));
  T.startRow();
  T.cell("launch p99 (us)");
  T.cell(static_cast<std::uint64_t>(AllLatency.percentile(99)));
  T.startRow();
  T.cell("queue peak depth");
  T.cell(QS.Peak);
  T.startRow();
  T.cell("queue rejected");
  T.cell(QS.Rejected);
  T.print(std::cout);

  // Per-tenant rows: every client's request accounting, straight from the
  // service's isolation bookkeeping.
  for (unsigned C = 0; C < Clients; ++C) {
    const std::string Tenant = "client" + std::to_string(C);
    const service::TenantStats TS = Svc.tenantStats(Tenant);
    json::Value &Row = Report.addRow(Tenant);
    Row.set("submitted", json::Value(TS.Submitted));
    Row.set("completed", json::Value(TS.Completed));
    Row.set("failed", json::Value(TS.Failed));
    Row.set("compiles", json::Value(TS.Compiles));
    Row.set("compile_cache_hits", json::Value(TS.CompileCacheHits));
    Row.set("launches", json::Value(TS.Launches));
    Row.set("launch_mean_us", json::Value(TS.LaunchWallMicros.mean()));
    if (auto P = Svc.lastProfile(Tenant))
      Row.set("profile", BenchReport::profileJson(*P));
  }

  // The machine-readable "service" section (schema-checked by
  // validate_bench_json).
  json::Value Svx = json::Value::object();
  Svx.set("clients", json::Value(std::uint64_t(Clients)));
  Svx.set("requests", json::Value(TotalRequests));
  Svx.set("throughput_rps",
          json::Value(TotalSeconds > 0
                          ? static_cast<double>(TotalRequests) / TotalSeconds
                          : 0.0));
  json::Value Latency = json::Value::object();
  Latency.set("p50", json::Value(AllLatency.percentile(50)));
  Latency.set("p95", json::Value(AllLatency.percentile(95)));
  Latency.set("p99", json::Value(AllLatency.percentile(99)));
  Latency.set("mean", json::Value(AllLatency.mean()));
  Latency.set("count", json::Value(AllLatency.count()));
  Svx.set("latency_us", std::move(Latency));
  json::Value Queue = json::Value::object();
  Queue.set("peak_depth", json::Value(QS.Peak));
  Queue.set("mean_depth", json::Value(QS.MeanDepth));
  Queue.set("enqueued", json::Value(QS.Enqueued));
  Queue.set("rejected", json::Value(QS.Rejected));
  Svx.set("queue", std::move(Queue));
  json::Value Cache = json::Value::object();
  Cache.set("distinct_kernels", json::Value(std::uint64_t(Kernels)));
  Cache.set("misses", json::Value(CacheStats.misses()));
  Cache.set("hits", json::Value(CacheStats.hits()));
  Cache.set("coalesced", json::Value(CacheStats.coalesced()));
  Cache.set("entries", json::Value(CacheStats.entries()));
  Cache.set("single_flight_ok", json::Value(SingleFlightOk));
  Svx.set("cache", std::move(Cache));
  Report.setSection("service", std::move(Svx));

  printCounterFooter();

  const bool Failed =
      !SingleFlightOk || CompileErrors != 0 || LaunchErrors != 0;
  if (Failed)
    std::fprintf(stderr,
                 "soak FAILED: compile_errors=%llu launch_errors=%llu "
                 "single_flight=%s\n",
                 static_cast<unsigned long long>(CompileErrors),
                 static_cast<unsigned long long>(LaunchErrors),
                 SingleFlightOk ? "ok" : "VIOLATED");
  const int WriteResult = Report.write();
  return Failed ? 1 : WriteResult;
}
