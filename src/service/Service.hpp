//===- service/Service.hpp - Multi-tenant compile-and-launch service -------===//
//
// An asynchronous service over the library stack that accepts concurrent
// requests from many client threads — register an image, compile a kernel
// with options, launch with arguments, fetch per-tenant profiles — through
// one bounded submission queue drained by a fixed set of worker threads.
//
//   * Futures: every submit returns a Ticket (future) for the request's
//     Expected outcome; clients overlap submission freely.
//   * Queueing: ServiceConfig::Workers plain threads each run workerLoop(),
//     draining jobs until shutdown.
//   * Admission control: the queue is bounded; when full, submissions
//     either block for space or are rejected with an error, per
//     ServiceConfig::Policy (backpressure instead of unbounded memory).
//   * Deduplication: compiles funnel through the single-flight
//     KernelCache, so 1000 identical concurrent compile requests perform
//     exactly one compilation (KernelCache::Stats proves it).
//   * Tenant isolation: stats (request counts, launch latency, cache hits)
//     and trace events (trace::TenantScope) are segregated by the tenant
//     tag every request carries.
//
// Launches marshal through the same validated host::LaunchRequest as the
// synchronous library path — Service::submitLaunch and HostRuntime::launch
// share one entry point, not parallel signatures.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "frontend/KernelCache.hpp"
#include "host/HostRuntime.hpp"
#include "service/Ticket.hpp"
#include "support/Stats.hpp"

namespace codesign::service {

/// What happens to a submission when the queue is at capacity.
enum class AdmissionPolicy {
  Block,  ///< wait for space (backpressure propagates to the client)
  Reject, ///< fail fast with a "queue full" error
};

/// Service shape: worker parallelism and admission control.
struct ServiceConfig {
  /// Worker threads draining the queue (clamped to >= 1).
  unsigned Workers = 4;
  /// Maximum queued (not yet executing) requests.
  std::size_t QueueCapacity = 64;
  AdmissionPolicy Policy = AdmissionPolicy::Block;
};

/// Per-tenant request accounting. Counts are lifetime totals for this
/// service instance.
struct TenantStats {
  std::uint64_t Submitted = 0;  ///< accepted into the queue
  std::uint64_t Rejected = 0;   ///< refused by admission control
  std::uint64_t Completed = 0;  ///< finished with a success outcome
  std::uint64_t Failed = 0;     ///< finished with an error outcome
  std::uint64_t Compiles = 0;   ///< compile requests executed
  std::uint64_t CompileCacheHits = 0; ///< compiles served from the cache
  std::uint64_t Launches = 0;   ///< successful kernel launches
  StreamingStats LaunchWallMicros; ///< wall time of the launch itself
};

/// Outcome of a hoisted multi-launch pipeline (submitPipeline): the
/// per-launch results in submission order, the transfers the pipeline
/// performed end to end (prologue maps, epilogue unmaps, and whatever the
/// launches themselves moved), and the number of distinct buffers hoisted
/// to device residency across the launches.
struct PipelineResult {
  std::vector<vgpu::LaunchResult> Launches;
  host::TransferStats Transfers;
  std::uint64_t HoistedBuffers = 0;
};

/// Submission-queue health, for benches and capacity planning.
struct QueueStats {
  std::size_t Depth = 0;      ///< current queued requests
  std::uint64_t Peak = 0;     ///< high-water mark
  std::uint64_t Enqueued = 0; ///< total accepted
  std::uint64_t Rejected = 0; ///< total refused (all tenants)
  double MeanDepth = 0.0;     ///< mean depth sampled at each enqueue
};

/// Asynchronous multi-tenant facade over VirtualGPU + HostRuntime +
/// compileKernel. Construct with the device; submit from any thread.
/// Destruction drains the queue (every accepted request completes).
class Service {
public:
  explicit Service(vgpu::VirtualGPU &Device, ServiceConfig Config = {});
  ~Service();
  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;

  // --- Request submission (thread-safe) ------------------------------------

  /// Register a pre-compiled module's kernels for launching. The service
  /// shares ownership of M until destruction.
  Expected<Ticket<void>>
  submitRegister(std::string Tenant, std::shared_ptr<ir::Module> M,
                 std::shared_ptr<const vgpu::BytecodeModule> Bytecode = nullptr);

  /// Compile Spec under Options (through the single-flight kernel cache)
  /// and make the kernel launchable by name. Identical concurrent
  /// requests — same spec, same options — share one compilation and one
  /// registered image, whichever tenants submitted them.
  Expected<Ticket<frontend::CompiledKernel>>
  submitCompile(std::string Tenant, frontend::KernelSpec Spec,
                frontend::CompileOptions Options);

  /// Launch a registered kernel. The request's Tenant tag attributes the
  /// launch; marshalling and validation are HostRuntime::launch's.
  Expected<Ticket<vgpu::LaunchResult>> submitLaunch(host::LaunchRequest Request);

  /// Run a sequence of launches as one job with transfer hoisting: every
  /// Buffer argument appearing in the requests is mapped once before the
  /// first launch and unmapped once after the last, so the per-launch maps
  /// inside degrade to refcount bumps that move no bytes. The motion each
  /// buffer actually needs (to / from / neither) is the union over the
  /// launches that touch it of the per-argument effective map clause —
  /// the request's explicit clause when given, else the kernel's declared
  /// clause, else the clause the static map-inference pass proved, else
  /// the conservative implicit tofrom. From-motion is skipped when any
  /// launch failed (partial outputs are not written back).
  Expected<Ticket<PipelineResult>>
  submitPipeline(std::string Tenant,
                 std::vector<host::LaunchRequest> Requests);

  // --- Tenant-scoped results (thread-safe) ---------------------------------

  /// The profile of the tenant's most recent successful launch, alone or
  /// in a pipeline. Errors when the tenant has no successful launch.
  Expected<vgpu::LaunchProfile> lastProfile(std::string_view Tenant) const;

  /// Snapshot of the tenant's stats (zeroes for unknown tenants).
  [[nodiscard]] TenantStats tenantStats(std::string_view Tenant) const;

  /// Names of every tenant that submitted at least one request.
  [[nodiscard]] std::vector<std::string> tenants() const;

  // --- Service-wide introspection ------------------------------------------

  [[nodiscard]] QueueStats queueStats() const;

  /// Block until every accepted request has completed and the queue is
  /// empty. New submissions during a drain are allowed (the drain then
  /// also waits for them).
  void drain();

  /// The underlying host runtime, for data mapping (enterData/exitData) —
  /// the present table is thread-safe and shared by all tenants.
  [[nodiscard]] host::HostRuntime &runtime() { return Host; }

private:
  struct Job {
    std::string Tenant;
    std::uint64_t Id = 0;
    /// Does the work and records its outcome (tenant stats included) but
    /// must NOT make the outcome observable to the client.
    std::function<void()> Run;
    /// Fulfills the client's ticket. Invoked by the worker only after the
    /// request's trace span is recorded, so a client woken by its ticket
    /// always finds the span in the tracer (no publish-before-trace race).
    std::function<void()> Publish;
  };

  /// Mutable per-tenant state behind TenantStats.
  struct TenantState {
    TenantStats Stats;
    vgpu::LaunchProfile LastProfile; ///< valid once Stats.Launches > 0
  };

  /// Admission control + enqueue; returns the request id or the rejection.
  /// Run computes, Publish fulfills the ticket (see Job).
  Expected<std::uint64_t> enqueue(const std::string &Tenant,
                                  std::function<void()> Run,
                                  std::function<void()> Publish);
  /// One worker thread's body: drains jobs until shutdown.
  void workerLoop();
  /// Flip the stop flag, wake every waiter, and join the workers.
  void stopWorkers();
  /// Bind a compiled kernel's module into the host runtime (idempotent for
  /// the cache-shared module; an error for a genuine name conflict).
  Expected<void> registerCompiled(const frontend::CompiledKernel &CK);
  /// Record an outcome against the tenant's stats.
  void finishTenant(const std::string &Tenant, bool Ok);
  template <typename Fn> void withTenant(std::string_view Tenant, Fn &&Edit) {
    std::lock_guard<std::mutex> Lock(TenantsMutex);
    auto It = Tenants.find(Tenant);
    if (It == Tenants.end())
      It = Tenants.emplace(std::string(Tenant), TenantState{}).first;
    Edit(It->second);
  }

  vgpu::VirtualGPU &Device;
  ServiceConfig Config;
  host::HostRuntime Host;

  // Submission queue. QMutex guards the deque, the stop flag, the depth
  // statistics and the active-job count; the CVs implement backpressure
  // (NotFull), dispatch (NotEmpty) and drain (Idle).
  mutable std::mutex QMutex;
  std::condition_variable NotEmpty;
  std::condition_variable NotFull;
  std::condition_variable Idle;
  std::deque<Job> Queue;
  bool Stopping = false;
  unsigned ActiveJobs = 0;
  std::uint64_t PeakDepth = 0;
  std::uint64_t TotalEnqueued = 0;
  std::uint64_t TotalRejected = 0;
  std::uint64_t DepthSum = 0; ///< sum of post-enqueue depths (mean = /Enqueued)

  // Kernel-name bindings shared by every tenant: name -> module that backs
  // it. Lets identical (cache-shared) compiles from different tenants land
  // on one registered image instead of colliding.
  std::mutex RegMutex;
  std::map<std::string, const ir::Module *, std::less<>> BoundKernels;
  std::vector<std::shared_ptr<ir::Module>> OwnedModules;

  mutable std::mutex TenantsMutex;
  std::map<std::string, TenantState, std::less<>> Tenants;

  std::atomic<std::uint64_t> NextRequestId{1};

  /// Config.Workers threads, each running workerLoop().
  std::vector<std::thread> Threads;
};

} // namespace codesign::service
