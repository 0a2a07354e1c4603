//===- tests/service/test_service.cpp - Multi-tenant service --------------===//
//
// The service contract: requests from many client threads resolve through
// futures; identical concurrent compiles dedupe to one compilation
// (KernelCache::Stats is the witness); the bounded queue either blocks or
// rejects at capacity per AdmissionPolicy; per-tenant stats, profiles and
// trace events never bleed across tenants; shutdown drains every accepted
// request. The whole suite runs under -DCODESIGN_SANITIZE=thread
// (ctest -L tsan).
//
//===----------------------------------------------------------------------===//
#include "service/Service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "frontend/KernelCache.hpp"
#include "frontend/TargetCompiler.hpp"
#include "ir/IRBuilder.hpp"
#include "support/Trace.hpp"

namespace codesign::service {
namespace {

using namespace ir;

class ServiceTest : public ::testing::Test {
protected:
  void SetUp() override {
    frontend::KernelCache::global().clear();
    Counters::global().reset();
    trace::Tracer::global().setEnabled(false);
    trace::Tracer::global().clear();
    BodyId = GPU.registry().add(vgpu::NativeOpInfo{
        "svc_body",
        [](vgpu::NativeCtx &Ctx) {
          const std::int64_t I = Ctx.argI64(0);
          const vgpu::DeviceAddr Buf = Ctx.argPtr(1);
          Ctx.storeF64(Buf.advance(I * 8), Ctx.loadF64(Buf.advance(I * 8)) + 1.0);
          Ctx.chargeCycles(2);
        },
        2});
  }
  void TearDown() override {
    trace::Tracer::global().setEnabled(false);
    trace::Tracer::global().clear();
  }

  /// "#pragma omp target teams distribute parallel for: buf[i] += 1".
  frontend::KernelSpec spec(const std::string &Name,
                            std::int64_t Trip = 32) const {
    frontend::KernelSpec S;
    S.Name = Name;
    S.Params = {{Type::ptr(), "buf"}};
    frontend::NativeBody Body;
    Body.NativeId = BodyId;
    Body.Args = {frontend::BodyArg::iter(), frontend::BodyArg::arg(0)};
    S.Stmts = {frontend::Stmt::distributeParallelFor(
        frontend::TripCount::constant(Trip), Body)};
    return S;
  }

  /// A hand-built module whose kernel spins inside a native op until
  /// Release flips — the controllable "slow request" for queue tests.
  std::shared_ptr<Module> gateModule(std::atomic<bool> &Entered,
                                     std::atomic<bool> &Release) {
    const std::int64_t GateId = GPU.registry().add(vgpu::NativeOpInfo{
        "svc_gate",
        [&Entered, &Release](vgpu::NativeCtx &) {
          Entered.store(true);
          while (!Release.load())
            std::this_thread::yield();
        },
        0});
    auto M = std::make_shared<Module>("gate");
    Function *K = M->createFunction("gated_k", Type::voidTy(), {});
    K->addAttr(FnAttr::Kernel);
    IRBuilder B(*M);
    B.setInsertPoint(K->createBlock("entry"));
    B.nativeOp(GateId, Type::voidTy(), {},
               NativeOpFlags{/*ReadsMemory=*/true, /*WritesMemory=*/true,
                             /*Divergent=*/false});
    B.retVoid();
    return M;
  }

  vgpu::VirtualGPU GPU;
  std::int64_t BodyId = 0;
};

TEST_F(ServiceTest, CompileThenLaunchRoundTrip) {
  Service Svc(GPU);
  auto CT = Svc.submitCompile("alice", spec("roundtrip"),
                              frontend::CompileOptions::newRT());
  ASSERT_TRUE(CT.hasValue()) << CT.error().message();
  auto CK = CT->get();
  ASSERT_TRUE(CK.hasValue()) << CK.error().message();

  constexpr std::int64_t N = 32;
  std::vector<double> Buf(N, 1.0);
  ASSERT_TRUE(Svc.runtime().enterData(Buf.data(), N * 8).hasValue());
  auto LT = Svc.submitLaunch(host::LaunchRequest::make(
      "roundtrip", {host::KernelArg::mapped(Buf.data())}, /*Teams=*/2,
      /*Threads=*/16, "alice"));
  ASSERT_TRUE(LT.hasValue()) << LT.error().message();
  auto LR = LT->get();
  ASSERT_TRUE(LR.hasValue()) << LR.error().message();
  ASSERT_TRUE(LR->Ok) << LR->Error;
  ASSERT_TRUE(Svc.runtime().exitData(Buf.data(), /*CopyFrom=*/true)
                  .hasValue());
  for (std::int64_t I = 0; I < N; ++I)
    EXPECT_DOUBLE_EQ(Buf[I], 2.0) << "element " << I;

  const TenantStats TS = Svc.tenantStats("alice");
  EXPECT_EQ(TS.Submitted, 2u);
  EXPECT_EQ(TS.Completed, 2u);
  EXPECT_EQ(TS.Failed, 0u);
  EXPECT_EQ(TS.Compiles, 1u);
  EXPECT_EQ(TS.Launches, 1u);
  EXPECT_EQ(TS.LaunchWallMicros.count(), 1u);
}

TEST_F(ServiceTest, CompileStormDedupesToOneCompilation) {
  // The acceptance scenario: 8 client threads x 125 identical compile
  // requests = 1000 concurrent requests for one key. The single-flight
  // kernel cache (one lock) must record exactly 1 miss; every other request
  // is a hit or was coalesced onto the in-flight compilation.
  constexpr unsigned Clients = 8, PerClient = 125;
  ServiceConfig Config;
  Config.Workers = 4;
  Config.QueueCapacity = Clients * PerClient; // no admission blocking
  Service Svc(GPU, Config);
  std::vector<std::thread> Threads;
  std::atomic<unsigned> Failures{0};
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      const std::string Tenant = "client" + std::to_string(C);
      std::vector<Ticket<frontend::CompiledKernel>> Tickets;
      Tickets.reserve(PerClient);
      for (unsigned I = 0; I < PerClient; ++I) {
        auto T = Svc.submitCompile(Tenant, spec("storm"),
                                   frontend::CompileOptions::newRT());
        if (!T) {
          Failures.fetch_add(1);
          continue;
        }
        Tickets.push_back(std::move(*T));
      }
      for (auto &T : Tickets)
        if (!T.get().hasValue())
          Failures.fetch_add(1);
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);

  const frontend::KernelCache::Stats S = frontend::KernelCache::global().stats();
  EXPECT_EQ(S.misses(), 1u)
      << "1000 identical concurrent compiles must run exactly one";
  EXPECT_EQ(S.hits() + S.coalesced(), Clients * PerClient - 1u);
  EXPECT_EQ(frontend::KernelCache::global().size(), 1u);

  // Per-tenant accounting adds up, and cache hits were attributed.
  std::uint64_t Compiles = 0, CacheHits = 0;
  for (const std::string &Tenant : Svc.tenants()) {
    const TenantStats TS = Svc.tenantStats(Tenant);
    Compiles += TS.Compiles;
    CacheHits += TS.CompileCacheHits;
  }
  EXPECT_EQ(Compiles, Clients * PerClient);
  EXPECT_EQ(CacheHits, Clients * PerClient - 1u);
}

TEST_F(ServiceTest, RejectPolicyFailsFastWhenQueueIsFull) {
  std::atomic<bool> Entered{false}, Release{false};
  auto Gate = gateModule(Entered, Release);
  ServiceConfig Config;
  Config.Workers = 1;
  Config.QueueCapacity = 1;
  Config.Policy = AdmissionPolicy::Reject;
  Service Svc(GPU, Config);
  auto RT = Svc.submitRegister("alice", Gate);
  ASSERT_TRUE(RT.hasValue());
  ASSERT_TRUE(RT->get().hasValue());

  // Occupy the only worker...
  auto Running = Svc.submitLaunch(
      host::LaunchRequest::make("gated_k", {}, 1, 1, "alice"));
  ASSERT_TRUE(Running.hasValue());
  while (!Entered.load())
    std::this_thread::yield();
  // ...fill the only queue slot...
  auto Queued = Svc.submitLaunch(
      host::LaunchRequest::make("gated_k", {}, 1, 1, "alice"));
  ASSERT_TRUE(Queued.hasValue());
  // ...and the next submission must be rejected, synchronously.
  auto Rejected = Svc.submitLaunch(
      host::LaunchRequest::make("gated_k", {}, 1, 1, "bob"));
  ASSERT_FALSE(Rejected.hasValue());
  EXPECT_NE(Rejected.error().message().find("queue full"), std::string::npos)
      << Rejected.error().message();

  Release.store(true);
  ASSERT_TRUE(Running->get().hasValue());
  ASSERT_TRUE(Queued->get().hasValue());
  EXPECT_EQ(Svc.queueStats().Rejected, 1u);
  EXPECT_EQ(Svc.tenantStats("bob").Rejected, 1u);
  EXPECT_EQ(Svc.tenantStats("alice").Rejected, 0u)
      << "rejections must bill the rejected tenant only";
}

TEST_F(ServiceTest, BlockPolicyAcceptsEverythingEventually) {
  std::atomic<bool> Entered{false}, Release{false};
  auto Gate = gateModule(Entered, Release);
  ServiceConfig Config;
  Config.Workers = 1;
  Config.QueueCapacity = 1;
  Config.Policy = AdmissionPolicy::Block;
  Service Svc(GPU, Config);
  ASSERT_TRUE(Svc.submitRegister("alice", Gate)->get().hasValue());

  auto Running = Svc.submitLaunch(
      host::LaunchRequest::make("gated_k", {}, 1, 1, "alice"));
  ASSERT_TRUE(Running.hasValue());
  while (!Entered.load())
    std::this_thread::yield();

  // With the worker blocked and one slot filled, further submissions must
  // block (not fail) until the gate releases. Submit from another thread;
  // release the gate once it is observably stuck.
  auto Queued = Svc.submitLaunch(
      host::LaunchRequest::make("gated_k", {}, 1, 1, "alice"));
  ASSERT_TRUE(Queued.hasValue());
  std::atomic<bool> SubmitReturned{false};
  Expected<Ticket<vgpu::LaunchResult>> Blocked =
      makeError("submit never ran");
  std::thread Submitter([&] {
    Blocked = Svc.submitLaunch(
        host::LaunchRequest::make("gated_k", {}, 1, 1, "alice"));
    SubmitReturned.store(true);
  });
  // The submitter must be parked by admission control, not rejected.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(SubmitReturned.load())
      << "Block policy must hold the submitter while the queue is full";
  Release.store(true);
  Submitter.join();
  ASSERT_TRUE(Blocked.hasValue()) << Blocked.error().message();
  ASSERT_TRUE(Running->get().hasValue());
  ASSERT_TRUE(Queued->get().hasValue());
  ASSERT_TRUE(Blocked->get().hasValue());
  EXPECT_EQ(Svc.queueStats().Rejected, 0u);
}

TEST_F(ServiceTest, PerTenantProfileAndTraceIsolation) {
  trace::Tracer::global().setEnabled(true);
  Service Svc(GPU);
  ASSERT_TRUE(Svc.submitCompile("setup", spec("iso"),
                                frontend::CompileOptions::newRT())
                  ->get()
                  .hasValue());
  constexpr std::int64_t N = 32;
  std::vector<double> BufA(N, 0.0), BufB(N, 0.0);
  ASSERT_TRUE(Svc.runtime().enterData(BufA.data(), N * 8).hasValue());
  ASSERT_TRUE(Svc.runtime().enterData(BufB.data(), N * 8).hasValue());

  // Alice launches with 1 team, bob with 4: their last profiles must
  // disagree on the team count, proving no cross-tenant bleed.
  ASSERT_TRUE(Svc.submitLaunch(host::LaunchRequest::make(
                     "iso", {host::KernelArg::mapped(BufA.data())}, 1, 8,
                     "alice"))
                  ->get()
                  .hasValue());
  ASSERT_TRUE(Svc.submitLaunch(host::LaunchRequest::make(
                     "iso", {host::KernelArg::mapped(BufB.data())}, 4, 8,
                     "bob"))
                  ->get()
                  .hasValue());

  auto PA = Svc.lastProfile("alice");
  auto PB = Svc.lastProfile("bob");
  ASSERT_TRUE(PA.hasValue()) << PA.error().message();
  ASSERT_TRUE(PB.hasValue()) << PB.error().message();
  EXPECT_EQ(PA->Teams, 1u);
  EXPECT_EQ(PB->Teams, 4u);
  EXPECT_FALSE(Svc.lastProfile("carol").hasValue())
      << "unknown tenants have no profile";

  // Every trace event a tenant's request emitted is tagged with that
  // tenant; each tenant sees exactly one service request span.
  for (const char *Tenant : {"alice", "bob"}) {
    const auto Events = trace::Tracer::global().eventsForTenant(Tenant);
    ASSERT_FALSE(Events.empty());
    std::size_t RequestSpans = 0;
    for (const auto &E : Events) {
      EXPECT_EQ(E.Tenant, Tenant);
      if (E.Category == "service" && E.Name == "request")
        ++RequestSpans;
    }
    EXPECT_EQ(RequestSpans, 1u) << Tenant;
  }

  const TenantStats A = Svc.tenantStats("alice");
  const TenantStats B = Svc.tenantStats("bob");
  EXPECT_EQ(A.Launches, 1u);
  EXPECT_EQ(B.Launches, 1u);
  EXPECT_EQ(A.Submitted, 1u);
}

TEST_F(ServiceTest, KernelNameConflictAcrossModulesIsReported) {
  Service Svc(GPU);
  ASSERT_TRUE(Svc.submitCompile("alice", spec("dup", /*Trip=*/32),
                                frontend::CompileOptions::newRT())
                  ->get()
                  .hasValue());
  // Same kernel name, different spec: a different compiled module wants the
  // name. The compile succeeds but the binding must be refused.
  auto Conflict = Svc.submitCompile("bob", spec("dup", /*Trip=*/64),
                                    frontend::CompileOptions::newRT())
                      ->get();
  ASSERT_FALSE(Conflict.hasValue());
  EXPECT_NE(Conflict.error().message().find("different module"),
            std::string::npos)
      << Conflict.error().message();
  EXPECT_EQ(Svc.tenantStats("bob").Failed, 1u);
}

TEST_F(ServiceTest, InvalidLaunchRequestsFailSynchronously) {
  Service Svc(GPU);
  auto Empty = Svc.submitLaunch(host::LaunchRequest::make("", {}, 1, 1));
  ASSERT_FALSE(Empty.hasValue());
  EXPECT_NE(Empty.error().message().find("empty kernel name"),
            std::string::npos);
  auto ZeroTeams =
      Svc.submitLaunch(host::LaunchRequest::make("k", {}, 0, 1));
  ASSERT_FALSE(ZeroTeams.hasValue());
  // An unknown kernel is only detected by the worker: asynchronous error.
  auto Unknown =
      Svc.submitLaunch(host::LaunchRequest::make("nope", {}, 1, 1, "t"));
  ASSERT_TRUE(Unknown.hasValue());
  auto R = Unknown->get();
  ASSERT_FALSE(R.hasValue());
  EXPECT_EQ(Svc.tenantStats("t").Failed, 1u);
}

TEST_F(ServiceTest, InvalidRegisterAndPipelineRequestsNameTheirFault) {
  Service Svc(GPU);
  auto NoModule = Svc.submitRegister("t", nullptr);
  ASSERT_FALSE(NoModule.hasValue());
  EXPECT_EQ(NoModule.error().message(),
            "service: submitRegister requires a module");
  auto NoLaunch = Svc.submitPipeline("t", {});
  ASSERT_FALSE(NoLaunch.hasValue());
  EXPECT_EQ(NoLaunch.error().message(),
            "service: submitPipeline requires at least one launch");
  auto BadLaunch = Svc.submitPipeline(
      "t", {host::LaunchRequest::make("k", {}, 1, 1),
            host::LaunchRequest::make("", {}, 1, 1)});
  ASSERT_FALSE(BadLaunch.hasValue());
  EXPECT_EQ(BadLaunch.error().message().rfind("service: pipeline launch #1: ",
                                              0),
            0u)
      << BadLaunch.error().message();
}

TEST_F(ServiceTest, DestructionDrainsAcceptedRequests) {
  constexpr unsigned Requests = 64;
  std::vector<Ticket<frontend::CompiledKernel>> Tickets;
  {
    ServiceConfig Config;
    Config.Workers = 2;
    Config.QueueCapacity = Requests;
    Service Svc(GPU, Config);
    for (unsigned I = 0; I < Requests; ++I) {
      auto T = Svc.submitCompile("alice",
                                 spec("drain" + std::to_string(I % 4)),
                                 frontend::CompileOptions::newRT());
      ASSERT_TRUE(T.hasValue());
      Tickets.push_back(std::move(*T));
    }
    // Service destroyed here with most requests still queued.
  }
  for (auto &T : Tickets) {
    ASSERT_TRUE(T.ready()) << "destruction must have completed the request";
    EXPECT_TRUE(T.get().hasValue());
  }
}

TEST_F(ServiceTest, ShutdownStormKeepsAccountingExact) {
  // Regression (tsan): admission control used to take the tenant-stats lock
  // while holding the queue lock, and a rejection under a storm could be
  // double-counted against drain-on-destruction. The invariant: every
  // submission gets exactly one outcome — a ticket whose future is
  // fulfilled, or a synchronous rejection billed once — and
  // Submitted + Rejected equals the attempts, even when the service is
  // destroyed with most of the work still queued or in flight.
  std::atomic<bool> Entered{false}, Release{false};
  auto Gate = gateModule(Entered, Release);
  constexpr unsigned Clients = 6, PerClient = 40;
  std::vector<std::vector<Ticket<vgpu::LaunchResult>>> Tickets(Clients);
  std::vector<std::uint64_t> Rejections(Clients, 0);
  std::thread Releaser;
  {
    ServiceConfig Config;
    Config.Workers = 1;
    Config.QueueCapacity = 4;
    Config.Policy = AdmissionPolicy::Reject;
    Service Svc(GPU, Config);
    ASSERT_TRUE(Svc.submitRegister("warm", Gate)->get().hasValue());
    // Park the only worker inside the gate so the storm genuinely contends
    // for the four queue slots.
    auto Running = Svc.submitLaunch(
        host::LaunchRequest::make("gated_k", {}, 1, 1, "warm"));
    ASSERT_TRUE(Running.hasValue());
    while (!Entered.load())
      std::this_thread::yield();
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&, C] {
        const std::string Tenant = "storm" + std::to_string(C);
        for (unsigned I = 0; I < PerClient; ++I) {
          auto T = Svc.submitLaunch(
              host::LaunchRequest::make("gated_k", {}, 1, 1, Tenant));
          if (T)
            Tickets[C].push_back(std::move(*T));
          else
            ++Rejections[C];
        }
      });
    for (auto &T : Threads)
      T.join();
    std::uint64_t TenantRejected = 0;
    for (unsigned C = 0; C < Clients; ++C) {
      const TenantStats TS = Svc.tenantStats("storm" + std::to_string(C));
      EXPECT_EQ(TS.Submitted + TS.Rejected, PerClient)
          << "tenant storm" << C << ": exactly one outcome per attempt";
      EXPECT_EQ(TS.Submitted, Tickets[C].size());
      EXPECT_EQ(TS.Rejected, Rejections[C]);
      TenantRejected += TS.Rejected;
    }
    EXPECT_EQ(Svc.queueStats().Rejected, TenantRejected)
        << "global and per-tenant rejection accounting must agree";
    // Destruction begins with the worker still gated and accepted launches
    // queued; release the gate from a side thread once the drain is
    // plausibly underway.
    Releaser = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      Release.store(true);
    });
    ASSERT_TRUE(Running->get().hasValue());
    // ~Service drains here.
  }
  Releaser.join();
  for (unsigned C = 0; C < Clients; ++C)
    for (auto &T : Tickets[C]) {
      ASSERT_TRUE(T.ready())
          << "an accepted ticket must be fulfilled by the drain";
      auto R = T.get();
      ASSERT_TRUE(R.hasValue()) << R.error().message();
      EXPECT_TRUE(R->Ok) << R->Error;
    }
}

TEST_F(ServiceTest, MixedWorkloadStress) {
  // The tsan workhorse: many client threads interleaving compiles of a few
  // distinct kernels with launches on shared mapped buffers, all against
  // one service. Correctness assertions are minimal — the point is that
  // the run is data-race-free under -DCODESIGN_SANITIZE=thread.
  constexpr unsigned Clients = 8, Rounds = 6, Kernels = 3;
  ServiceConfig Config;
  Config.Workers = 4;
  Config.QueueCapacity = 32;
  Service Svc(GPU, Config);
  for (unsigned K = 0; K < Kernels; ++K)
    ASSERT_TRUE(Svc.submitCompile("warm", spec("mix" + std::to_string(K)),
                                  frontend::CompileOptions::newRT())
                    ->get()
                    .hasValue());
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      const std::string Tenant = "client" + std::to_string(C);
      constexpr std::int64_t N = 32;
      std::vector<double> Buf(N, 0.0);
      if (!Svc.runtime().enterData(Buf.data(), N * 8)) {
        Failures.fetch_add(1);
        return;
      }
      for (unsigned R = 0; R < Rounds; ++R) {
        const std::string Kernel = "mix" + std::to_string(R % Kernels);
        auto CT = Svc.submitCompile(Tenant, spec(Kernel),
                                    frontend::CompileOptions::newRT());
        auto LT = Svc.submitLaunch(host::LaunchRequest::make(
            Kernel, {host::KernelArg::mapped(Buf.data())}, 2, 16, Tenant));
        if (!CT || !CT->get().hasValue())
          Failures.fetch_add(1);
        if (!LT) {
          Failures.fetch_add(1);
          continue;
        }
        auto LR = LT->get();
        if (!LR.hasValue() || !LR->Ok)
          Failures.fetch_add(1);
      }
      if (!Svc.runtime().exitData(Buf.data()))
        Failures.fetch_add(1);
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(frontend::KernelCache::global().misses(), Kernels);
  const QueueStats QS = Svc.queueStats();
  EXPECT_EQ(QS.Enqueued,
            Kernels + std::uint64_t(Clients) * Rounds * 2);
  EXPECT_EQ(QS.Depth, 0u);
}

} // namespace
} // namespace codesign::service
