//===- tests/overhead/test_overhead.cpp - Launch overhead as counts --------===//
//
// The paper shows its runtime's overhead is gone by counting resources, not
// only by timing them (Figure 11). Counts do not drift with a shared host
// the way timings do, so this binary counts what a warm
// HostRuntime::launch of a saxpy kernel costs the host:
//
//   - heap allocations and the bytes they request, through the global
//     operator new/delete this binary replaces (the replacement acts on
//     this process only);
//   - host threads started, through the pthread_create this binary wraps.
//
// Each case runs under tree, bytecode and native. On one host thread a
// warm launch allocates nothing: the argument bits, the teams' outcomes and
// every team's state come from the host thread's spares. A warm
// apps::AppHarness run around such a launch allocates as often, and as
// many bytes, at 65536 output elements as at 256: the reset, the readback,
// the hash and the check allocate nothing that grows with the output.
//
//===----------------------------------------------------------------------===//
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <dlfcn.h>
#include <pthread.h>

#include <gtest/gtest.h>

#include "../apps/SaxpyApp.hpp"
#include "frontend/TargetCompiler.hpp"
#include "host/HostRuntime.hpp"

namespace {
std::atomic<std::uint64_t> Allocations{0};
std::atomic<std::uint64_t> AllocatedBytes{0};
std::atomic<std::uint64_t> ThreadsStarted{0};
} // namespace

void *operator new(std::size_t Size) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  AllocatedBytes.fetch_add(Size, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new(std::size_t Size, std::align_val_t Align) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  AllocatedBytes.fetch_add(Size, std::memory_order_relaxed);
  const auto A = static_cast<std::size_t>(Align);
  if (void *P = std::aligned_alloc(A, (Size + A - 1) / A * A))
    return P;
  throw std::bad_alloc();
}

// Out of line: inlined into a `delete new T` elsewhere in this file, the
// free() would pair with operator new in the compiler's eyes.
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}
[[gnu::noinline]] void operator delete(void *P, std::align_val_t) noexcept {
  std::free(P);
}
[[gnu::noinline]] void operator delete(void *P, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(P);
}

extern "C" int pthread_create(pthread_t *Thread, const pthread_attr_t *Attr,
                              void *(*Start)(void *), void *Arg) noexcept {
  using Fn = int (*)(pthread_t *, const pthread_attr_t *, void *(*)(void *),
                     void *);
  static const Fn Real =
      reinterpret_cast<Fn>(::dlsym(RTLD_NEXT, "pthread_create"));
  ThreadsStarted.fetch_add(1, std::memory_order_relaxed);
  return Real(Thread, Attr, Start, Arg);
}

namespace codesign {
namespace {

using frontend::BodyArg;
using frontend::KernelSpec;
using frontend::NativeBody;
using frontend::ParamSpec;
using frontend::Stmt;
using frontend::TripCount;
using host::KernelArg;

constexpr const char *Backends[] = {"tree", "bytecode", "native"};
constexpr std::uint64_t N = 4096;

/// One device with a saxpy kernel registered and its three buffers
/// present, ready for warm launches.
class SaxpyRig {
public:
  SaxpyRig(const char *Backend, unsigned HostThreads)
      : GPU(config(HostThreads)), Host(GPU), X(N, 1.5), Y(N, -2.0),
        Out(N, 0.0) {
    Ok = GPU.setExecBackend(Backend).hasValue();
    const std::int64_t Saxpy = GPU.registry().add(vgpu::NativeOpInfo{
        "overhead_saxpy",
        [](vgpu::NativeCtx &Ctx) {
          const std::int64_t I = Ctx.argI64(0);
          const vgpu::DeviceAddr Xs = Ctx.argPtr(1), Ys = Ctx.argPtr(2),
                                 Outs = Ctx.argPtr(3);
          Ctx.storeF64(Outs.advance(I * 8),
                       Ctx.argF64(4) * Ctx.loadF64(Xs.advance(I * 8)) +
                           Ctx.loadF64(Ys.advance(I * 8)));
          Ctx.chargeCycles(6);
        },
        /*ExtraRegisters=*/6});
    KernelSpec Spec;
    Spec.Name = "overhead_saxpy";
    Spec.Params = {ParamSpec::mappedPtr("x", ir::MapKind::To),
                   ParamSpec::mappedPtr("y", ir::MapKind::To),
                   ParamSpec::mappedPtr("out", ir::MapKind::From),
                   {ir::Type::f64(), "a"},
                   {ir::Type::i64(), "n"}};
    NativeBody Body;
    Body.NativeId = Saxpy;
    Body.Args = {BodyArg::iter(), BodyArg::arg(0), BodyArg::arg(1),
                 BodyArg::arg(2), BodyArg::arg(3)};
    Spec.Stmts = {Stmt::distributeParallelFor(TripCount::argument(4), Body)};
    auto CK = frontend::compileKernel(
        Spec, frontend::CompileOptions::newRTNoAssumptions(), GPU.registry());
    Ok = Ok && CK.hasValue();
    if (!Ok)
      return;
    Kernel = *CK;
    Ok = Host.registerImage(*Kernel.M, Kernel.Bytecode).hasValue();
    for (std::vector<double> *V : {&X, &Y, &Out})
      Ok = Ok && Host.enterData(V->data(), N * 8).hasValue();
  }

  ~SaxpyRig() {
    for (std::vector<double> *V : {&X, &Y, &Out})
      (void)Host.exitData(V->data());
  }

  /// One launch of Teams x Threads over n elements; true when it ran.
  bool launch(std::uint32_t Teams, std::uint32_t Threads, std::int64_t Len) {
    const KernelArg Args[] = {KernelArg::mapped(X.data()),
                              KernelArg::mapped(Y.data()),
                              KernelArg::mapped(Out.data()),
                              KernelArg::f64(2.5), KernelArg::i64(Len)};
    auto R = Host.launch("overhead_saxpy", Args, Teams, Threads);
    return R && R->Ok;
  }

  bool Ok = false;

private:
  static vgpu::DeviceConfig config(unsigned HostThreads) {
    vgpu::DeviceConfig C;
    C.HostThreads = HostThreads;
    return C;
  }

  vgpu::VirtualGPU GPU;
  host::HostRuntime Host;
  frontend::CompiledKernel Kernel;
  std::vector<double> X, Y, Out;
};

/// Heap allocations made by one launch.
std::uint64_t allocationsOf(SaxpyRig &Rig, std::uint32_t Teams,
                            std::uint32_t Threads, std::int64_t Len) {
  const std::uint64_t Before = Allocations.load();
  EXPECT_TRUE(Rig.launch(Teams, Threads, Len));
  return Allocations.load() - Before;
}

TEST(Overhead, WarmLaunchStartsNoHostThread) {
  for (const char *Backend : Backends) {
    SaxpyRig Rig(Backend, /*HostThreads=*/0); // the default width
    ASSERT_TRUE(Rig.Ok) << Backend;
    // The first launches bind the kernel and start the executor's workers.
    ASSERT_TRUE(Rig.launch(64, 64, N)) << Backend;
    ASSERT_TRUE(Rig.launch(1, 1, 0)) << Backend;
    const std::uint64_t Before = ThreadsStarted.load();
    for (int I = 0; I < 4; ++I) {
      ASSERT_TRUE(Rig.launch(1, 1, 0)) << Backend;
      ASSERT_TRUE(Rig.launch(64, 64, 0)) << Backend;
      ASSERT_TRUE(Rig.launch(64, 64, N)) << Backend;
    }
    EXPECT_EQ(ThreadsStarted.load() - Before, 0u) << Backend;
  }
}

TEST(Overhead, WarmLaunchAllocationsDoNotGrowWithTeams) {
  // On one host thread every team runs on the caller, so each team after
  // the first finds the previous team's state to recycle.
  for (const char *Backend : Backends) {
    SaxpyRig Rig(Backend, /*HostThreads=*/1);
    ASSERT_TRUE(Rig.Ok) << Backend;
    for (int I = 0; I < 2; ++I) {
      ASSERT_TRUE(Rig.launch(1, 1, 0)) << Backend;
      ASSERT_TRUE(Rig.launch(64, 64, 0)) << Backend;
      ASSERT_TRUE(Rig.launch(64, 64, N)) << Backend;
    }
    EXPECT_EQ(allocationsOf(Rig, 1, 1, 0), 0u) << Backend;
    EXPECT_EQ(allocationsOf(Rig, 64, 64, 0), 0u) << Backend;
    EXPECT_EQ(allocationsOf(Rig, 64, 64, N), 0u) << Backend;
  }
}

TEST(Overhead, WarmAppRunAllocationsDoNotGrowWithOutputSize) {
  for (const char *Backend : Backends) {
    // Allocations and bytes allocated: one buffer sized by the output would
    // keep the count equal.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> Counts;
    for (std::uint64_t Elements : {256u, 65536u}) {
      vgpu::DeviceConfig Config;
      Config.HostThreads = 1;
      vgpu::VirtualGPU GPU(Config);
      ASSERT_TRUE(GPU.setExecBackend(Backend).hasValue());
      apps::SaxpyApp App(GPU, Elements);
      for (int I = 0; I < 2; ++I) {
        const apps::AppRunResult R = App.run(apps::defaultBuild());
        ASSERT_TRUE(R.Ok && R.Verified) << Backend << ": " << R.Error;
      }
      const std::uint64_t Before = Allocations.load();
      const std::uint64_t BytesBefore = AllocatedBytes.load();
      const apps::AppRunResult R = App.run(apps::defaultBuild());
      Counts.emplace_back(Allocations.load() - Before,
                          AllocatedBytes.load() - BytesBefore);
      ASSERT_TRUE(R.Ok && R.Verified) << Backend << ": " << R.Error;
    }
    EXPECT_EQ(Counts[0].first, Counts[1].first) << Backend;
    EXPECT_EQ(Counts[0].second, Counts[1].second) << Backend;
  }
}

} // namespace
} // namespace codesign
