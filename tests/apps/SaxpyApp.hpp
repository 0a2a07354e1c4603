//===- tests/apps/SaxpyApp.hpp - A minimal app on the shared harness ------===//
//
// out = A * x + y over N elements, run through apps::AppHarness like the
// proxy apps. Tests of the run protocol (tests/apps) and of its allocation
// count (tests/overhead) drive it: they change A, the loop length or one
// input after the reference is cached, so the kernel computes something
// the reference does not expect.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/AppCommon.hpp"

namespace codesign::apps {

class SaxpyApp {
public:
  /// Maps x, y and (when MapOutput) out in the harness's runtime. The
  /// reference assumes A = 2.5 and the inputs as constructed.
  explicit SaxpyApp(vgpu::VirtualGPU &GPU, std::uint64_t N = 256,
                    bool MapOutput = true)
      : Len(static_cast<std::int64_t>(N)), N(N),
        Harness("Saxpy", GPU, [this] {
          ++ReferenceCalls;
          std::vector<double> Ref(this->N);
          for (std::uint64_t I = 0; I < this->N; ++I)
            Ref[I] = 2.5 * X[I] + Y[I];
          return Ref;
        }) {
    Rng R(11);
    for (std::uint64_t I = 0; I < N; ++I) {
      X.push_back(R.uniform(-1.0, 1.0));
      Y.push_back(R.uniform(-1.0, 1.0));
    }
    Out.assign(N, 0.0);
    host::HostRuntime &Host = Harness.host();
    EXPECT_TRUE(Host.enterData(X.data(), N * 8).hasValue());
    EXPECT_TRUE(Host.enterData(Y.data(), N * 8).hasValue());
    if (MapOutput) {
      EXPECT_TRUE(Host.enterData(Out.data(), N * 8).hasValue());
    }
    BodyId = GPU.registry().add(vgpu::NativeOpInfo{
        "harness_saxpy",
        [](vgpu::NativeCtx &Ctx) {
          const std::int64_t I = Ctx.argI64(0);
          const double X = Ctx.loadF64(Ctx.argPtr(2).advance(I * 8));
          const double Y = Ctx.loadF64(Ctx.argPtr(3).advance(I * 8));
          Ctx.storeF64(Ctx.argPtr(1).advance(I * 8), Ctx.argF64(4) * X + Y);
        },
        6});
  }

  /// One run under Build on 4 teams of 64 threads, writing out[0, Len).
  AppRunResult run(const BuildConfig &Build) {
    frontend::KernelSpec Spec;
    Spec.Name = "harness_saxpy_kernel";
    Spec.Params = {{ir::Type::ptr(), "out"},
                   {ir::Type::ptr(), "x"},
                   {ir::Type::ptr(), "y"},
                   {ir::Type::f64(), "a"},
                   {ir::Type::i64(), "n"}};
    frontend::NativeBody Body;
    Body.NativeId = BodyId;
    Body.Args = {frontend::BodyArg::iter(), frontend::BodyArg::arg(0),
                 frontend::BodyArg::arg(1), frontend::BodyArg::arg(2),
                 frontend::BodyArg::arg(3)};
    Spec.Stmts = {frontend::Stmt::distributeParallelFor(
        frontend::TripCount::argument(4), Body)};
    const host::KernelArg Args[] = {
        host::KernelArg::mapped(Out.data()), host::KernelArg::mapped(X.data()),
        host::KernelArg::mapped(Y.data()), host::KernelArg::f64(A),
        host::KernelArg::i64(Len)};
    return Harness.run(Build, Spec, Args, 4, 64,
                       {{"out", Out, Harness.reference()}});
  }

  /// Input x[I], on the host and on the device.
  [[nodiscard]] double x(std::uint64_t I) const { return X[I]; }
  void setX(std::uint64_t I, double V) {
    X[I] = V;
    EXPECT_TRUE(Harness.host().updateTo(X.data()).hasValue());
  }

  /// The output as the last run read it back.
  [[nodiscard]] const std::vector<double> &out() const { return Out; }

  double A = 2.5;
  /// Elements the kernel writes.
  std::int64_t Len;
  int ReferenceCalls = 0;

private:
  std::uint64_t N;
  AppHarness Harness;
  std::int64_t BodyId = 0;
  std::vector<double> X, Y, Out;
};

/// The build the single-build harness tests run.
inline BuildConfig defaultBuild() {
  return {"New RT - w/o Assumptions",
          frontend::CompileOptions::newRTNoAssumptions()};
}

} // namespace codesign::apps
