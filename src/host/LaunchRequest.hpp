//===- host/LaunchRequest.hpp - The unified launch-request surface ---------===//
//
// One validated request shape shared by every path that launches a kernel:
// the synchronous library call (HostRuntime::launch) and the asynchronous
// multi-tenant service (service::Service::submitLaunch) both marshal through
// a LaunchRequest instead of parallel ad-hoc signatures. The request names
// the kernel, carries the argument list and the launch geometry, and tags
// the submitting tenant so stats and trace events can be attributed.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ir/MapKind.hpp"
#include "support/Error.hpp"

namespace codesign::host {

/// One kernel argument from the host's perspective.
struct KernelArg {
  enum class Kind { I64, F64, MappedPtr, Buffer };
  Kind K = Kind::I64;
  std::int64_t I = 0;
  double F = 0.0;
  const void *HostPtr = nullptr;
  /// Buffer extent in bytes (Kind::Buffer only).
  std::uint64_t Bytes = 0;
  /// Motion clause for Kind::Buffer. MapKind::None means "no explicit
  /// clause": the runtime applies the OpenMP implicit default for pointers,
  /// tofrom.
  ir::MapKind Map = ir::MapKind::None;

  static KernelArg i64(std::int64_t V) { return {Kind::I64, V, 0.0, nullptr}; }
  static KernelArg f64(double V) { return {Kind::F64, 0, V, nullptr}; }
  /// A pointer previously mapped with enterData; translated at launch.
  static KernelArg mapped(const void *P) {
    return {Kind::MappedPtr, 0, 0.0, P};
  }
  /// A host buffer the runtime maps for the duration of the launch
  /// ("map(to/from/tofrom/alloc: p[0:n])" on the target construct). When the
  /// buffer is already device-resident (enterData), the launch-time map is a
  /// pure refcount bump and moves no bytes — the residency optimization the
  /// map-inference pass exploits. The pointed-to storage must stay valid for
  /// the launch; from-motion writes back through P.
  static KernelArg buffer(void *P, std::uint64_t Bytes,
                          ir::MapKind Map = ir::MapKind::None) {
    return {Kind::Buffer, 0, 0.0, P, Bytes, Map};
  }
};

/// Launch geometry ("omp target teams num_teams(...) thread_limit(...)").
struct LaunchConfig {
  std::uint32_t NumTeams = 1;
  std::uint32_t NumThreads = 1;
};

/// Structural validation shared by every launch entry point: a named
/// kernel, a non-degenerate geometry and well-formed buffer arguments.
/// (Whether the kernel exists and the args are mapped is checked against
/// runtime state at launch time.)
[[nodiscard]] inline Expected<void>
validateLaunch(std::string_view Kernel, std::span<const KernelArg> Args,
               LaunchConfig Config) {
  if (Kernel.empty())
    return makeError("launch request: empty kernel name");
  if (Config.NumTeams == 0 || Config.NumThreads == 0)
    return makeError("launch request '", Kernel,
                     "': NumTeams and NumThreads must be nonzero");
  for (std::size_t Idx = 0; Idx < Args.size(); ++Idx) {
    const KernelArg &A = Args[Idx];
    if (A.K == KernelArg::Kind::Buffer && (!A.HostPtr || A.Bytes == 0))
      return makeError("launch request '", Kernel, "': buffer argument #",
                       std::to_string(Idx),
                       " needs a non-null pointer and a nonzero size");
  }
  return {};
}

/// A fully described kernel launch. `Tenant` is optional attribution: the
/// service uses it to isolate per-client stats and trace events; library
/// callers may leave it empty.
struct LaunchRequest {
  std::string Kernel;           ///< registered kernel name
  std::vector<KernelArg> Args;  ///< marshalled in order
  LaunchConfig Config;
  std::string Tenant;

  /// Convenience builder for the common case.
  static LaunchRequest make(std::string Kernel, std::vector<KernelArg> Args,
                            std::uint32_t NumTeams, std::uint32_t NumThreads,
                            std::string Tenant = {}) {
    LaunchRequest R;
    R.Kernel = std::move(Kernel);
    R.Args = std::move(Args);
    R.Config = {NumTeams, NumThreads};
    R.Tenant = std::move(Tenant);
    return R;
  }

  /// validateLaunch over this request.
  [[nodiscard]] Expected<void> validate() const {
    return validateLaunch(Kernel, Args, Config);
  }
};

} // namespace codesign::host
