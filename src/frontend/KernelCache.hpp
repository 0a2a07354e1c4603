//===- frontend/KernelCache.hpp - Single-flight compiled-kernel cache ------===//
//
// The benches recompile the same (spec, options) pairs many times — every
// figure sweeps the same proxy kernels over the five build configurations —
// and the multi-tenant service (src/service) adds thousands of *concurrent*
// requests for the same kernels. The cache therefore provides:
//
//  * Content addressing: compiled kernels are keyed on the full content of
//    the request — the serialized KernelSpec, the names and declared
//    register pressure of every referenced native op, and every
//    codegen/pipeline switch. The key is the complete serialization (not a
//    digest), so lookups cannot collide.
//
//  * One lock: a single mutex guards the entry and in-flight maps. It is
//    held only for map probes and updates, never across a compilation, so
//    concurrent compiles of distinct kernels still run in parallel.
//
//  * Single-flight deduplication: getOrCompile guarantees that N concurrent
//    requests for the same key perform exactly one compilation — the first
//    requester compiles while the rest block on the in-flight entry and
//    share its result. 1000 identical concurrent compiles = 1 miss.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "frontend/TargetCompiler.hpp"

namespace codesign::frontend {

/// Process-wide cache of compiled kernels. Hits share the immutable module
/// via CompiledKernel's shared_ptr; hit/miss/coalesced totals are mirrored
/// into support::Counters ("kernel-cache.hits" / "kernel-cache.misses" /
/// "kernel-cache.coalesced").
class KernelCache {
public:
  /// Event counts. Misses count executed compilations; coalesced counts
  /// requests that waited on another thread's in-flight compile (the
  /// single-flight proof: misses per distinct key is exactly 1 no matter
  /// how many requests raced).
  struct Stats {
    std::uint64_t Hits = 0;
    std::uint64_t Misses = 0;
    std::uint64_t Coalesced = 0;
    std::uint64_t Entries = 0;
    [[nodiscard]] std::uint64_t hits() const { return Hits; }
    [[nodiscard]] std::uint64_t misses() const { return Misses; }
    [[nodiscard]] std::uint64_t coalesced() const { return Coalesced; }
    [[nodiscard]] std::uint64_t entries() const { return Entries; }
  };

  /// How a getOrCompile request was satisfied.
  enum class Outcome {
    Hit,       ///< served from a completed entry
    Miss,      ///< this caller executed the compilation
    Coalesced, ///< waited on another caller's in-flight compilation
  };

  static KernelCache &global();

  /// Build the content-addressed key for a compilation request. PipelineStr
  /// is the canonical text of the resolved pipeline spec (PipelineSpec::str);
  /// it captures the pass sequence the toggles and any Opt.Pipeline override
  /// imply, so a pipeline override reaching the same toggles still gets its
  /// own entry. Empty when the optimizer does not run.
  static std::string key(const KernelSpec &Spec, const CompileOptions &Options,
                         const vgpu::NativeRegistry &Registry,
                         std::string_view PipelineStr = {});

  /// The single-flight entry point: return the cached kernel for Key, or
  /// run Compile exactly once per key no matter how many threads race.
  /// Concurrent requesters for the same key block until the winner's
  /// Compile returns and then share its result. Failed compilations are
  /// not cached (every waiter receives the error; a later request retries).
  /// WasOutcome, when given, reports how this call was satisfied.
  Expected<CompiledKernel>
  getOrCompile(const std::string &Key,
               const std::function<Expected<CompiledKernel>()> &Compile,
               Outcome *WasOutcome = nullptr);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::uint64_t hits() const { return stats().hits(); }
  [[nodiscard]] std::uint64_t misses() const { return stats().misses(); }
  [[nodiscard]] std::uint64_t coalesced() const { return stats().coalesced(); }
  [[nodiscard]] std::size_t size() const;
  /// Drop every entry and zero the counters (test isolation). Must not be
  /// called while compilations are in flight.
  void clear();

private:
  /// An in-flight compilation: the winner fills Result/Err and flips Done;
  /// losers wait on CV. Kept alive by shared_ptr so waiters survive the
  /// cache erasing the marker.
  struct Flight {
    std::mutex M;
    std::condition_variable CV;
    bool Done = false;
    bool Ok = false;
    CompiledKernel Result;
    std::string ErrMsg;
  };

  mutable std::mutex Mutex;
  std::unordered_map<std::string, CompiledKernel> Entries;
  std::unordered_map<std::string, std::shared_ptr<Flight>> InFlight;
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
  std::uint64_t Coalesced = 0;
};

} // namespace codesign::frontend
