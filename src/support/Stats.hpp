//===- support/Stats.hpp - Streaming statistics and named counters --------===//
//
// Welford-style streaming accumulator used by benches to report mean and
// spread across repetitions, and by the virtual GPU to summarize per-thread
// cycle distributions. Also hosts the process-wide named counter registry
// through which subsystems (e.g. the compiled-kernel cache) surface
// monotonic event counts to benches and tests.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace codesign {

/// Streaming mean / variance / min / max accumulator (Welford's algorithm,
/// numerically stable).
class StreamingStats {
public:
  /// Add one observation.
  void add(double X) {
    ++N;
    const double Delta = X - Mean;
    Mean += Delta / static_cast<double>(N);
    M2 += Delta * (X - Mean);
    if (X < MinV)
      MinV = X;
    if (X > MaxV)
      MaxV = X;
    Sum += X;
  }

  /// Number of observations so far.
  [[nodiscard]] std::uint64_t count() const { return N; }
  /// Arithmetic mean (0 when empty).
  [[nodiscard]] double mean() const { return N ? Mean : 0.0; }
  /// Sum of all observations.
  [[nodiscard]] double sum() const { return Sum; }
  /// Sample standard deviation (0 for fewer than two observations).
  [[nodiscard]] double stddev() const {
    return N > 1 ? std::sqrt(M2 / static_cast<double>(N - 1)) : 0.0;
  }
  /// Minimum observation (+inf when empty).
  [[nodiscard]] double min() const { return MinV; }
  /// Maximum observation (-inf when empty).
  [[nodiscard]] double max() const { return MaxV; }

private:
  std::uint64_t N = 0;
  double Mean = 0.0;
  double M2 = 0.0;
  double Sum = 0.0;
  double MinV = std::numeric_limits<double>::infinity();
  double MaxV = -std::numeric_limits<double>::infinity();
};

/// Exact sample set for latency-distribution reporting: keeps every
/// observation so benches can report true percentiles (p50/p95/p99), not
/// approximations. Thread-safe: the read accessors sort lazily, which
/// mutates internal state from const methods — an internal mutex guards
/// every member so a reader racing a writer (or another reader) is safe.
class Samples {
public:
  /// Record one observation.
  void add(double X);
  /// Fold another sample set into this one.
  void merge(const Samples &Other);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// The P-th percentile (P in [0,100]) by linear interpolation between
  /// order statistics (the "exclusive" nearest-rank variant used by most
  /// latency tooling). 0 when empty.
  [[nodiscard]] double percentile(double P) const;

private:
  mutable std::mutex Mutex;
  mutable std::vector<double> Values;
  mutable bool Sorted = false;
  /// Requires Mutex held.
  void ensureSortedLocked() const;
};

/// Process-wide registry of named monotonic counters. Thread-safe; counters
/// spring into existence at zero on first touch. Names use dotted paths
/// ("kernel-cache.hits") so related counters sort together in snapshots.
class Counters {
public:
  /// The process-wide instance.
  static Counters &global();

  /// Add Delta to the named counter (creating it at zero first).
  void add(std::string_view Name, std::uint64_t Delta = 1);
  /// Current value (zero for never-touched counters).
  [[nodiscard]] std::uint64_t value(std::string_view Name) const;
  /// Name-sorted copy of every counter, for reporting.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  snapshot() const;
  /// Reset every counter to zero (test isolation).
  void reset();

private:
  mutable std::mutex Mutex;
  std::map<std::string, std::uint64_t, std::less<>> Values;
};

} // namespace codesign
