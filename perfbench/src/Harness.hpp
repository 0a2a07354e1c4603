//===- perfbench/Harness.hpp - Benchmark statistics, spans and schedules ---===//
//
// The measurement machinery the benchmark shares across workloads: exact
// percentiles, an in-memory span recorder (the benchmark's own trace of the
// library calls it makes), self-time computation, Chrome trace-event export,
// an open-loop arrival schedule, and the one-line JSON result.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds / seconds between two time points.
inline double microsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}
inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// The P-th percentile (P in [0,100]) of V by linear interpolation between
/// the order statistics at rank P/100 * (N-1) (the "inclusive" definition
/// numpy uses by default). 0 for an empty sample.
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 50.0);
}

/// Closed-loop throughput from consecutive op latencies (ms): the median,
/// over Blocks equal runs of consecutive ops, of ops per second of op time.
/// Unlike count / elapsed, one stall or a drift inside the run moves at
/// most a block or two. 0 for an empty sample.
double blockRate(const std::vector<double> &OpMs, std::size_t Blocks = 10);

//===----------------------------------------------------------------------===//
// Host speed reference
//===----------------------------------------------------------------------===//

/// Run a fixed amount of reference work once and return its wall time in
/// milliseconds (about 1 ms on a 2020s x86-64 core). The work is the
/// benchmark's own code and calls nothing in the library: hashing, map
/// inserts with their allocations, and a sort, the mix a compiler and an
/// interpreter spend their time on. Its time tracks how fast the host runs
/// this process right now.
double referenceWorkMs();

/// Reference probes taken between the ops of one measurement window, so that
/// each op's time can be read against the host's speed around it. On a
/// shared host that speed drifts by tens of percent within minutes, and a
/// time in units of the reference work moves far less between runs than
/// the same time in milliseconds.
class SpeedTrack {
public:
  /// Probe if at least IntervalMs of wall time passed since the last probe
  /// (or none was taken yet). OpsDone is the number of ops completed so far.
  /// A probe is the fastest of three back-to-back runs of referenceWorkMs,
  /// so the first run's cold caches do not count.
  void maybeProbe(std::size_t OpsDone, double IntervalMs = 40.0);
  /// Record a probe of ProbeMs taken after OpsDone ops.
  void record(double ProbeMs, std::size_t OpsDone);
  /// Each op's time divided by the median of the Nearest probes taken
  /// closest to it: the op's time in units of the reference work. Empty
  /// when no probe was taken.
  [[nodiscard]] std::vector<double>
  relative(const std::vector<double> &OpMs, std::size_t Nearest = 7) const;
  [[nodiscard]] const std::vector<double> &probeMs() const { return ProbeMs; }

private:
  std::vector<double> ProbeMs;
  std::vector<std::size_t> ProbeAt; ///< ops completed before each probe
  Clock::time_point Last{};
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One recorded interval. Times are nanoseconds since the recorder's epoch.
struct Span {
  std::string Name;
  std::int64_t StartNs = 0;
  std::int64_t EndNs = -1; ///< -1 while open
  std::int64_t Parent = -1; ///< index of the enclosing span, -1 for a root
  std::uint64_t Request = 0; ///< request id shared by one request's spans
  std::uint32_t Tid = 0;     ///< small per-thread id

  [[nodiscard]] std::int64_t durationNs() const { return EndNs - StartNs; }
};

/// In-memory span store. Off by default: a disabled recorder makes
/// ScopedSpan a no-op that reads no clock. Spans nest per thread; a span
/// opened while another is open on the same thread becomes its child.
class SpanRecorder {
public:
  static SpanRecorder &global();

  [[nodiscard]] bool enabled() const {
    return Enabled.load(std::memory_order_relaxed);
  }
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }

  /// Open a span on the calling thread; returns its index. Request 0
  /// inherits the enclosing span's request id.
  std::int64_t begin(std::string_view Name, std::uint64_t Request = 0);
  /// Close span Id (must be the calling thread's innermost open span).
  void end(std::int64_t Id);
  /// Record a span whose interval was measured elsewhere, parented to the
  /// calling thread's innermost open span (for intervals that start on one
  /// thread and end on another, such as an open-loop request).
  void add(std::string_view Name, Clock::time_point Start,
           Clock::time_point End, std::uint64_t Request);

  [[nodiscard]] std::vector<Span> spans() const;
  void clear();
  [[nodiscard]] std::int64_t nanosSinceEpoch(Clock::time_point T) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Epoch)
        .count();
  }

private:
  std::atomic<bool> Enabled{false};
  Clock::time_point Epoch = Clock::now();
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
};

/// RAII span on the global recorder; does nothing while it is disabled.
class ScopedSpan {
public:
  explicit ScopedSpan(std::string_view Name, std::uint64_t Request = 0)
      : Id(SpanRecorder::global().enabled()
               ? SpanRecorder::global().begin(Name, Request)
               : -1) {}
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  ~ScopedSpan() {
    if (Id >= 0)
      SpanRecorder::global().end(Id);
  }

private:
  std::int64_t Id;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals. Indexed like Spans;
/// open spans get 0.
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &Spans);

/// Write Spans as Chrome trace-event JSON ("X" complete events; args carry
/// the span id, parent, request id and self time), readable by
/// chrome://tracing and Perfetto.
void writeChromeTrace(std::ostream &OS, const std::vector<Span> &Spans);

//===----------------------------------------------------------------------===//
// Open-loop schedule
//===----------------------------------------------------------------------===//

/// Fixed-rate arrivals: request I is due at Start + I / Rate. Latency in an
/// open loop is measured from the due time, so a generator stall is charged
/// to every request it delays.
class OpenLoopSchedule {
public:
  OpenLoopSchedule(Clock::time_point Start, double RatePerSecond)
      : Start(Start), Rate(RatePerSecond) {}

  [[nodiscard]] Clock::time_point due(std::uint64_t I) const {
    return Start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(I) / Rate));
  }
  /// How late a send at SentAt was for request I, in microseconds (0 when
  /// on time or early).
  [[nodiscard]] double latenessMicros(std::uint64_t I,
                                      Clock::time_point SentAt) const;

private:
  Clock::time_point Start;
  double Rate;
};

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

/// Named metrics of one run, in insertion order.
class MetricSet {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  [[nodiscard]] const std::vector<std::string> &names() const {
    return Order;
  }
  [[nodiscard]] double value(const std::string &Name) const {
    return Values.at(Name).first;
  }
  [[nodiscard]] const std::string &unit(const std::string &Name) const {
    return Values.at(Name).second;
  }

private:
  std::vector<std::string> Order;
  std::map<std::string, std::pair<double, std::string>> Values;
};

/// Operation accounting shared by every workload: ops attempted, ops that
/// failed, were refused or produced wrong output, and the first few
/// failure messages.
struct OpTally {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<std::string> Errors;

  void fail(std::string Why) {
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back(std::move(Why));
  }
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string resultJson(const OpTally &Ops, const MetricSet &Metrics);

/// Peak resident set size of this process so far, MiB.
double peakRssMb();

} // namespace perfbench
