//===- perfbench/Census.hpp - Per-layer metrics of the traced run ----------===//
//
// The traced run's layer census: a fixed amount of work that calls every
// public layer entry point from the benchmark's own code, inside spans,
// and reads the library's public stats. It runs after the workload's own
// traced window, so every traced run reports the same per-layer metric
// set whichever workload it belongs to.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cstdint>
#include <vector>

#include "Harness.hpp"

namespace perfbench {

/// Run the census and add every per-layer metric to Metrics; failed or
/// wrong ops go to Ops.
void runCensus(std::uint64_t Seed, MetricSet &Metrics, OpTally &Ops);

/// Fraction of the proxy-app sweeps' wall time that their child spans
/// cover, over every "bench.sweep" span in Spans (1.0 = fully attributed).
double sweepAttribution(const std::vector<Span> &Spans);

} // namespace perfbench
