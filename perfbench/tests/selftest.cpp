// Self-tests of the benchmark's own measurement code: percentiles, span
// self time and Chrome export, the open-loop schedule and the result line.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "Harness.hpp"

using namespace perfbench;

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  EXPECT_EQ(percentile({}, 50), 0.0);
  EXPECT_EQ(percentile({7.0}, 99), 7.0);
  const std::vector<double> V = {4, 1, 3, 2, 5}; // unsorted on purpose
  EXPECT_DOUBLE_EQ(percentile(V, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(V, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(V, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(V, 90), 4.6); // rank 3.6
  EXPECT_DOUBLE_EQ(median({1, 2, 3, 10}), 2.5);
}

TEST(BlockRate, MedianOfBlockThroughputs) {
  EXPECT_EQ(blockRate({}), 0.0);
  // Ten blocks of two 1 ms ops (1000/s) and one block with a 100 ms stall.
  std::vector<double> OpMs(22, 1.0);
  OpMs[21] = 100.0;
  EXPECT_DOUBLE_EQ(blockRate(OpMs, 11), 1000.0);
  EXPECT_DOUBLE_EQ(blockRate({2.0, 2.0, 2.0}, 10), 500.0); // fewer ops
}

TEST(SpeedTrack, ReadsEachOpAgainstTheProbesAroundIt) {
  SpeedTrack T;
  EXPECT_TRUE(T.relative({1.0, 2.0}).empty()); // no probe yet
  // The host runs at half speed (2 ms probes) for ops 0-3 and at full speed
  // (1 ms probes) for ops 4-7; a probe is taken after every op.
  const std::vector<double> OpMs = {4, 4, 4, 4, 2, 2, 2, 2};
  for (std::size_t I = 0; I < OpMs.size(); ++I)
    T.record(I < 4 ? 2.0 : 1.0, I + 1);
  const std::vector<double> Rel = T.relative(OpMs, 3);
  ASSERT_EQ(Rel.size(), OpMs.size());
  EXPECT_DOUBLE_EQ(Rel[0], 2.0); // probes 0-2
  EXPECT_DOUBLE_EQ(Rel[2], 2.0); // probes 1-3
  EXPECT_DOUBLE_EQ(Rel[5], 2.0); // probes 4-6
  EXPECT_DOUBLE_EQ(Rel[7], 2.0); // probes 5-7, clamped at the end
  // A window that spans the speed change takes the probes' median.
  EXPECT_DOUBLE_EQ(Rel[3], 4.0 / 2.0); // probes 2-4: 2, 2, 1
  EXPECT_DOUBLE_EQ(Rel[4], 2.0 / 1.0); // probes 3-5: 2, 1, 1
  // Fewer probes than asked for: all of them.
  SpeedTrack One;
  One.record(0.5, 0);
  EXPECT_EQ(One.relative({1.0, 3.0}), (std::vector<double>{2.0, 6.0}));
}

TEST(SpeedTrack, ProbesAtMostOncePerInterval) {
  EXPECT_GT(referenceWorkMs(), 0.0);
  SpeedTrack T;
  T.maybeProbe(0, 1e6);
  T.maybeProbe(1, 1e6); // within the interval: skipped
  T.maybeProbe(2, 0.0);
  ASSERT_EQ(T.probeMs().size(), 2u);
  EXPECT_GT(T.probeMs()[0], 0.0);
}

namespace {

Span span(std::int64_t Start, std::int64_t End, std::int64_t Parent) {
  Span S;
  S.Name = "s";
  S.StartNs = Start;
  S.EndNs = End;
  S.Parent = Parent;
  return S;
}

} // namespace

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  const std::vector<Span> Spans = {
      span(0, 100, -1), // root
      span(10, 40, 0),  // child
      span(30, 60, 0),  // overlaps the first child (another thread)
      span(90, 120, 0), // runs past the parent: clipped at 100
      span(15, 20, 1),  // grandchild
  };
  const std::vector<std::int64_t> Self = selfTimesNs(Spans);
  EXPECT_EQ(Self[0], 100 - (60 - 10) - (100 - 90));
  EXPECT_EQ(Self[1], 30 - 5);
  EXPECT_EQ(Self[2], 30);
  EXPECT_EQ(Self[4], 5);
}

TEST(SelfTime, OpenSpansAndLeavesAreHandled) {
  const std::vector<Span> Spans = {span(0, -1, -1), span(5, 9, 0)};
  const std::vector<std::int64_t> Self = selfTimesNs(Spans);
  EXPECT_EQ(Self[0], 0);
  EXPECT_EQ(Self[1], 4);
}

TEST(SpanRecorder, NestsPerThreadAndInheritsRequestIds) {
  SpanRecorder &R = SpanRecorder::global();
  R.clear();
  {
    ScopedSpan Off("off"); // recorder disabled: nothing recorded
  }
  EXPECT_TRUE(R.spans().empty());
  R.setEnabled(true);
  {
    ScopedSpan Outer("outer", 42);
    { ScopedSpan Inner("inner"); }
    std::thread([] { ScopedSpan Other("other"); }).join();
  }
  R.setEnabled(false);
  const std::vector<Span> S = R.spans();
  ASSERT_EQ(S.size(), 3u);
  EXPECT_EQ(S[0].Name, "outer");
  EXPECT_EQ(S[1].Parent, 0);
  EXPECT_EQ(S[1].Request, 42u);
  EXPECT_EQ(S[2].Parent, -1); // another thread starts its own tree
  EXPECT_NE(S[2].Tid, S[0].Tid);
  EXPECT_LE(S[0].StartNs, S[1].StartNs);
  EXPECT_GE(S[0].EndNs, S[1].EndNs);

  std::ostringstream OS;
  writeChromeTrace(OS, S);
  const std::string Json = OS.str();
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  R.clear();
}

TEST(OpenLoopSchedule, DueTimesAndLateness) {
  const Clock::time_point T0{};
  const OpenLoopSchedule S(T0, 1000.0); // one request per millisecond
  EXPECT_EQ(S.due(0), T0);
  EXPECT_EQ(S.due(5), T0 + std::chrono::milliseconds(5));
  EXPECT_EQ(S.due(2500), T0 + std::chrono::milliseconds(2500));
  // A send is late by how far it trails its due time; early sends are 0.
  EXPECT_DOUBLE_EQ(S.latenessMicros(2, T0 + std::chrono::microseconds(2250)),
                   250.0);
  EXPECT_DOUBLE_EQ(S.latenessMicros(2, T0 + std::chrono::microseconds(1900)),
                   0.0);
}

TEST(ResultLine, HasTheFourKeysAndExactNumbers) {
  OpTally Ops;
  Ops.Attempted = 3;
  MetricSet M;
  M.set("op_p50_ms", 0.1, "ms");
  M.set("setup_s", 1.0 / 3.0, "s");
  EXPECT_EQ(resultJson(Ops, M),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"op_p50_ms\": {\"value\": 0.1, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.3333333333333333, \"unit\": "
            "\"s\"}}}");
  Ops.fail("wrong");
  EXPECT_NE(resultJson(Ops, M).find("\"correct\": false"), std::string::npos);
}
