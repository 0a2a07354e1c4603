#include "Harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sys/resource.h>
#include <thread>

namespace perfbench {

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const double Rank =
      std::clamp(P, 0.0, 100.0) / 100.0 * static_cast<double>(V.size() - 1);
  const auto Lo = static_cast<std::size_t>(std::floor(Rank));
  const std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  const double Frac = Rank - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double blockRate(const std::vector<double> &OpMs, std::size_t Blocks) {
  Blocks = std::min(Blocks, OpMs.size());
  if (Blocks == 0)
    return 0.0;
  const std::size_t PerBlock = OpMs.size() / Blocks;
  std::vector<double> Rates;
  for (std::size_t B = 0; B < Blocks; ++B) {
    double Ms = 0;
    for (std::size_t I = B * PerBlock; I < (B + 1) * PerBlock; ++I)
      Ms += OpMs[I];
    Rates.push_back(static_cast<double>(PerBlock) * 1e3 / Ms);
  }
  return median(std::move(Rates));
}

//===----------------------------------------------------------------------===//
// Host speed reference
//===----------------------------------------------------------------------===//

double referenceWorkMs() {
  static volatile std::uint64_t Sink = 0;
  const auto T0 = Clock::now();
  std::uint64_t X = 0x9E3779B97F4A7C15ULL, Sum = 0;
  std::map<std::uint64_t, std::uint64_t> M;
  std::vector<std::uint64_t> V;
  V.reserve(4096);
  for (int I = 0; I < 4096; ++I) {
    X ^= X << 13; // xorshift64
    X ^= X >> 7;
    X ^= X << 17;
    M[X % 2048] += X;
    V.push_back(X);
  }
  std::sort(V.begin(), V.end());
  for (const auto &[K, Val] : M)
    Sum += K ^ Val;
  Sink = Sink + Sum + V[V.size() / 2];
  return microsBetween(T0, Clock::now()) / 1e3;
}

void SpeedTrack::maybeProbe(std::size_t OpsDone, double IntervalMs) {
  const auto Now = Clock::now();
  if (!ProbeMs.empty() && microsBetween(Last, Now) < IntervalMs * 1e3)
    return;
  record(std::min({referenceWorkMs(), referenceWorkMs(), referenceWorkMs()}),
         OpsDone);
  Last = Clock::now();
}

void SpeedTrack::record(double Ms, std::size_t OpsDone) {
  ProbeMs.push_back(Ms);
  ProbeAt.push_back(OpsDone);
}

std::vector<double> SpeedTrack::relative(const std::vector<double> &OpMs,
                                         std::size_t Nearest) const {
  std::vector<double> Rel;
  if (ProbeMs.empty())
    return Rel;
  Nearest = std::min(Nearest, ProbeMs.size());
  Rel.reserve(OpMs.size());
  std::size_t P = 0; // first probe taken after op I started
  for (std::size_t I = 0; I < OpMs.size(); ++I) {
    while (P < ProbeAt.size() && ProbeAt[P] <= I)
      ++P;
    // The Nearest probes centred on the gap the op ran in.
    const std::size_t Lo =
        std::min(P >= Nearest / 2 ? P - Nearest / 2 : 0,
                 ProbeMs.size() - Nearest);
    const auto First = ProbeMs.begin() + static_cast<std::ptrdiff_t>(Lo);
    Rel.push_back(OpMs[I] / median(std::vector<double>(
                                First, First + static_cast<std::ptrdiff_t>(
                                                   Nearest))));
  }
  return Rel;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {

/// The calling thread's innermost open span (-1 when none).
thread_local std::int64_t CurrentSpan = -1;

std::uint32_t threadIndex() {
  static std::mutex M;
  static std::map<std::thread::id, std::uint32_t> Ids;
  thread_local std::uint32_t Mine = [] {
    std::lock_guard<std::mutex> Lock(M);
    return Ids.emplace(std::this_thread::get_id(),
                       static_cast<std::uint32_t>(Ids.size()))
        .first->second;
  }();
  return Mine;
}

} // namespace

SpanRecorder &SpanRecorder::global() {
  static SpanRecorder R;
  return R;
}

std::int64_t SpanRecorder::begin(std::string_view Name,
                                 std::uint64_t Request) {
  const std::int64_t Start = nanosSinceEpoch(Clock::now());
  const std::uint32_t Tid = threadIndex();
  std::lock_guard<std::mutex> Lock(Mutex);
  Span S;
  S.Name = std::string(Name);
  S.StartNs = Start;
  S.Parent = CurrentSpan;
  S.Request = Request != 0 || CurrentSpan < 0 ? Request
                                              : Spans[CurrentSpan].Request;
  S.Tid = Tid;
  Spans.push_back(std::move(S));
  CurrentSpan = static_cast<std::int64_t>(Spans.size()) - 1;
  return CurrentSpan;
}

void SpanRecorder::end(std::int64_t Id) {
  const std::int64_t End = nanosSinceEpoch(Clock::now());
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[Id].EndNs = End;
  CurrentSpan = Spans[Id].Parent;
}

void SpanRecorder::add(std::string_view Name, Clock::time_point Start,
                       Clock::time_point End, std::uint64_t Request) {
  Span S;
  S.Name = std::string(Name);
  S.StartNs = nanosSinceEpoch(Start);
  S.EndNs = nanosSinceEpoch(End);
  S.Parent = CurrentSpan;
  S.Request = Request;
  S.Tid = threadIndex();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(std::move(S));
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans;
}

void SpanRecorder::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.clear();
  CurrentSpan = -1;
}

std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> Children(
      Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0 && S.EndNs >= 0)
      Children[S.Parent].emplace_back(S.StartNs, S.EndNs);
  std::vector<std::int64_t> Self(Spans.size(), 0);
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &P = Spans[I];
    if (P.EndNs < 0)
      continue;
    auto &C = Children[I];
    std::sort(C.begin(), C.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t Covered = 0, RunLo = 0, RunHi = -1;
    for (auto [Lo, Hi] : C) {
      Lo = std::max(Lo, P.StartNs);
      Hi = std::min(Hi, P.EndNs);
      if (Hi <= Lo)
        continue;
      if (Lo > RunHi) {
        if (RunHi > RunLo)
          Covered += RunHi - RunLo;
        RunLo = Lo;
        RunHi = Hi;
      } else {
        RunHi = std::max(RunHi, Hi);
      }
    }
    if (RunHi > RunLo)
      Covered += RunHi - RunLo;
    Self[I] = P.durationNs() - Covered;
  }
  return Self;
}

namespace {

void writeJsonString(std::ostream &OS, std::string_view S) {
  OS << '"';
  for (char C : S) {
    if (C == '"' || C == '\\')
      OS << '\\' << C;
    else if (static_cast<unsigned char>(C) < 0x20)
      OS << ' ';
    else
      OS << C;
  }
  OS << '"';
}

/// Shortest decimal text that reads back as exactly V.
std::string exactNumber(double V) {
  char Buf[64];
  for (int Digits = 15; Digits <= 17; ++Digits) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Digits, V);
    if (std::strtod(Buf, nullptr) == V)
      break;
  }
  return Buf;
}

} // namespace

void writeChromeTrace(std::ostream &OS, const std::vector<Span> &Spans) {
  const std::vector<std::int64_t> Self = selfTimesNs(Spans);
  OS << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool First = true;
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.EndNs < 0)
      continue;
    OS << (First ? "\n" : ",\n");
    First = false;
    OS << "{\"name\":";
    writeJsonString(OS, S.Name);
    OS << ",\"cat\":";
    writeJsonString(OS, S.Name.substr(0, S.Name.find('.')));
    OS << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << S.Tid
       << ",\"ts\":" << exactNumber(static_cast<double>(S.StartNs) / 1e3)
       << ",\"dur\":" << exactNumber(static_cast<double>(S.durationNs()) / 1e3)
       << ",\"args\":{\"id\":" << I << ",\"parent\":" << S.Parent
       << ",\"req\":" << S.Request
       << ",\"self_us\":" << exactNumber(static_cast<double>(Self[I]) / 1e3)
       << "}}";
  }
  OS << "\n]}\n";
}

//===----------------------------------------------------------------------===//
// Open-loop schedule
//===----------------------------------------------------------------------===//

double OpenLoopSchedule::latenessMicros(std::uint64_t I,
                                        Clock::time_point SentAt) const {
  return std::max(0.0, microsBetween(due(I), SentAt));
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

void MetricSet::set(const std::string &Name, double Value,
                    const std::string &Unit) {
  if (!Values.count(Name))
    Order.push_back(Name);
  Values[Name] = {Value, Unit};
}

std::string resultJson(const OpTally &Ops, const MetricSet &Metrics) {
  std::string Out = "{\"correct\": ";
  Out += Ops.Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Ops.Attempted);
  Out += ", \"failed\": " + std::to_string(Ops.Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  for (const std::string &Name : Metrics.names()) {
    const double V = Metrics.value(Name);
    Out += First ? "" : ", ";
    First = false;
    Out += "\"" + Name + "\": {\"value\": ";
    Out += std::isfinite(V) ? exactNumber(V) : "null";
    Out += ", \"unit\": \"" + Metrics.unit(Name) + "\"}";
  }
  Out += "}}";
  return Out;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

} // namespace perfbench
