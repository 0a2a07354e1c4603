//===- bench/validate_bench_json.cpp - BENCH_*.json schema checker ---------===//
//
// Validates one or more bench report files against the "codesign-bench/1"
// schema (see BenchReport.hpp): the document must be an object with
// schema/bench/rows, every row must be an object carrying a "name" string,
// and the counter sections, when present, must be objects. Used by the
// bench-smoke ctest label; exits non-zero naming the first violation.
//
//   ./validate_bench_json BENCH_fig1_feature_pruning.json [...]
//
//===----------------------------------------------------------------------===//
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "support/Json.hpp"

namespace {

using codesign::json::Value;

bool fail(const std::string &File, const char *What) {
  std::fprintf(stderr, "%s: INVALID: %s\n", File.c_str(), What);
  return false;
}

bool validate(const std::string &File) {
  std::ifstream In(File);
  if (!In)
    return fail(File, "cannot open file");
  std::ostringstream Buf;
  Buf << In.rdbuf();
  auto Doc = codesign::json::parse(Buf.str());
  if (!Doc)
    return fail(File, Doc.error().message().c_str());
  if (!Doc->isObject())
    return fail(File, "document is not an object");
  const Value *Schema = Doc->find("schema");
  if (!Schema || !Schema->isString() ||
      Schema->asString() != "codesign-bench/1")
    return fail(File, "missing or wrong \"schema\" (want codesign-bench/1)");
  const Value *Bench = Doc->find("bench");
  if (!Bench || !Bench->isString() || Bench->asString().empty())
    return fail(File, "missing \"bench\" name");
  const Value *Rows = Doc->find("rows");
  if (!Rows || !Rows->isArray())
    return fail(File, "missing \"rows\" array");
  if (Rows->size() == 0)
    return fail(File, "\"rows\" is empty — the bench produced no results");
  for (const Value &Row : Rows->elements()) {
    if (!Row.isObject())
      return fail(File, "row is not an object");
    const Value *Name = Row.find("name");
    if (!Name || !Name->isString() || Name->asString().empty())
      return fail(File, "row without a \"name\" string");
    // Every successful app run must say which execution backend produced
    // it — results from different backends are only comparable when the
    // file records which one ran (tree interpreter, bytecode tier, or the
    // native codegen backend).
    const Value *App = Row.find("app");
    const Value *Ok = Row.find("ok");
    if (App && App->isString() && Ok && Ok->isBool() && Ok->asBool()) {
      const Value *Backend = Row.find("backend");
      if (!Backend || !Backend->isString())
        return fail(File, "app row without a \"backend\" string");
      const std::string &B = Backend->asString();
      if (B != "tree" && B != "bytecode" && B != "native")
        return fail(File,
                    "row \"backend\" is not one of tree|bytecode|native");
    }
  }
  for (const char *Section : {"config", "pass_timings", "kernel_cache",
                              "analysis_cache", "lint", "transfers",
                              "counters"}) {
    const Value *S = Doc->find(Section);
    if (S && !S->isObject())
      return fail(File, "section is present but not an object");
  }
  // The lint section, when present, holds only opt.lint.* counters.
  if (const Value *Lint = Doc->find("lint"))
    for (const auto &[Key, Val] : Lint->members()) {
      if (Key.rfind("opt.lint.", 0) != 0)
        return fail(File, "\"lint\" entry without the opt.lint. prefix");
      if (!Val.isNumber())
        return fail(File, "\"lint\" entry is not a number");
    }
  // The transfers section, when present, holds only host.transfer.*
  // counters (the data-mapping engine's h2d/d2h traffic accounting).
  if (const Value *Transfers = Doc->find("transfers"))
    for (const auto &[Key, Val] : Transfers->members()) {
      if (Key.rfind("host.transfer.", 0) != 0)
        return fail(File,
                    "\"transfers\" entry without the host.transfer. prefix");
      if (!Val.isNumber())
        return fail(File, "\"transfers\" entry is not a number");
    }
  // Per-row launch profiles may carry a "transfers" object; when they do,
  // the byte/transfer counts must be numeric and self-consistent (bytes
  // moved imply at least one transfer in that direction).
  for (const Value &Row : Rows->elements()) {
    const Value *Profile = Row.find("profile");
    if (!Profile)
      continue;
    const Value *T = Profile->find("transfers");
    if (!T)
      continue;
    if (!T->isObject())
      return fail(File, "row profile \"transfers\" is not an object");
    for (const char *TF : {"h2d_transfers", "d2h_transfers", "h2d_bytes",
                           "d2h_bytes", "modeled_cycles"}) {
      const Value *V = T->find(TF);
      if (!V || !V->isNumber())
        return fail(File, "row profile \"transfers\" missing a counter");
    }
    if (T->find("h2d_bytes")->asDouble() > 0 &&
        T->find("h2d_transfers")->asDouble() == 0)
      return fail(File, "row moved h2d bytes with zero h2d transfers");
    if (T->find("d2h_bytes")->asDouble() > 0 &&
        T->find("d2h_transfers")->asDouble() == 0)
      return fail(File, "row moved d2h bytes with zero d2h transfers");
  }
  // The service section (soak_service): throughput, latency percentiles,
  // queue health and cache stats must all be present and typed.
  if (const Value *Svc = Doc->find("service")) {
    if (!Svc->isObject())
      return fail(File, "\"service\" is present but not an object");
    for (const char *Num : {"clients", "requests", "throughput_rps"}) {
      const Value *V = Svc->find(Num);
      if (!V || !V->isNumber())
        return fail(File, "\"service\" missing a numeric scalar field");
    }
    const Value *Latency = Svc->find("latency_us");
    if (!Latency || !Latency->isObject())
      return fail(File, "\"service\" missing the \"latency_us\" object");
    for (const char *P : {"p50", "p95", "p99", "mean", "count"}) {
      const Value *V = Latency->find(P);
      if (!V || !V->isNumber())
        return fail(File, "\"service.latency_us\" missing a percentile");
    }
    const Value *Queue = Svc->find("queue");
    if (!Queue || !Queue->isObject())
      return fail(File, "\"service\" missing the \"queue\" object");
    for (const char *Q : {"peak_depth", "mean_depth", "enqueued", "rejected"}) {
      const Value *V = Queue->find(Q);
      if (!V || !V->isNumber())
        return fail(File, "\"service.queue\" missing a depth statistic");
    }
    const Value *Cache = Svc->find("cache");
    if (!Cache || !Cache->isObject())
      return fail(File, "\"service\" missing the \"cache\" object");
    for (const char *CF :
         {"distinct_kernels", "misses", "hits", "coalesced", "entries"}) {
      const Value *V = Cache->find(CF);
      if (!V || !V->isNumber())
        return fail(File, "\"service.cache\" missing a counter");
    }
    const Value *Flight = Cache->find("single_flight_ok");
    if (!Flight || !Flight->isBool())
      return fail(File, "\"service.cache\" missing \"single_flight_ok\"");
  }
  std::printf("%s: ok (%zu rows)\n", File.c_str(), Rows->size());
  return true;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s BENCH_<name>.json...\n", argv[0]);
    return 2;
  }
  bool AllOk = true;
  for (int I = 1; I < argc; ++I)
    AllOk &= validate(argv[I]);
  return AllOk ? 0 : 1;
}
