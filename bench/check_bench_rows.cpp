//===- bench/check_bench_rows.cpp - Compare a report with committed rows ---===//
//
// Checks that a bench run reproduces a committed report of the same figure
// (bench/results): every committed row must appear in the new report under
// the same name with equal ok, verified, cycles, regs, smem_bytes and
// output_hash, and the new report may hold no other row. Wall-clock and
// compile-time fields are not compared. Used by the bench-rows ctest
// label; exits non-zero naming every difference.
//
//   ./check_bench_rows COMMITTED.json PRODUCED.json
//
//===----------------------------------------------------------------------===//
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "support/Json.hpp"

namespace {

using codesign::Expected;
using codesign::makeError;
using codesign::json::Value;

constexpr const char *Fields[] = {"ok",   "verified",   "cycles",
                                  "regs", "smem_bytes", "output_hash"};

/// The report's rows by name. An unreadable report, one without rows, or a
/// repeated row name is an error.
Expected<std::map<std::string, Value>> loadRows(const std::string &File) {
  std::ifstream In(File);
  if (!In)
    return makeError(File, ": cannot open file");
  std::ostringstream Buf;
  Buf << In.rdbuf();
  auto Doc = codesign::json::parse(Buf.str());
  if (!Doc)
    return makeError(File, ": ", Doc.error().message());
  const Value *Rows = Doc->isObject() ? Doc->find("rows") : nullptr;
  if (!Rows || !Rows->isArray() || Rows->size() == 0)
    return makeError(File, ": no \"rows\" array with rows in it");
  std::map<std::string, Value> Out;
  for (const Value &Row : Rows->elements()) {
    const Value *Name = Row.isObject() ? Row.find("name") : nullptr;
    if (!Name || !Name->isString())
      return makeError(File, ": row without a \"name\" string");
    if (!Out.emplace(Name->asString(), Row).second)
      return makeError(File, ": row \"", Name->asString(), "\" repeats");
  }
  return Out;
}

std::string field(const Value &Row, const char *Key) {
  const Value *V = Row.find(Key);
  return V ? V->dump() : "(missing)";
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 3) {
    std::fprintf(stderr, "usage: %s COMMITTED.json PRODUCED.json\n", Argv[0]);
    return 2;
  }
  auto Committed = loadRows(Argv[1]);
  auto Produced = loadRows(Argv[2]);
  for (const auto *Loaded : {&Committed, &Produced})
    if (!*Loaded) {
      std::fprintf(stderr, "%s\n", Loaded->error().message().c_str());
      return 1;
    }
  unsigned Diffs = 0;
  for (const auto &[Name, Row] : *Committed) {
    const auto It = Produced->find(Name);
    if (It == Produced->end()) {
      std::fprintf(stderr, "%s: row missing\n", Name.c_str());
      ++Diffs;
      continue;
    }
    for (const char *F : Fields) {
      const std::string Want = field(Row, F), Got = field(It->second, F);
      if (Want != Got) {
        std::fprintf(stderr, "%s: %s is %s, committed %s\n", Name.c_str(), F,
                     Got.c_str(), Want.c_str());
        ++Diffs;
      }
    }
  }
  for (const auto &[Name, Row] : *Produced)
    if (!Committed->count(Name)) {
      std::fprintf(stderr, "%s: row not in the committed report\n",
                   Name.c_str());
      ++Diffs;
    }
  if (Diffs) {
    std::fprintf(stderr, "%u difference(s) from %s\n", Diffs, Argv[1]);
    return 1;
  }
  std::printf("%zu rows match %s\n", Committed->size(), Argv[1]);
  return 0;
}
