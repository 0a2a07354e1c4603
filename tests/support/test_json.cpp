//===- tests/support/test_json.cpp - support::json value model & parser ----===//
#include "support/Json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace codesign::json {
namespace {

TEST(Json, ScalarKindsAndAccessors) {
  EXPECT_TRUE(Value().isNull());
  EXPECT_TRUE(Value(nullptr).isNull());
  EXPECT_TRUE(Value(true).asBool());
  EXPECT_DOUBLE_EQ(Value(2.5).asDouble(), 2.5);
  EXPECT_EQ(Value(std::int64_t(-7)).asInt(), -7);
  EXPECT_EQ(Value(std::uint64_t(7)).asUInt(), 7u);
  EXPECT_EQ(Value("hi").asString(), "hi");
  EXPECT_EQ(Value("hi").find("hi"), nullptr) << "only objects have keys";
  auto Empty = parse(" [ ] ");
  ASSERT_TRUE(Empty.hasValue());
  EXPECT_TRUE(Empty->isArray());
  EXPECT_EQ(Empty->size(), 0u);
}

TEST(Json, IntegersRoundTripExactly) {
  // Doubles lose integers above 2^53; the value model must not.
  const std::uint64_t Big = 0xFFFFFFFFFFFFFFFFULL;
  EXPECT_EQ(Value(Big).dump(), "18446744073709551615");
  const std::int64_t Neg = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(Value(Neg).dump(), "-9223372036854775808");

  auto Parsed = parse("18446744073709551615");
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error().message();
  EXPECT_EQ(Parsed->asUInt(), Big);
  auto ParsedNeg = parse("-9223372036854775808");
  ASSERT_TRUE(ParsedNeg.hasValue());
  EXPECT_EQ(ParsedNeg->asInt(), Neg);
}

TEST(Json, ObjectsPreserveInsertionOrderAndReplaceInPlace) {
  Value O = Value::object();
  O.set("z", Value(1));
  O.set("a", Value(2));
  O.set("z", Value(3)); // replace, not append
  EXPECT_EQ(O.dump(), "{\"z\":3,\"a\":2}");
  ASSERT_NE(O.find("a"), nullptr);
  EXPECT_EQ(O.find("a")->asInt(), 2);
  EXPECT_EQ(O.find("missing"), nullptr);
  EXPECT_TRUE(O.has("z"));
}

TEST(Json, EscapesControlAndQuoteCharacters) {
  Value V(std::string("a\"b\\c\n\t\x01"));
  EXPECT_EQ(V.dump(), "\"a\\\"b\\\\c\\n\\t\\u0001\"");
  auto Back = parse(V.dump());
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(Back->asString(), "a\"b\\c\n\t\x01");
}

TEST(Json, PrettyPrintIndents) {
  Value O = Value::object();
  O.set("k", Value::array());
  O.set("n", Value(1));
  EXPECT_EQ(O.dump(2), "{\n  \"k\": [],\n  \"n\": 1\n}");
}

TEST(Json, ParseRoundTripsNestedDocument) {
  const char *Text = R"({"schema":"codesign-bench/1","rows":[{"name":"r0",)"
                     R"("ok":true,"cycles":123},{"name":"r1","x":-4.5}],)"
                     R"("none":null})";
  auto Doc = parse(Text);
  ASSERT_TRUE(Doc.hasValue()) << Doc.error().message();
  EXPECT_EQ(Doc->dump(), Text);
  const Value *Rows = Doc->find("rows");
  ASSERT_NE(Rows, nullptr);
  ASSERT_EQ(Rows->size(), 2u);
  EXPECT_EQ(Rows->at(0).find("cycles")->asUInt(), 123u);
  EXPECT_TRUE(Doc->find("none")->isNull());
}

TEST(Json, ParseRejectsMalformedInput) {
  for (const char *Bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\" 1}", "nul", "\"\\"})
    EXPECT_FALSE(parse(Bad).hasValue()) << "accepted: " << Bad;
}

TEST(Json, ParseUnicodeEscapes) {
  auto V = parse("\"\\u00e9\\u0041\"");
  ASSERT_TRUE(V.hasValue());
  EXPECT_EQ(V->asString(), "\xc3\xa9"
                           "A");
}

TEST(Json, EveryEscapeAndExponentRoundTrips) {
  auto V = parse("[\"\\b\\f\\r\\/\\u20AC\", 1.5e3, -2E-1, 7e+0]");
  ASSERT_TRUE(V.hasValue()) << V.error().message();
  EXPECT_EQ(V->at(0).asString(), "\b\f\r/\xe2\x82\xac");
  EXPECT_DOUBLE_EQ(V->at(1).asDouble(), 1500.0);
  EXPECT_DOUBLE_EQ(V->at(2).asDouble(), -0.2);
  EXPECT_DOUBLE_EQ(V->at(3).asDouble(), 7.0);
  EXPECT_EQ(Value(std::string("\b\f\r")).dump(), "\"\\b\\f\\r\"");
}

TEST(Json, ParseNamesWhatIsMalformed) {
  // Outside input (BENCH files, committed results): each error path says
  // what it expected.
  const std::pair<const char *, const char *> Cases[] = {
      {"{\"a\":1 \"b\":2}", "expected ',' or '}' in object"},
      {"[1 2]", "expected ',' or ']' in array"},
      {"{\"\\q\":1}", "unknown escape"},
      {"\"\\u12\"", "truncated \\u escape"},
      {"\"\\u12G4\"", "bad hex digit in \\u escape"},
      {"-", "malformed number"},
      {"1e", "malformed number"},
  };
  for (const auto &[Text, Want] : Cases) {
    auto V = parse(Text);
    ASSERT_FALSE(V.hasValue()) << "accepted: " << Text;
    EXPECT_NE(V.error().message().find(Want), std::string::npos)
        << Text << ": " << V.error().message();
  }
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
}

} // namespace
} // namespace codesign::json
