//===- tests/support/test_trace.cpp - Structured-event tracer --------------===//
#include "support/Trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/Json.hpp"

namespace codesign::trace {
namespace {

class TraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    Tracer::global().setEnabled(false);
    Tracer::global().clear();
  }
  void TearDown() override {
    Tracer::global().setEnabled(false);
    Tracer::global().clear();
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  Tracer &T = Tracer::global();
  ASSERT_FALSE(T.enabled());
  T.instant("test", "ignored");
  T.span("test", "ignored", 5);
  T.counter("test", "ignored", 1);
  { ScopedSpan S("test", "ignored"); S.field("k", 1); }
  EXPECT_EQ(T.size(), 0u);
}

TEST_F(TraceTest, RecordsEventsInOrderWithSequenceNumbers) {
  Tracer &T = Tracer::global();
  T.setEnabled(true);
  T.instant("cat", "first", {{"x", 1}});
  T.span("cat", "second", 42, {{"y", 2}});
  T.counter("cat", "third", 7);
  const auto Events = T.events();
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_EQ(Events[0].Kind, EventKind::Instant);
  EXPECT_EQ(Events[0].Name, "first");
  EXPECT_EQ(Events[1].Kind, EventKind::Span);
  EXPECT_EQ(Events[1].DurationMicros, 42u);
  EXPECT_EQ(Events[2].Kind, EventKind::Counter);
  EXPECT_EQ(Events[0].Seq + 1, Events[1].Seq);
  EXPECT_EQ(Events[1].Seq + 1, Events[2].Seq);
}

TEST_F(TraceTest, ScopedSpanCapturesEnabledAtConstruction) {
  Tracer &T = Tracer::global();
  T.setEnabled(true);
  {
    ScopedSpan S("cat", "work");
    S.field("items", 10);
    // Disabling mid-span must not lose the already-open span.
    T.setEnabled(false);
  }
  const auto Events = T.events();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Name, "work");
  ASSERT_EQ(Events[0].Fields.size(), 1u);
  EXPECT_EQ(Events[0].Fields[0].first, "items");
  EXPECT_EQ(Events[0].Fields[0].second, 10u);
}

TEST_F(TraceTest, DrainEmitsOneValidJsonObjectPerLineAndClears) {
  Tracer &T = Tracer::global();
  T.setEnabled(true);
  T.instant("opt", "kernel-cache.hit");
  T.span("frontend", "codegen", 17, {{"insts", 123}});
  T.counter("vgpu", "teams", 4);
  std::ostringstream OS;
  T.drain(OS);
  EXPECT_EQ(T.size(), 0u);

  std::istringstream In(OS.str());
  std::string Line;
  std::vector<std::string> Kinds;
  while (std::getline(In, Line)) {
    auto Doc = json::parse(Line);
    ASSERT_TRUE(Doc.hasValue()) << "not JSON: " << Line;
    ASSERT_TRUE(Doc->isObject());
    EXPECT_TRUE(Doc->has("seq"));
    ASSERT_TRUE(Doc->has("kind"));
    EXPECT_TRUE(Doc->has("cat"));
    EXPECT_TRUE(Doc->has("name"));
    Kinds.push_back(Doc->find("kind")->asString());
  }
  EXPECT_EQ(Kinds, (std::vector<std::string>{"instant", "span", "counter"}));
}

TEST_F(TraceTest, TenantScopeStampsAndRestores) {
  Tracer &T = Tracer::global();
  T.setEnabled(true);
  ASSERT_EQ(threadTenant(), "");
  T.instant("svc", "untagged");
  {
    TenantScope Outer("alice");
    EXPECT_EQ(threadTenant(), "alice");
    T.instant("svc", "outer");
    {
      TenantScope Inner("bob");
      EXPECT_EQ(threadTenant(), "bob");
      T.instant("svc", "inner");
    }
    EXPECT_EQ(threadTenant(), "alice") << "inner scope must restore";
    T.instant("svc", "outer-again");
  }
  EXPECT_EQ(threadTenant(), "") << "outer scope must restore";
  const auto Events = T.events();
  ASSERT_EQ(Events.size(), 4u);
  EXPECT_EQ(Events[0].Tenant, "");
  EXPECT_EQ(Events[1].Tenant, "alice");
  EXPECT_EQ(Events[2].Tenant, "bob");
  EXPECT_EQ(Events[3].Tenant, "alice");
}

TEST_F(TraceTest, EventsForTenantFiltersOtherTenants) {
  Tracer &T = Tracer::global();
  T.setEnabled(true);
  {
    TenantScope S("alice");
    T.instant("svc", "a1");
    T.span("svc", "a2", 7);
  }
  {
    TenantScope S("bob");
    T.instant("svc", "b1");
  }
  T.instant("svc", "nobody");
  const auto Alice = T.eventsForTenant("alice");
  ASSERT_EQ(Alice.size(), 2u);
  EXPECT_EQ(Alice[0].Name, "a1");
  EXPECT_EQ(Alice[1].Name, "a2");
  EXPECT_EQ(T.eventsForTenant("bob").size(), 1u);
  EXPECT_EQ(T.eventsForTenant("carol").size(), 0u);
  // The untagged event belongs to the empty tenant.
  EXPECT_EQ(T.eventsForTenant("").size(), 1u);
}

TEST_F(TraceTest, TenantTagsAreThreadLocal) {
  Tracer &T = Tracer::global();
  T.setEnabled(true);
  std::thread Other([&] {
    TenantScope S("worker");
    T.instant("svc", "from-worker");
  });
  Other.join();
  EXPECT_EQ(threadTenant(), "") << "another thread's scope must not leak";
  const auto Events = T.eventsForTenant("worker");
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Name, "from-worker");
}

TEST_F(TraceTest, DrainEmitsTenantFieldOnlyWhenTagged) {
  Tracer &T = Tracer::global();
  T.setEnabled(true);
  T.instant("svc", "untagged");
  {
    TenantScope S("alice");
    T.instant("svc", "tagged");
  }
  std::ostringstream OS;
  T.drain(OS);
  std::istringstream In(OS.str());
  std::string Line;
  ASSERT_TRUE(std::getline(In, Line));
  auto First = json::parse(Line);
  ASSERT_TRUE(First.hasValue());
  EXPECT_FALSE(First->has("tenant"));
  ASSERT_TRUE(std::getline(In, Line));
  auto Second = json::parse(Line);
  ASSERT_TRUE(Second.hasValue());
  ASSERT_TRUE(Second->has("tenant"));
  EXPECT_EQ(Second->find("tenant")->asString(), "alice");
}

} // namespace
} // namespace codesign::trace
