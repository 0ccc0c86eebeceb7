#include "span_log.h"

#include <gtest/gtest.h>

#include <thread>

namespace perfbench {
namespace {

constexpr std::uint64_t kMs = 1000000;

TEST(SpanLog, SelfTimeSubtractsDirectChildren) {
  SpanLog log;
  log.set_enabled(true);
  // root [0, 100) holds a [10, 40) which holds b [20, 30); c [50, 90).
  log.add("root", 0, 100 * kMs);
  log.add("a", 10 * kMs, 40 * kMs);
  log.add("b", 20 * kMs, 30 * kMs);
  log.add("c", 50 * kMs, 90 * kMs);
  const auto self = log.self_seconds();
  EXPECT_NEAR(self.at("root"), 0.030, 1e-12);
  EXPECT_NEAR(self.at("a"), 0.020, 1e-12);
  EXPECT_NEAR(self.at("b"), 0.010, 1e-12);
  EXPECT_NEAR(self.at("c"), 0.040, 1e-12);
  // Direct children a and c cover 70 of root's 100 ms.
  EXPECT_NEAR(log.unattributed_fraction({"root"}), 0.30, 1e-12);
  EXPECT_DOUBLE_EQ(log.unattributed_fraction({"missing"}), 0.0);
}

TEST(SpanLog, SpansOfOtherThreadsAreNotChildren) {
  SpanLog log;
  log.set_enabled(true);
  log.add("root", 0, 100 * kMs);
  std::thread other([&] { log.add("elsewhere", 10 * kMs, 20 * kMs); });
  other.join();
  EXPECT_NEAR(log.self_seconds().at("root"), 0.100, 1e-12);
  EXPECT_DOUBLE_EQ(log.unattributed_fraction({"root"}), 1.0);
}

TEST(SpanLog, DisabledScopesRecordNothing) {
  SpanLog log;
  { const auto span = log.span("off"); }
  log.set_enabled(true);
  { const auto span = log.span("on"); }
  const auto events = log.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "on");
  EXPECT_LE(events[0].start_ns, events[0].end_ns);
}

}  // namespace
}  // namespace perfbench
