// Out-of-core telemetry shard store tests: router stability and
// subscription alignment, shard rows bit-identical to the resident panel,
// streamed analyses bit-identical to the resident path at any thread
// count, warm spill-file reuse, budget-driven eviction, and the
// TraceStore sharded-mode contract (telemetry_panel() == nullptr while
// sharding is enabled).
#include "cloudsim/shard.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "analysis/context.h"
#include "analysis/classifier.h"
#include "analysis/spatial.h"
#include "analysis/utilization.h"
#include "cloudsim/telemetry_panel.h"
#include "cloudsim/trace.h"
#include "obs/metrics.h"
#include "workloads/generator.h"

namespace cloudlens {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Unique spill directory under the system temp dir; removed on scope
/// exit unless the store already cleaned it.
class TempSpillDir {
 public:
  explicit TempSpillDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("cloudlens-shardtest-" + tag))
                .string();
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ~TempSpillDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ShardRouter, IsAPureFunctionOfSubscriptionAndK) {
  for (std::uint32_t k : {1u, 2u, 7u, 16u, 101u}) {
    for (std::uint64_t raw : {0ull, 1ull, 42ull, 65535ull, 123456789ull}) {
      const SubscriptionId sub(
          static_cast<SubscriptionId::underlying>(raw));
      const std::uint32_t s = shard_of_subscription(sub, k);
      EXPECT_LT(s, k);
      EXPECT_EQ(s, shard_of_subscription(sub, k));  // stable
    }
  }
  // K=1 degenerates to a single shard.
  EXPECT_EQ(shard_of_subscription(SubscriptionId(7), 1), 0u);
  // Distinct subscriptions spread over shards (not all colliding).
  std::vector<bool> hit(16, false);
  for (std::uint64_t raw = 0; raw < 256; ++raw) {
    hit[shard_of_subscription(
        SubscriptionId(static_cast<SubscriptionId::underlying>(raw)), 16)] =
        true;
  }
  std::size_t used = 0;
  for (bool h : hit) used += h ? 1 : 0;
  EXPECT_GT(used, 8u);
}

class ShardGeneratedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workloads::ScenarioOptions options;
    options.scale = 0.03;
    options.seed = 17;
    scenario_ = new workloads::Scenario(workloads::make_scenario(options));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static workloads::Scenario* scenario_;
};

workloads::Scenario* ShardGeneratedTest::scenario_ = nullptr;

TEST_F(ShardGeneratedTest, RowsBitIdenticalToResidentPanel) {
  const TraceStore& trace = *scenario_->trace;
  const TelemetryPanel* panel = trace.telemetry_panel();
  ASSERT_NE(panel, nullptr);

  TempSpillDir dir("rows");
  TelemetryShardingOptions opts;
  opts.shards = 7;
  opts.spill_dir = dir.path();
  TelemetryShardStore store(trace, opts);
  EXPECT_EQ(store.shard_count(), 7u);
  EXPECT_EQ(store.grid().count, trace.telemetry_grid().count);

  // Every VM belongs to exactly one shard, aligned with its subscription.
  std::size_t members = 0;
  for (std::uint32_t s = 0; s < store.shard_count(); ++s) {
    for (const VmId id : store.shard_vms(s)) {
      ++members;
      EXPECT_EQ(store.shard_of_vm(id), s);
      EXPECT_EQ(store.shard_of(trace.vms()[id.value()].subscription), s);
    }
  }
  EXPECT_EQ(members, trace.vms().size());

  // Shard rows reproduce the resident panel bit for bit (full-res and
  // hourly). Stride keeps the test fast while crossing every shard.
  for (std::size_t v = 0; v < trace.vms().size(); v += 23) {
    const VmId id(static_cast<VmId::underlying>(v));
    const auto a = panel->row(id);
    const auto b = store.row(id);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i += 53) {
      EXPECT_EQ(bits(a[i]), bits(b[i])) << "vm " << v << " tick " << i;
    }
    const auto ha = panel->hourly_row(id);
    const auto hb = store.hourly_row(id);
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(bits(ha[i]), bits(hb[i])) << "vm " << v << " hour " << i;
    }
  }
}

TEST_F(ShardGeneratedTest, EvictionRespectsBudgetAndCountsPages) {
  const TraceStore& trace = *scenario_->trace;
  TempSpillDir dir("evict");
  TelemetryShardingOptions opts;
  opts.shards = 5;
  opts.budget_bytes = 0;  // at most one resident shard after eviction
  opts.spill_dir = dir.path();
  TelemetryShardStore store(trace, opts);

  auto& metrics = obs::MetricsRegistry::global();
  metrics.reset();
  metrics.set_enabled(true);
  const auto before = metrics.snapshot();

  // Touch one VM per shard: all five shards map in.
  for (std::uint32_t s = 0; s < store.shard_count(); ++s) {
    const auto vms = store.shard_vms(s);
    ASSERT_FALSE(vms.empty());
    EXPECT_FALSE(store.row(vms.front()).empty());
  }
  EXPECT_GT(store.resident_bytes(), 0u);

  store.evict_over_budget();
  // Budget 0 keeps at most the most-recently-used shard resident.
  EXPECT_LE(store.resident_bytes(), store.spill_bytes() / 5 + 4096);

  store.evict_all();
  EXPECT_EQ(store.resident_bytes(), 0u);

  const auto after = metrics.snapshot();
  metrics.set_enabled(false);
  EXPECT_GE(after.counter("panel.shard_page_ins") -
                before.counter("panel.shard_page_ins"),
            5u);
  EXPECT_GE(after.counter("panel.shard_evictions") -
                before.counter("panel.shard_evictions"),
            5u);
  EXPECT_GT(after.counter("panel.shard_row_reads") -
                before.counter("panel.shard_row_reads"),
            0u);
}

TEST_F(ShardGeneratedTest, WarmStartReusesSpillFilesWithMatchingDigest) {
  const TraceStore& trace = *scenario_->trace;
  TempSpillDir dir("warm");
  TelemetryShardingOptions opts;
  opts.shards = 4;
  opts.spill_dir = dir.path();
  opts.keep_files = true;

  auto& metrics = obs::MetricsRegistry::global();
  metrics.reset();
  metrics.set_enabled(true);

  std::uint64_t digest = 0;
  {
    TelemetryShardStore cold(trace, opts);
    digest = cold.router_digest();
    EXPECT_EQ(metrics.snapshot().counter("panel.shard_spills"), 4u);
  }
  // Files survived (keep_files) and the second build reuses them: no new
  // spills, identical digest, identical rows.
  {
    TelemetryShardStore warm(trace, opts);
    EXPECT_EQ(warm.router_digest(), digest);
    EXPECT_EQ(metrics.snapshot().counter("panel.shard_spills"), 4u);
    const TelemetryPanel* panel = trace.telemetry_panel();
    ASSERT_NE(panel, nullptr);
    const VmId id(0);
    const auto a = panel->row(id);
    const auto b = warm.row(id);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i += 101)
      EXPECT_EQ(bits(a[i]), bits(b[i]));
  }
  metrics.set_enabled(false);
}

TEST_F(ShardGeneratedTest, TraceStoreShardedModeContract) {
  TraceStore& trace = *scenario_->trace;
  ASSERT_NE(trace.telemetry_panel(), nullptr);

  TempSpillDir dir("mode");
  TelemetryShardingOptions opts;
  opts.shards = 3;
  opts.spill_dir = dir.path();
  trace.set_telemetry_sharding(opts);

  EXPECT_TRUE(trace.telemetry_sharding_enabled());
  // The resident panel is unreachable while sharded: consumers either
  // stream via telemetry_shards() or fall back to scratch rows.
  EXPECT_EQ(trace.telemetry_panel(), nullptr);
  const TelemetryShardStore* shards = trace.telemetry_shards();
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(shards->shard_count(), 3u);

  trace.clear_telemetry_sharding();
  EXPECT_FALSE(trace.telemetry_sharding_enabled());
  EXPECT_EQ(trace.telemetry_shards(), nullptr);
  EXPECT_NE(trace.telemetry_panel(), nullptr);
}

TEST_F(ShardGeneratedTest, StreamedAnalysesBitIdenticalToResident) {
  TraceStore& trace = *scenario_->trace;
  ASSERT_NE(trace.telemetry_panel(), nullptr);

  // Resident reference results (panel-backed, 2 worker threads).
  const ParallelConfig two = ParallelConfig::with_threads(2);
  const auto shares_ref =
      analysis::classify_population(AnalysisContext(trace, two), CloudType::kPrivate, 150, {});
  const auto dist_ref =
      analysis::utilization_distribution(AnalysisContext(trace, two), CloudType::kPublic, 150);
  const auto corr_ref =
      analysis::node_vm_correlations(AnalysisContext(trace, two), CloudType::kPrivate, 40);
  const auto xr_ref = analysis::cross_region_correlations(AnalysisContext(trace, two), CloudType::kPrivate, 60, 10);

  TempSpillDir dir("analyses");
  TelemetryShardingOptions opts;
  opts.shards = 6;
  opts.budget_bytes = 1;  // force eviction at every stream boundary
  opts.spill_dir = dir.path();
  trace.set_telemetry_sharding(opts);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    const ParallelConfig par = ParallelConfig::with_threads(threads);
    const auto shares = analysis::classify_population(AnalysisContext(trace, par), CloudType::kPrivate, 150, {});
    EXPECT_EQ(shares.classified, shares_ref.classified);
    EXPECT_EQ(bits(shares.diurnal), bits(shares_ref.diurnal));
    EXPECT_EQ(bits(shares.stable), bits(shares_ref.stable));
    EXPECT_EQ(bits(shares.irregular), bits(shares_ref.irregular));
    EXPECT_EQ(bits(shares.hourly_peak), bits(shares_ref.hourly_peak));

    const auto dist =
        analysis::utilization_distribution(AnalysisContext(trace, par), CloudType::kPublic, 150);
    EXPECT_EQ(dist.vms_used, dist_ref.vms_used);
    ASSERT_EQ(dist.weekly.p50.size(), dist_ref.weekly.p50.size());
    for (std::size_t i = 0; i < dist.weekly.p50.size(); ++i) {
      EXPECT_EQ(bits(dist.weekly.p25[i]), bits(dist_ref.weekly.p25[i]));
      EXPECT_EQ(bits(dist.weekly.p50[i]), bits(dist_ref.weekly.p50[i]));
      EXPECT_EQ(bits(dist.weekly.p75[i]), bits(dist_ref.weekly.p75[i]));
      EXPECT_EQ(bits(dist.weekly.p95[i]), bits(dist_ref.weekly.p95[i]));
    }
    for (std::size_t h = 0; h < 24; ++h) {
      EXPECT_EQ(bits(dist.daily_p50[h]), bits(dist_ref.daily_p50[h]));
      EXPECT_EQ(bits(dist.daily_p95[h]), bits(dist_ref.daily_p95[h]));
    }

    const auto corr =
        analysis::node_vm_correlations(AnalysisContext(trace, par), CloudType::kPrivate, 40);
    ASSERT_EQ(corr.size(), corr_ref.size());
    for (std::size_t i = 0; i < corr.size(); ++i)
      EXPECT_EQ(bits(corr[i]), bits(corr_ref[i]));

    const auto xr = analysis::cross_region_correlations(AnalysisContext(trace, par), CloudType::kPrivate, 60, 10);
    ASSERT_EQ(xr.size(), xr_ref.size());
    for (std::size_t i = 0; i < xr.size(); ++i)
      EXPECT_EQ(bits(xr[i]), bits(xr_ref[i]));
  }

  trace.clear_telemetry_sharding();
}

}  // namespace
}  // namespace cloudlens
