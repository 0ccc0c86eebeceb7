// Telemetry panel suite: lifecycle (lazy build, add_vm/set_vm_deleted
// invalidation, enable/disable), demand fill (only the rows read are
// filled, the same rows at any thread count, concurrent first touches of
// one row), row semantics (model-less VMs, partial lifetimes), the
// alive-window node/region roll-ups, the batched sample() == at()
// bit-identity contract, the hourly companion view, concurrent first-build
// publication (exercised under TSan in CI), and the fused-vs-naive Pearson
// kernel.
#include "cloudsim/telemetry_panel.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/context.h"
#include "analysis/figures.h"
#include "analysis/report.h"
#include "analysis/utilization.h"
#include "cloudsim/trace_io.h"
#include "kb/extractor.h"
#include "stats/correlation.h"
#include "testutil.h"
#include "workloads/generator.h"
#include "workloads/patterns.h"

namespace cloudlens {
namespace {

using test::TraceFixture;

std::shared_ptr<const UtilizationModel> diurnal(std::uint64_t seed) {
  return std::make_shared<workloads::DiurnalUtilization>(
      workloads::DiurnalUtilization::Params{}, seed);
}

TEST(TelemetryPanelTest, LazyBuildAndStablePointer) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  f.add_vm(CloudType::kPrivate, f.private_sub, node, 4, 0, kNoEnd,
           diurnal(7));

  const TelemetryPanel* panel = f.trace.telemetry_panel();
  ASSERT_NE(panel, nullptr);
  EXPECT_EQ(panel->vm_count(), 1u);
  EXPECT_EQ(panel->tick_count(), f.trace.telemetry_grid().count);
  // Repeated calls return the same panel.
  EXPECT_EQ(panel, f.trace.telemetry_panel());
  // memory_bytes() counts filled rows only: none until the first read.
  EXPECT_EQ(panel->memory_bytes(), 0u);
  panel->row(VmId(0));
  EXPECT_GT(panel->memory_bytes(), 0u);
}

TEST(TelemetryPanelTest, RowsFilledCountsDistinctRowsRead) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  for (int i = 0; i < 6; ++i)
    f.add_vm(CloudType::kPrivate, f.private_sub, node, 2, 0, kNoEnd,
             diurnal(200 + static_cast<std::uint64_t>(i)));

  const TelemetryPanel* panel = f.trace.telemetry_panel();
  ASSERT_NE(panel, nullptr);
  EXPECT_EQ(panel->rows_filled(), 0u);
  EXPECT_EQ(panel->memory_bytes(), 0u);

  // Rows 1, 3 and 4, each read more than once and through both views.
  panel->row(VmId(1));
  panel->row(VmId(3));
  panel->row(VmId(1));
  panel->hourly_row(VmId(3));
  panel->hourly_row(VmId(4));
  panel->row(VmId(4));
  EXPECT_EQ(panel->rows_filled(), 3u);
  EXPECT_EQ(panel->memory_bytes(),
            3 * (panel->tick_count() + panel->hourly_grid().count) *
                sizeof(double));
}

TEST(TelemetryPanelTest, AddVmInvalidatesPanel) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  f.add_vm(CloudType::kPrivate, f.private_sub, node, 4, 0, kNoEnd,
           diurnal(7));
  const TelemetryPanel* before = f.trace.telemetry_panel();
  ASSERT_EQ(before->vm_count(), 1u);

  const VmId added = f.add_vm(CloudType::kPrivate, f.private_sub, node, 2, 0,
                              kNoEnd, diurnal(8));
  const TelemetryPanel* after = f.trace.telemetry_panel();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->vm_count(), 2u);
  // The rebuilt panel covers the new VM with a fully evaluated row.
  const auto row = after->row(added);
  ASSERT_EQ(row.size(), f.trace.telemetry_grid().count);
  EXPECT_EQ(row[0], f.trace.vm(added).utilization->at(
                        f.trace.telemetry_grid().start));
}

// Regression (satellite): set_vm_deleted used to leave the lazy caches
// intact, so analyses after failure injection read stale rows for the
// killed VMs.
TEST(TelemetryPanelTest, SetVmDeletedInvalidatesPanel) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const TimeGrid& grid = f.trace.telemetry_grid();
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  const VmId id = f.add_vm(CloudType::kPrivate, f.private_sub, node, 4, 0,
                           kNoEnd, diurnal(7));

  const TelemetryPanel* before = f.trace.telemetry_panel();
  const SimTime cut = grid.start + 2 * kDay;
  const std::size_t cut_index = grid.index_of(cut);
  ASSERT_NE(before->row(id)[cut_index], 0.0)
      << "test needs a non-zero sample at the cut point";

  f.trace.set_vm_deleted(id, cut);
  const TelemetryPanel* after = f.trace.telemetry_panel();
  ASSERT_NE(after, nullptr);
  const auto row = after->row(id);
  // Dead from the cut onwards; alive bits unchanged before it.
  for (std::size_t i = cut_index; i < grid.count; ++i)
    ASSERT_EQ(row[i], 0.0) << "tick " << i;
  EXPECT_EQ(row[0], f.trace.vm(id).utilization->at(grid.start));
  // Derived telemetry reflects the shortened life too.
  EXPECT_EQ(f.trace.vm_utilization(id, grid).value_at(cut), 0.0);
}

TEST(TelemetryPanelTest, DisableReturnsNullAndFallbackMatches) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const TimeGrid& grid = f.trace.telemetry_grid();
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  const VmId id = f.add_vm(CloudType::kPrivate, f.private_sub, node, 4,
                           grid.start + kDay, grid.start + 4 * kDay,
                           diurnal(21));

  const TelemetryPanel* panel = f.trace.telemetry_panel();
  ASSERT_NE(panel, nullptr);
  std::vector<double> cached(panel->row(id).begin(), panel->row(id).end());

  f.trace.set_telemetry_panel_enabled(false);
  EXPECT_EQ(f.trace.telemetry_panel(), nullptr);
  EXPECT_FALSE(f.trace.telemetry_panel_enabled());

  // The scratch fallback goes through the same fill kernel: identical bits.
  std::vector<double> scratch;
  const auto row = vm_telemetry_row(f.trace, nullptr, id, grid, scratch);
  ASSERT_EQ(row.size(), cached.size());
  for (std::size_t i = 0; i < row.size(); ++i)
    ASSERT_EQ(row[i], cached[i]) << "tick " << i;

  f.trace.set_telemetry_panel_enabled(true);
  ASSERT_NE(f.trace.telemetry_panel(), nullptr);
}

TEST(TelemetryPanelTest, EmptyTrace) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const TelemetryPanel* panel = f.trace.telemetry_panel();
  ASSERT_NE(panel, nullptr);
  EXPECT_EQ(panel->vm_count(), 0u);
  EXPECT_EQ(panel->memory_bytes(), 0u);
}

TEST(TelemetryPanelTest, ModelLessVmHasZeroRow) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  const VmId id = f.add_vm(CloudType::kPrivate, f.private_sub, node, 4, 0,
                           kNoEnd, nullptr);
  const TelemetryPanel* panel = f.trace.telemetry_panel();
  for (const double v : panel->row(id)) ASSERT_EQ(v, 0.0);
}

TEST(TelemetryPanelTest, PartialLifetimeRowZeroOutsideLife) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const TimeGrid& grid = f.trace.telemetry_grid();
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  // Mid-window life, deliberately not aligned to the grid step.
  const SimTime created = grid.start + kDay + 7 * kMinute;
  const SimTime deleted = grid.start + 3 * kDay + 11 * kMinute;
  const VmId id = f.add_vm(CloudType::kPrivate, f.private_sub, node, 4,
                           created, deleted, diurnal(42));

  const TelemetryPanel* panel = f.trace.telemetry_panel();
  const auto row = panel->row(id);
  const auto& vm = f.trace.vm(id);
  for (std::size_t i = 0; i < grid.count; ++i) {
    const SimTime t = grid.at(i);
    if (vm.alive_at(t)) {
      ASSERT_EQ(row[i], vm.utilization->at(t)) << "tick " << i;
    } else {
      ASSERT_EQ(row[i], 0.0) << "tick " << i;
    }
  }
}

TEST(TelemetryPanelTest, HourlyRowMatchesHourlyMeanBitwise) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const TimeGrid& grid = f.trace.telemetry_grid();
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  const VmId full = f.add_vm(CloudType::kPrivate, f.private_sub, node, 4, 0,
                             kNoEnd, diurnal(3));
  const VmId partial = f.add_vm(
      CloudType::kPrivate, f.private_sub, node, 2, grid.start + 36 * kHour,
      grid.start + 90 * kHour,
      std::make_shared<workloads::HourlyPeakUtilization>(
          workloads::HourlyPeakUtilization::Params{}, 5));

  const TelemetryPanel* panel = f.trace.telemetry_panel();
  ASSERT_GT(panel->hourly_grid().count, 0u);
  for (const VmId id : {full, partial}) {
    const auto hourly = panel->hourly_row(id);
    const auto reference = f.trace.vm_utilization(id, grid).hourly_mean();
    ASSERT_EQ(hourly.size(), reference.size());
    for (std::size_t h = 0; h < hourly.size(); ++h)
      ASSERT_EQ(hourly[h], reference[h]) << "hour " << h;
  }
}

TEST(TelemetryPanelTest, ConcurrentFirstBuildPublishesOnePanel) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  for (int i = 0; i < 16; ++i)
    f.add_vm(CloudType::kPrivate, f.private_sub, node, 2, 0, kNoEnd,
             diurnal(100 + static_cast<std::uint64_t>(i)));

  constexpr std::size_t kReaders = 8;
  std::vector<const TelemetryPanel*> seen(kReaders, nullptr);
  std::vector<double> sums(kReaders, 0.0);
  {
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (std::size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        // Every reader races the lazy first build, then immediately reads
        // through the published rows (data race here => TSan report).
        const TelemetryPanel* panel = f.trace.telemetry_panel();
        seen[r] = panel;
        double sum = 0;
        const VmId vm(static_cast<std::uint32_t>(r));
        for (const double v : panel->row(vm)) sum += v;
        sums[r] = sum;
      });
    }
    for (auto& t : readers) t.join();
  }
  for (std::size_t r = 0; r < kReaders; ++r) {
    ASSERT_NE(seen[r], nullptr);
    EXPECT_EQ(seen[r], seen[0]);
    EXPECT_GT(sums[r], 0.0);
  }
}

TEST(TelemetryPanelTest, ConcurrentFirstTouchOfOneRowSeesIdenticalBits) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const TimeGrid& grid = f.trace.telemetry_grid();
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  const VmId id = f.add_vm(CloudType::kPrivate, f.private_sub, node, 4,
                           grid.start + 5 * kHour, kNoEnd, diurnal(77));
  std::vector<double> reference(grid.count);
  TelemetryPanel::fill_row(f.trace.vm(id), grid, reference);

  const TelemetryPanel* panel = f.trace.telemetry_panel();
  constexpr std::size_t kReaders = 8;
  std::vector<std::vector<std::uint64_t>> seen(kReaders);
  {
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (std::size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        // Every reader races the same row's first fill (data race here =>
        // TSan report), alternating between the two views.
        if (r % 2 == 1) panel->hourly_row(id);
        for (const double v : panel->row(id))
          seen[r].push_back(std::bit_cast<std::uint64_t>(v));
      });
    }
    for (auto& t : readers) t.join();
  }
  EXPECT_EQ(panel->rows_filled(), 1u);
  for (std::size_t r = 0; r < kReaders; ++r) {
    ASSERT_EQ(seen[r].size(), grid.count);
    for (std::size_t i = 0; i < grid.count; ++i)
      ASSERT_EQ(seen[r][i], std::bit_cast<std::uint64_t>(reference[i]))
          << "reader " << r << " tick " << i;
  }
}

// The product suite reads only the rows it needs: the same set at any
// thread count, and never more than the window-covering VMs (the
// utilization analyses use those only; roll-ups over other VMs sample into
// scratch). A regression to full materialization fails the bound.
TEST(TelemetryPanelTest, ProductSuiteFillsOnlyCoveringRowsAtAnyThreadCount) {
  workloads::ScenarioOptions options;
  options.scale = 0.02;
  options.seed = 19;
  const workloads::Scenario scenario = workloads::make_scenario(options);
  TraceStore& trace = *scenario.trace;
  const TimeGrid& grid = trace.telemetry_grid();
  std::size_t covering = 0;
  for (const VmRecord& vm : trace.vms())
    if (vm.covers(grid) && vm.utilization) ++covering;
  ASSERT_GT(covering, 0u);
  ASSERT_LT(covering, trace.vms().size());

  const auto rows_filled_by_suite = [&](std::size_t threads) {
    // Drop any panel from an earlier run so the count starts at zero.
    trace.set_telemetry_panel_enabled(false);
    trace.set_telemetry_panel_enabled(true);
    const TelemetryPanel* panel = trace.telemetry_panel();
    EXPECT_EQ(panel->rows_filled(), 0u);
    const AnalysisContext ctx(trace, ParallelConfig::with_threads(threads));
    std::ostringstream report;
    analysis::write_characterization_report(ctx, report);
    std::ostringstream figures;
    analysis::write_figure_csvs(
        ctx, [&](const std::string&) -> std::ostream& { return figures; });
    kb::extract_all(ctx, kb::ExtractorOptions{});
    return panel->rows_filled();
  };
  const std::size_t serial = rows_filled_by_suite(1);
  const std::size_t threaded = rows_filled_by_suite(8);
  EXPECT_GT(serial, 0u);
  EXPECT_EQ(serial, threaded);
  EXPECT_LE(serial, covering);
}

// --- alive-window roll-ups ------------------------------------------------
//
// node_utilization and region_used_cores_hourly add each VM's alive window
// only. The references below are the old full-row accumulations (every
// tick of the zero-padded fill_row row), which the windowed sums must
// reproduce bit for bit.

stats::TimeSeries full_row_node_utilization(const TraceStore& trace,
                                            NodeId id) {
  const TimeGrid& grid = trace.telemetry_grid();
  const Node& node = trace.topology().node(id);
  stats::TimeSeries out(grid);
  std::vector<double> row(grid.count);
  for (const VmId vm_id : trace.vms_on_node(id)) {
    const VmRecord& rec = trace.vm(vm_id);
    if (!rec.utilization) continue;
    TelemetryPanel::fill_row(rec, grid, row, trace.sample_valid_ticks());
    const double weight = rec.cores / node.total_cores;
    for (std::size_t i = 0; i < grid.count; ++i)
      out.mutable_values()[i] += weight * row[i];
  }
  out.clamp(0.0, 1.0);
  return out;
}

/// Mirrors region_used_cores_hourly's fixed-chunk reduction (unsampled:
/// max_vms = 0) over full rows.
stats::TimeSeries full_row_region_used_cores(const TraceStore& trace,
                                             CloudType cloud) {
  const TimeGrid& grid = trace.telemetry_grid();
  std::vector<VmId> candidates;
  for (const VmRecord& vm : trace.vms())
    if (vm.cloud == cloud && vm.utilization) candidates.push_back(vm.id);
  const std::size_t n = candidates.size();
  std::vector<double> row(grid.count);
  std::vector<stats::TimeSeries> partials;
  for (std::size_t c = 0; c < detail::reduce_chunk_count(n); ++c) {
    stats::TimeSeries acc(grid);
    const auto [begin, end] = detail::reduce_chunk_bounds(n, c);
    for (std::size_t k = begin; k < end; ++k) {
      const VmRecord& vm = trace.vm(candidates[k]);
      TelemetryPanel::fill_row(vm, grid, row, trace.sample_valid_ticks());
      for (std::size_t t = 0; t < grid.count; ++t)
        acc.mutable_values()[t] += vm.cores * row[t];
    }
    partials.push_back(std::move(acc));
  }
  stats::TimeSeries total = std::move(partials[0]);
  for (std::size_t c = 1; c < partials.size(); ++c) total.add(partials[c]);
  total.scale(1.0);
  return total.hourly_mean();
}

void expect_same_bits(const stats::TimeSeries& a, const stats::TimeSeries& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "sample " << i;
}

/// One node hosting every window shape: covering, created mid-window,
/// deleted mid-window, alive entirely before / after the window, and
/// model-less.
struct AliveWindowFixture {
  explicit AliveWindowFixture(const Topology& topo)
      : f(topo), node(test::first_node(topo, CloudType::kPrivate)) {
    const TimeGrid& grid = f.trace.telemetry_grid();
    const SimTime start = grid.start;
    const SimTime end = grid.end();
    // Covering; created mid-window; deleted mid-window; both.
    add(1, start - kDay, kNoEnd, diurnal(1));
    add(2, start + kDay + 7 * kMinute, kNoEnd, diurnal(2));
    add(3, start - kHour, start + 2 * kDay + 3 * kMinute, diurnal(3));
    add(1, start + 3 * kHour, start + 9 * kHour, diurnal(4));
    // Alive only before / only after the window; model-less.
    add(2, start - 3 * kDay, start - kDay, diurnal(5));
    add(1, end + kHour, end + kDay, diurnal(6));
    add(4, start, kNoEnd, nullptr);
    // Deleted one minute before the window ends, another model kind.
    add(1, start + 5 * kDay, end - kMinute,
        std::make_shared<workloads::HourlyPeakUtilization>(
            workloads::HourlyPeakUtilization::Params{}, 8));
  }
  void add(double cores, SimTime created, SimTime deleted,
           std::shared_ptr<const UtilizationModel> util) {
    f.add_vm(CloudType::kPrivate, f.private_sub, node, cores, created,
             deleted, std::move(util));
  }

  TraceFixture f;
  NodeId node;
};

TEST(AliveWindowRollupTest, BitIdenticalToFullRowAccumulation) {
  const Topology topo = test::tiny_topology();
  AliveWindowFixture w(topo);
  TraceStore& trace = w.f.trace;
  const TimeGrid& grid = trace.telemetry_grid();
  const AnalysisContext ctx(trace);
  // With the panel (covering rows come off it) and without (all scratch).
  for (const bool panel : {true, false}) {
    SCOPED_TRACE(panel ? "panel" : "no panel");
    trace.set_telemetry_panel_enabled(panel);
    expect_same_bits(trace.node_utilization(w.node, grid),
                     full_row_node_utilization(trace, w.node));
    expect_same_bits(
        analysis::region_used_cores_hourly(ctx, CloudType::kPrivate,
                                           RegionId(), 0),
        full_row_region_used_cores(trace, CloudType::kPrivate));
  }
  // Only the one covering VM with a model had its row filled.
  trace.set_telemetry_panel_enabled(true);
  trace.node_utilization(w.node, grid);
  EXPECT_EQ(trace.telemetry_panel()->rows_filled(), 1u);
}

TEST(AliveWindowRollupTest, HonoursTheSampleValidTicksClamp) {
  const Topology topo = test::tiny_topology();
  AliveWindowFixture w(topo);
  TraceStore& trace = w.f.trace;
  const TimeGrid& grid = trace.telemetry_grid();
  const AnalysisContext ctx(trace);
  // Clamps before, inside and after the created/deleted edges above, plus
  // the degenerate ones.
  for (const std::size_t valid :
       {std::size_t{0}, std::size_t{1}, std::size_t{50}, std::size_t{300},
        std::size_t{600}, grid.count - 1, grid.count}) {
    SCOPED_TRACE(valid);
    trace.set_sample_valid_ticks(valid);
    expect_same_bits(trace.node_utilization(w.node, grid),
                     full_row_node_utilization(trace, w.node));
    expect_same_bits(
        analysis::region_used_cores_hourly(ctx, CloudType::kPrivate,
                                           RegionId(), 0),
        full_row_region_used_cores(trace, CloudType::kPrivate));
  }
}

TEST(AliveWindowRollupTest, GeneratedNodesBitIdenticalToFullRows) {
  workloads::ScenarioOptions options;
  options.scale = 0.02;
  options.seed = 23;
  const workloads::Scenario scenario = workloads::make_scenario(options);
  const TraceStore& trace = *scenario.trace;
  const TimeGrid& grid = trace.telemetry_grid();
  std::size_t checked = 0;
  for (const Node& node : trace.topology().nodes()) {
    if (trace.vms_on_node(node.id).empty()) continue;
    expect_same_bits(trace.node_utilization(node.id, grid),
                     full_row_node_utilization(trace, node.id));
    ++checked;
  }
  EXPECT_GT(checked, 0u);
  for (const CloudType cloud : {CloudType::kPrivate, CloudType::kPublic}) {
    expect_same_bits(analysis::region_used_cores_hourly(
                         AnalysisContext(trace), cloud, RegionId(), 0),
                     full_row_region_used_cores(trace, cloud));
  }
}

// The batched sample() contract: bit-identical to the per-tick at() loop,
// for every concrete model, on the canonical analysis grid and on awkward
// grids (offset start, step that doesn't divide an hour) that force the
// models' batch fast paths to bail out or re-anchor.
class SampleContractTest : public ::testing::Test {
 protected:
  static std::vector<std::shared_ptr<const UtilizationModel>> models() {
    using namespace workloads;
    std::vector<std::shared_ptr<const UtilizationModel>> out;
    out.push_back(std::make_shared<ConstantUtilization>(0.37));
    out.push_back(std::make_shared<DiurnalUtilization>(
        DiurnalUtilization::Params{}, 11));
    DiurnalUtilization::Params tz;
    tz.tz_offset_hours = -8;
    out.push_back(std::make_shared<DiurnalUtilization>(tz, 12));
    out.push_back(std::make_shared<StableUtilization>(
        StableUtilization::Params{}, 13));
    out.push_back(std::make_shared<IrregularUtilization>(
        IrregularUtilization::Params{}, 14));
    out.push_back(std::make_shared<HourlyPeakUtilization>(
        HourlyPeakUtilization::Params{}, 15));
    // Sampled model whose source grid differs from the query grids.
    const TimeGrid src{kDay, kTelemetryInterval, 3 * 12 * 24};
    std::vector<double> samples(src.count);
    for (std::size_t i = 0; i < src.count; ++i)
      samples[i] = 0.5 + 0.4 * std::sin(static_cast<double>(i) / 17.0);
    out.push_back(std::make_shared<SampledUtilization>(src, samples));
    return out;
  }

  static void expect_sample_matches_at(const UtilizationModel& model,
                                       const TimeGrid& grid) {
    std::vector<double> batched(grid.count);
    model.sample(grid, batched);
    for (std::size_t i = 0; i < grid.count; ++i)
      ASSERT_EQ(batched[i], model.at(grid.at(i)))
          << model.kind() << " tick " << i;
  }
};

TEST_F(SampleContractTest, BitIdenticalOnWeekGrid) {
  const TimeGrid grid = week_telemetry_grid();
  for (const auto& model : models()) expect_sample_matches_at(*model, grid);
}

TEST_F(SampleContractTest, BitIdenticalOnAwkwardGrids) {
  // Offset, short, and hour-misaligned grids exercise the batch loops'
  // anchor/window bookkeeping and the generic fallback.
  const TimeGrid grids[] = {
      {3 * kHour + 5 * kMinute, kTelemetryInterval, 500},  // offset start
      {-2 * kDay, kTelemetryInterval, 700},                // negative times
      {kHour, 7 * kMinute, 300},   // step doesn't divide an hour
      {0, 30 * kMinute, 200},      // coarse step
      {11 * kMinute, kMinute, 90}  // fine step
  };
  for (const auto& model : models())
    for (const TimeGrid& grid : grids) expect_sample_matches_at(*model, grid);
}

// Fused single-pass Pearson vs the two-pass reference, over correlated,
// anti-correlated, noisy, constant, and short inputs.
TEST(PearsonFusedTest, MatchesTwoPassReference) {
  const auto noise = [](std::uint64_t k) {
    return workloads::hash_uniform(99, static_cast<std::int64_t>(k));
  };
  for (const std::size_t n : {2u, 3u, 17u, 168u, 2016u}) {
    std::vector<double> x(n), same(n), inverse(n), noisy(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = std::sin(static_cast<double>(i) / 9.0) + 0.3 * noise(i);
      same[i] = 2.5 * x[i] + 1.0;
      inverse[i] = -x[i];
      noisy[i] = noise(1000 + i);
    }
    for (const auto& y : {same, inverse, noisy}) {
      const double fused = stats::pearson_fused(x, y);
      const double reference = stats::pearson(x, y);
      EXPECT_NEAR(fused, reference, 1e-12) << "n=" << n;
      EXPECT_LE(std::abs(fused), 1.0);
    }
  }
  // Exact invariants the analyses rely on.
  std::vector<double> x{0.1, 0.4, 0.2, 0.9};
  EXPECT_EQ(stats::pearson_fused(x, x), 1.0);
  std::vector<double> flat(4, 0.5);
  EXPECT_EQ(stats::pearson_fused(x, flat), 0.0);
  std::vector<double> one{1.0};
  EXPECT_EQ(stats::pearson_fused(one, one), 0.0);
}

}  // namespace
}  // namespace cloudlens
