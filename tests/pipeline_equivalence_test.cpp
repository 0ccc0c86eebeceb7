// End-to-end equivalence pins for the cached pipeline: a snapshot-loaded
// trace must reproduce fresh generation *byte-for-byte* — same
// characterization report, same figure CSVs — at any thread count, and a
// warm cache must actually skip the generate work (observed via the
// pipeline.* counters, not timing), while neither run fills panel rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "analysis/figures.h"
#include "analysis/report.h"
#include "obs/metrics.h"
#include "pipeline/run_plan.h"
#include "stats/kernels/dispatch.h"

namespace cloudlens::pipeline {
namespace {

namespace fs = std::filesystem;

struct RunOutput {
  std::string report;
  std::map<std::string, std::string> figures;
  std::vector<StageReport> stages;
};

RunPlanOptions plan_options(const std::string& cache_dir, bool cache_enabled,
                            std::size_t threads,
                            obs::MetricsRegistry* metrics = nullptr) {
  RunPlanOptions options;
  options.scenario.scale = 0.03;
  options.scenario.seed = 11;
  options.cache_dir = cache_dir;
  options.cache_enabled = cache_enabled;
  options.parallel = ParallelConfig::with_threads(threads);
  options.metrics = metrics;
  return options;
}

/// Resolve the plan, then render the report and every figure CSV into
/// memory so runs can be compared byte-for-byte.
RunOutput run_and_render(const RunPlanOptions& options) {
  RunOutput out;
  const ResolvedRun run = run_trace_plan(options);
  out.stages = run.reports;

  const AnalysisContext ctx(*run.trace->trace, options.parallel);
  std::ostringstream report;
  analysis::write_characterization_report(ctx, report);
  out.report = report.str();

  std::map<std::string, std::ostringstream> streams;
  analysis::write_figure_csvs(
      ctx, [&](const std::string& name) -> std::ostream& {
        return streams[name];
      });
  for (auto& [name, stream] : streams) out.figures[name] = stream.str();
  return out;
}

StageReport::Source source_of(const RunOutput& out, const std::string& name) {
  for (const auto& report : out.stages) {
    if (report.name == name) return report.source;
  }
  ADD_FAILURE() << "no stage report for " << name;
  return StageReport::Source::kComputed;
}

class PipelineEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::path(::testing::TempDir()) /
            (std::string("cloudlens_equiv_") + info->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(PipelineEquivalenceTest, ReportAndFiguresBitIdenticalColdWarmThreads) {
  // Uncached single-threaded run: the ground truth bytes.
  const RunOutput fresh = run_and_render(plan_options("", false, 1));
  ASSERT_FALSE(fresh.report.empty());
  ASSERT_FALSE(fresh.figures.empty());
  EXPECT_EQ(source_of(fresh, "trace"), StageReport::Source::kComputed);

  // Cold cached run at 8 threads: computes + stores, same bytes.
  const RunOutput cold = run_and_render(plan_options(dir_, true, 8));
  EXPECT_EQ(source_of(cold, "trace"), StageReport::Source::kComputedAndStored);
  EXPECT_EQ(cold.report, fresh.report);
  EXPECT_EQ(cold.figures, fresh.figures);

  // Warm run back at 1 thread: the trace comes off disk, and the
  // snapshot round trip must not move a single byte of any output.
  const RunOutput warm = run_and_render(plan_options(dir_, true, 1));
  EXPECT_EQ(source_of(warm, "trace"), StageReport::Source::kCacheHit);
  EXPECT_EQ(warm.report, fresh.report);
  EXPECT_EQ(warm.figures, fresh.figures);
}

TEST_F(PipelineEquivalenceTest, WarmCacheSkipsGenerateAndPanelWork) {
  // pipeline.* counters go to the registry the plan was handed; the
  // generator and the panel record against the process-global registry
  // (they have no context parameter), so watch both.
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  auto& global = obs::MetricsRegistry::global();
  global.reset();
  global.set_enabled(true);

  RunPlanOptions options = plan_options(dir_, true, 2, &metrics);
  options.scenario.scale = 0.02;
  run_trace_plan(options);
  auto cold = metrics.snapshot();
  EXPECT_EQ(cold.counter("pipeline.stage_runs"), 1u);
  EXPECT_EQ(cold.counter("pipeline.cache_misses"), 1u);
  EXPECT_EQ(cold.counter("pipeline.cache_stores"), 1u);
  EXPECT_EQ(cold.counter("pipeline.cache_hits"), 0u);
  EXPECT_GT(cold.counter("pipeline.cache_bytes_written"), 0u);
  // The cold run actually generated (one run per cloud). Panel rows fill
  // only when an analysis reads them, so the plan itself fills none.
  auto cold_global = global.snapshot();
  EXPECT_EQ(cold_global.counter("gen.runs"), 2u);
  EXPECT_EQ(cold_global.counter("panel.rows_filled"), 0u);

  metrics.reset();
  global.reset();
  run_trace_plan(options);
  auto warm = metrics.snapshot();
  EXPECT_EQ(warm.counter("pipeline.stage_runs"), 1u);
  EXPECT_EQ(warm.counter("pipeline.cache_hits"), 1u);
  EXPECT_EQ(warm.counter("pipeline.cache_misses"), 0u);
  EXPECT_EQ(warm.counter("pipeline.cache_stores"), 0u);
  EXPECT_GT(warm.counter("pipeline.cache_bytes_read"), 0u);
  // Warm runs never regenerate the workload or fill panel rows.
  auto warm_global = global.snapshot();
  EXPECT_EQ(warm_global.counter("gen.runs"), 0u);
  EXPECT_EQ(warm_global.counter("panel.rows_filled"), 0u);
  global.set_enabled(false);
}

// --- Kernel tier × mode equivalence --------------------------------------

namespace kernels = stats::kernels;

/// Restores the kernel dispatch config when a test block exits.
class DispatchRestore {
 public:
  ~DispatchRestore() { kernels::reset_from_env(); }
};

TEST_F(PipelineEquivalenceTest, StrictModeBitIdenticalAcrossKernelTiers) {
  // Strict mode's whole contract: the report and every figure CSV are
  // byte-identical whether kernels run scalar or SIMD, fresh or loaded
  // from a snapshot, at 1 or 8 threads.
  DispatchRestore restore;
  kernels::set_active({kernels::Tier::kScalar, kernels::Mode::kStrict});
  const RunOutput reference = run_and_render(plan_options("", false, 1));
  ASSERT_FALSE(reference.report.empty());

  for (const auto tier :
       {kernels::Tier::kScalar, kernels::Tier::kSse2, kernels::Tier::kAvx2}) {
    if (!kernels::tier_supported(tier)) continue;
    SCOPED_TRACE(std::string("tier=") + std::string(kernels::to_string(tier)));
    kernels::set_active({tier, kernels::Mode::kStrict});
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      // Fresh (uncached) run.
      const RunOutput fresh =
          run_and_render(plan_options("", false, threads));
      EXPECT_EQ(fresh.report, reference.report) << threads << " threads";
      EXPECT_EQ(fresh.figures, reference.figures) << threads << " threads";
    }
    // Snapshot round trip under this tier: cold stores, warm loads; both
    // must reproduce the reference bytes. Per-tier cache dir keeps the
    // cold/warm sequence self-contained.
    const std::string tier_dir =
        dir_ + "_" + std::string(kernels::to_string(tier));
    fs::remove_all(tier_dir);
    const RunOutput cold = run_and_render(plan_options(tier_dir, true, 8));
    EXPECT_EQ(source_of(cold, "trace"),
              StageReport::Source::kComputedAndStored);
    EXPECT_EQ(cold.report, reference.report);
    const RunOutput warm = run_and_render(plan_options(tier_dir, true, 1));
    EXPECT_EQ(source_of(warm, "trace"), StageReport::Source::kCacheHit);
    EXPECT_EQ(warm.report, reference.report);
    EXPECT_EQ(warm.figures, reference.figures);
    fs::remove_all(tier_dir);
  }
}

/// Pull every "name,value" numeric cell out of a figure CSV body.
std::vector<double> numeric_cells(const std::string& csv) {
  std::vector<double> out;
  std::istringstream lines(csv);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream cells(line);
    std::string cell;
    while (std::getline(cells, cell, ',')) {
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      if (end != cell.c_str() && end != nullptr && *end == '\0')
        out.push_back(v);
    }
  }
  return out;
}

TEST_F(PipelineEquivalenceTest, FastModeMatchesStrictWithinTolerance) {
  // Fast mode may reassociate the Pearson reduction, so outputs are not
  // pinned to bytes — but every numeric cell of every figure must agree
  // with strict mode within a loose tolerance (the correlation deltas
  // are ~1e-12; thresholded counts can only move if a value sits exactly
  // on a classifier edge, which the generated scenario does not).
  DispatchRestore restore;
  kernels::set_active({kernels::Tier::kScalar, kernels::Mode::kStrict});
  const RunOutput strict = run_and_render(plan_options("", false, 1));

  kernels::set_active({kernels::best_supported_tier(), kernels::Mode::kFast});
  const RunOutput fast = run_and_render(plan_options("", false, 1));

  ASSERT_EQ(fast.figures.size(), strict.figures.size());
  for (const auto& [name, strict_csv] : strict.figures) {
    ASSERT_TRUE(fast.figures.count(name) == 1) << name;
    const auto a = numeric_cells(strict_csv);
    const auto b = numeric_cells(fast.figures.at(name));
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i], b[i], 1e-6 + 1e-6 * std::fabs(a[i]))
          << name << " cell " << i;
    }
  }
  // On hardware where the best tier IS scalar, fast == strict exactly;
  // either way the report must keep its shape (same line count).
  EXPECT_EQ(std::count(strict.report.begin(), strict.report.end(), '\n'),
            std::count(fast.report.begin(), fast.report.end(), '\n'));
}

TEST_F(PipelineEquivalenceTest, FastModeKbArtifactsDoNotPoisonStrictCache) {
  // kb artifacts computed in fast mode are keyed per (mode, tier); a
  // strict run after a fast run on the same cache must MISS the kb entry
  // (recompute) rather than load tier-tainted bytes.
  DispatchRestore restore;
  RunPlanOptions options = plan_options(dir_, true, 1);
  options.want_kb = true;

  kernels::set_active({kernels::best_supported_tier(), kernels::Mode::kFast});
  const ResolvedRun fast_run = run_trace_plan(options);
  ASSERT_TRUE(fast_run.knowledge != nullptr);

  kernels::set_active({kernels::Tier::kScalar, kernels::Mode::kStrict});
  const ResolvedRun strict_run = run_trace_plan(options);
  ASSERT_TRUE(strict_run.knowledge != nullptr);
  bool kb_seen = false;
  for (const auto& report : strict_run.reports) {
    if (report.name != "kb") continue;
    kb_seen = true;
    // Trace (and its bytes) are mode-independent, so it may hit; kb must
    // not have been satisfied by the fast-mode entry.
    EXPECT_NE(report.source, StageReport::Source::kCacheHit);
  }
  EXPECT_TRUE(kb_seen);

  // Strict kb entries ARE shared across tiers: a second strict run at a
  // different supported tier hits the cache.
  kernels::set_active({kernels::best_supported_tier(), kernels::Mode::kStrict});
  const ResolvedRun strict_again = run_trace_plan(options);
  for (const auto& report : strict_again.reports) {
    if (report.name == "kb") {
      EXPECT_EQ(report.source, StageReport::Source::kCacheHit);
    }
  }
}

}  // namespace
}  // namespace cloudlens::pipeline
