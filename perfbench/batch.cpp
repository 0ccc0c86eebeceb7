// batch_generated: the product suite over a generated scenario held
// resident. Its traced run also probes the path real traces take: CSVs
// imported straight into paged population shards.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>

#include "bench.h"
#include "cloudsim/population.h"
#include "cloudsim/telemetry_panel.h"
#include "cloudsim/trace_io.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "pacing.h"
#include "pipeline/run_plan.h"
#include "workloads/generator.h"

namespace perfbench {

using namespace cloudlens;

namespace {

// batch_generated: large enough that generation and the suite each take
// a few hundred milliseconds, small enough to stay well under 1 GiB.
constexpr double kGeneratedScale = 0.15;
constexpr double kGeneratedVms = 30000;

// The paged-import probe: every VM gets utilization rows; 32 record
// shards under a residency budget far below the ~80 MiB spill, so the
// suite pages shards in and out (ROADMAP item 3's thrash). Sized by
// utilization rows, which drive decode, spill and page-in work more than
// the VM count does. Timed as a workload, its analysis time, dominated by
// page faults on shard files, moved by up to 2x with the load of the
// shared host, so it is measured per layer only.
constexpr double kPagedScale = 0.03;
constexpr double kPagedRows = 3800000;
constexpr std::uint32_t kPagedShards = 32;
constexpr std::size_t kPagedBudgetMib = 2;

constexpr double kMiB = 1024.0 * 1024.0;

/// Recorded iterations whose peak RSS counts. Fragmentation makes later
/// iterations' peaks creep up, so a fixed count keeps the figure from
/// depending on how many iterations the host's speed allows.
constexpr std::size_t kRssIterations = 3;

/// A trace built by a workload's set-up, with what the set-up reported.
struct Built {
  std::unique_ptr<Topology> topology;
  std::unique_ptr<TraceStore> trace;
  std::vector<pipeline::StageReport> stages;
};

using SetupFn =
    std::function<Built(SpanLog&, obs::MetricsRegistry&, std::size_t threads)>;

struct Iteration {
  double setup_s = 0.0;
  double analyze_s = 0.0;
  Products products;
  double panel_mib = 0.0;
  double spill_mib = 0.0;
  std::vector<pipeline::StageReport> stages;
};

Iteration run_iteration(const SetupFn& setup, std::size_t threads,
                        SpanLog& spans, obs::MetricsRegistry& registry) {
  Iteration it;
  const auto setup_start = Clock::now();
  Built built;
  {
    const auto span = spans.span("bench.setup");
    built = setup(spans, registry, threads);
  }
  it.setup_s = seconds_since(setup_start);

  const auto analyze_start = Clock::now();
  {
    const auto span = spans.span("bench.analyze");
    {
      // Null for population-sharded traces, which never materialize it.
      const auto panel_span = spans.span("cloudsim.panel_build");
      built.trace->set_telemetry_parallel(ParallelConfig::with_threads(threads));
      if (const TelemetryPanel* panel = built.trace->telemetry_panel())
        it.panel_mib = static_cast<double>(panel->memory_bytes()) / kMiB;
    }
    const AnalysisContext ctx(*built.trace, ParallelConfig::with_threads(threads),
                              &registry);
    it.products = write_products(ctx, spans);
  }
  it.analyze_s = seconds_since(analyze_start);
  if (const PopulationShardStore* store = built.trace->population_shards())
    it.spill_mib = static_cast<double>(store->spill_bytes()) / kMiB;
  it.stages = std::move(built.stages);
  return it;
}

double histogram_seconds(const obs::MetricsRegistry::Snapshot& s,
                         std::string_view name) {
  for (const auto& h : s.histograms)
    if (h.name == name) return h.sum_seconds();
  return 0.0;
}

double stage_seconds(const std::vector<pipeline::StageReport>& stages,
                     std::string_view name) {
  for (const auto& stage : stages)
    if (stage.name == name) return stage.millis * 1e-3;
  return 0.0;
}

/// The timed loop of batch_generated. Untraced runs report the end-to-end
/// metrics; traced runs alternate untraced and traced iterations (the
/// difference is the tracing overhead), then break the suite down per pass
/// and time it at one thread.
void run_batch(const RunConfig& config, const SetupFn& setup,
               const Products& oracle, Outcome& outcome) {
  const std::size_t threads = config.nproc;
  outcome.info("threads", static_cast<double>(threads));
  SpanLog spans;
  obs::MetricsRegistry registry;
  obs::MetricsRegistry& global = obs::MetricsRegistry::global();

  std::vector<double> setup_s, analyze_s, peak_mib, untraced_total, traced_total;
  obs::MetricsRegistry::Snapshot traced_global;
  Iteration traced_last;
  const auto loop_start = Clock::now();
  // Iteration 0 warms the process up (heap growth, first-touch page
  // faults after prepare) and is not recorded.
  const std::size_t min_iterations = config.trace ? 3 : 4;
  for (std::size_t i = 0;
       i < min_iterations || seconds_since(loop_start) < config.seconds; ++i) {
    const bool traced = config.trace && i > 0 && i % 2 == 0;
    spans.set_enabled(traced);
    registry.set_enabled(traced);
    global.set_enabled(traced);
    registry.reset();
    global.reset();
    reset_peak_rss();
    Iteration it = run_iteration(setup, threads, spans, registry);
    const double iteration_peak_mib = peak_rss_mib();
    spans.set_enabled(false);
    registry.set_enabled(false);
    global.set_enabled(false);
    check_products(it.products, oracle, outcome);
    if (i == 0) continue;
    if (traced) {
      traced_total.push_back(it.setup_s + it.analyze_s);
      traced_global = global.snapshot();
      traced_last = std::move(it);
    } else {
      untraced_total.push_back(it.setup_s + it.analyze_s);
      setup_s.push_back(it.setup_s);
      analyze_s.push_back(it.analyze_s);
      if (peak_mib.size() < kRssIterations) peak_mib.push_back(iteration_peak_mib);
    }
  }
  if (!config.trace) {
    outcome.set("setup_s", median(setup_s));
    outcome.set("analyze_s", median(analyze_s));
    outcome.set("peak_rss_mib", median(peak_mib));
    outcome.info("iterations", static_cast<double>(setup_s.size()));
    return;
  }

  const double n_traced = static_cast<double>(traced_total.size());
  const double unattributed =
      spans.unattributed_fraction({"bench.setup", "bench.analyze"});

  // Pass breakdown and thread speedup over one more (untimed) set-up.
  Built built = setup(spans, registry, threads);
  built.trace->set_telemetry_parallel(ParallelConfig::with_threads(threads));
  built.trace->telemetry_panel();
  spans.set_enabled(true);
  {
    const auto span = spans.span("bench.breakdown");
    pass_breakdown(AnalysisContext(*built.trace, ParallelConfig::with_threads(threads)),
                   spans, outcome);
  }
  spans.set_enabled(false);
  SpanLog off;
  const auto many_start = Clock::now();
  write_products(AnalysisContext(*built.trace, ParallelConfig::with_threads(threads)), off);
  const double many_s = seconds_since(many_start);
  const auto one_start = Clock::now();
  check_products(write_products(AnalysisContext(*built.trace, ParallelConfig::with_threads(1)), off),
                 oracle, outcome);
  const double one_s = seconds_since(one_start);

  const auto self = spans.self_seconds();
  const auto per_iteration = [&](const std::string& name) {
    const auto found = self.find(name);
    return found == self.end() ? 0.0 : found->second / n_traced;
  };
  const auto global_count = [&](std::string_view name) {
    return static_cast<double>(traced_global.counter(name));
  };

  outcome.set("workloads.make_scenario_s", per_iteration("workloads.make_scenario"));
  outcome.set("cloudsim.sim_events", global_count("sim.events"));
  outcome.set("cloudsim.alloc_nodes_scanned_per_placement",
              ratio(global_count("alloc.nodes_scanned"), global_count("alloc.attempts")));
  outcome.set("cloudsim.panel_build_s", per_iteration("cloudsim.panel_build"));
  outcome.set("cloudsim.panel_mib", traced_last.panel_mib);
  outcome.check(global_count("population.shard_page_ins") == 0,
                "the generated path pages in no population shard");
  outcome.set("analysis.report_s", per_iteration("analysis.report"));
  outcome.set("analysis.figures_s", per_iteration("analysis.figures"));
  outcome.set("kb.extract_all_s", per_iteration("kb.extract_all"));
  outcome.set("kb.records", static_cast<double>(traced_last.products.kb_records));
  outcome.set("kernels.pearson_calls", global_count("kernels.pearson_calls"));
  outcome.set("kernels.fft_stages", global_count("kernels.fft_stages"));
  outcome.set("kernels.noise_fills", global_count("kernels.noise_fills"));
  outcome.set("bench.trace_overhead_frac",
              median(traced_total) / median(untraced_total) - 1.0);
  outcome.set("bench.unattributed_frac", unattributed);
  outcome.set("bench.thread_speedup", one_s / many_s);
  if (!spans.write_chrome_json(config.trace_path))
    std::fprintf(stderr, "cannot write %s\n", config.trace_path.c_str());
}

/// Per-layer metrics of the path real traces take: CSVs imported through
/// run_trace_plan straight into population shards under a tight budget,
/// then the product suite, once, checked against a resident 1-thread
/// oracle of the same CSVs.
void paged_import_probe(const RunConfig& config, Outcome& outcome) {
  const std::string csv_dir = config.work_dir + "/csv";
  std::filesystem::create_directories(csv_dir);
  {
    const workloads::ScenarioOptions sized =
        sized_scenario(config.seed, kPagedScale, config.nproc, kPagedRows, 0.015,
                       utilization_ticks);
    const workloads::Scenario scenario = workloads::make_scenario(sized);
    std::ofstream topology(csv_dir + "/topology.csv");
    std::ofstream vms(csv_dir + "/vmtable.csv");
    std::ofstream utilization(csv_dir + "/utilization.csv");
    export_topology(*scenario.topology, topology);
    export_vm_table(*scenario.trace, vms);
    TraceExportOptions all_vms;
    all_vms.max_vms_with_utilization = 0;
    export_utilization(*scenario.trace, utilization, all_vms);
    CL_CHECK_MSG(topology.good() && vms.good() && utilization.good(),
                 "cannot write the probe CSVs under " << csv_dir);
    outcome.info("probe_scale", sized.scale);
  }
  std::uintmax_t csv_bytes = 0;
  for (const char* name : {"topology.csv", "vmtable.csv", "utilization.csv"})
    csv_bytes += std::filesystem::file_size(csv_dir + "/" + name);

  const auto plan = [&](std::uint32_t record_shards, std::size_t threads,
                        obs::MetricsRegistry* metrics) {
    pipeline::RunPlanOptions options;
    options.trace_dir = csv_dir;
    options.trace_backend = "cloudlens";
    options.cache_enabled = false;
    options.want_panel = record_shards == 0;
    options.record_shards = record_shards;
    options.shard_budget_mib = kPagedBudgetMib;
    options.parallel = ParallelConfig::with_threads(threads);
    options.metrics = metrics;
    return options;
  };
  const auto built_from = [](pipeline::ResolvedRun run) {
    Built built;
    built.topology = std::move(run.trace->topology);
    built.trace = std::move(run.trace->trace);
    built.stages = std::move(run.reports);
    return built;
  };

  SpanLog off;
  Products oracle;
  {
    obs::MetricsRegistry unused;
    Built built = built_from(pipeline::run_trace_plan(plan(0, 1, &unused)));
    outcome.info("probe_vms", static_cast<double>(built.trace->vm_count()));
    oracle = write_products(AnalysisContext(*built.trace, ParallelConfig::with_threads(1)), off);
  }
  outcome.info("probe_csv_bytes", static_cast<double>(csv_bytes));
  outcome.info("probe_record_shards", kPagedShards);
  outcome.info("probe_shard_budget_mib", static_cast<double>(kPagedBudgetMib));

  obs::MetricsRegistry registry;
  obs::MetricsRegistry& global = obs::MetricsRegistry::global();
  registry.set_enabled(true);
  global.set_enabled(true);
  global.reset();
  const SetupFn setup = [&](SpanLog&, obs::MetricsRegistry& metrics, std::size_t threads) {
    return built_from(pipeline::run_trace_plan(plan(kPagedShards, threads, &metrics)));
  };
  const Iteration it = run_iteration(setup, config.nproc, off, registry);
  registry.set_enabled(false);
  global.set_enabled(false);
  check_products(it.products, oracle, outcome);

  const obs::MetricsRegistry::Snapshot counters = global.snapshot();
  const obs::MetricsRegistry::Snapshot ingest = registry.snapshot();
  const auto global_count = [&](std::string_view name) {
    return static_cast<double>(counters.counter(name));
  };
  const double page_ins = global_count("population.shard_page_ins");
  outcome.set("cloudsim.pop_spill_mib", it.spill_mib);
  outcome.set("cloudsim.pop_page_ins", page_ins);
  outcome.set("cloudsim.pop_page_ins_per_shard", page_ins / kPagedShards);
  outcome.set("cloudsim.pop_evictions", global_count("population.shard_evictions"));
  outcome.set("cloudsim.pop_record_reads", global_count("population.shard_record_reads"));
  outcome.set("cloudsim.pop_paged_suite_s", it.analyze_s);
  const double import_s = histogram_seconds(ingest, "ingest.decode_seconds");
  outcome.set("ingest.import_s", import_s);
  outcome.set("ingest.rows_decoded", static_cast<double>(ingest.counter("ingest.rows_decoded")));
  outcome.set("ingest.decode_mib_per_s",
              ratio(static_cast<double>(ingest.counter("ingest.bytes_decoded")) / kMiB, import_s));
  outcome.set("pipeline.trace_stage_s", stage_seconds(it.stages, "trace"));
  outcome.set("pipeline.pop_shards_stage_s", stage_seconds(it.stages, "pop-shards"));
}

}  // namespace

void run_batch_generated(const RunConfig& config, Outcome& outcome) {
  const workloads::ScenarioOptions sized =
      sized_scenario(config.seed, kGeneratedScale, config.nproc, kGeneratedVms, 0.015, vm_count);
  const SetupFn setup = [&sized](SpanLog& spans, obs::MetricsRegistry&,
                                 std::size_t threads) {
    workloads::ScenarioOptions options = sized;
    options.parallel = ParallelConfig::with_threads(threads);
    const auto span = spans.span("workloads.make_scenario");
    workloads::Scenario scenario = workloads::make_scenario(options);
    Built built;
    built.topology = std::move(scenario.topology);
    built.trace = std::move(scenario.trace);
    return built;
  };

  // Prepare: the oracle is a resident 1-thread analysis of the same inputs.
  SpanLog off;
  obs::MetricsRegistry unused;
  Products oracle;
  {
    Built built = setup(off, unused, config.nproc);
    oracle = write_products(AnalysisContext(*built.trace, ParallelConfig::with_threads(1)), off);
    outcome.info("vms", static_cast<double>(built.trace->vm_count()));
  }
  outcome.info("scale", sized.scale);
  run_batch(config, setup, oracle, outcome);
  if (config.trace) paged_import_probe(config, outcome);
}

}  // namespace perfbench
