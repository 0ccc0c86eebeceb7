// serve_live: a serve daemon restarts from a checkpoint and catches up.
//
// Prepare renders the event stream of an exported and re-imported
// scenario, drains its first part into an engine and checkpoints it. The
// timed part restores that checkpoint (set-up), replays the rest of the
// stream open-loop at a fixed tick rate while two clients send a seeded
// query mix on a fixed schedule (the live phase), and then, on fresh
// restores, drains the same events unpaced and answers every product
// query (drain capacity and product time).
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "analysis/report.h"
#include "bench.h"
#include "cloudsim/trace_io.h"
#include "common/check.h"
#include "ingest/ingest.h"
#include "kb/record.h"
#include "kb/store.h"
#include "obs/metrics.h"
#include "pacing.h"
#include "serve/engine.h"
#include "serve/stream.h"
#include "workloads/generator.h"

namespace perfbench {

using namespace cloudlens;

namespace {

constexpr double kServeScale = 0.05;
/// VMs whose utilization is exported, and so streamed as samples: few
/// enough that a `kb` or `shares` miss costs tens of milliseconds.
constexpr std::size_t kUtilizationVms = 200;
/// Which VMs the cap keeps varies from seed to seed, and with it the
/// stream and the analyses' work (by up to 3x), so the scenario is sized
/// by the rows the capped export writes rather than by its VM count.
constexpr double kUtilizationRows = 160000;
/// Share of the grid's ticks drained before the checkpoint. The rest,
/// over 1,000 ticks, is replayed, so the per-tick lag has a p99.
constexpr double kCheckpointShare = 0.45;
/// Length of the paced live phase; --seconds beyond it go to drains.
constexpr double kLiveSeconds = 15.0;

/// Each client's schedule: how many queries of each kind it sends over
/// the live phase, in a seeded order. Mostly cheap `stats` queries, which
/// still wait for the query lock behind any `shares`/`kb`/`insights`
/// miss. Across both clients: 1,310 queries, 1,080 of them `stats` (a
/// p99 each), 108 `shares` and 110 `kb` (a p90 each). The misses keep
/// the single engine thread about a quarter busy, so queues stay short.
struct QueryKind {
  const char* what;
  std::size_t per_client;
};
constexpr QueryKind kMix[] = {{"stats", 540},
                              {"shares,private", 27},
                              {"shares,public", 27},
                              {"kb", 55},
                              {"insights", 6}};
constexpr std::size_t kQueryClients = 2;
/// Recorded drains whose peak RSS counts (a fixed count: fragmentation
/// makes later drains' peaks creep up).
constexpr std::size_t kRssDrains = 3;

/// The post-checkpoint events, grouped by telemetry tick.
struct Replay {
  std::vector<std::string> lines;
  /// Group g is lines[g == 0 ? 0 : group_end[g-1], group_end[g]).
  std::vector<std::size_t> group_end;
};

/// Batch answers the caught-up engine must reproduce byte for byte.
struct Oracle {
  std::string report;
  std::string figures;
  std::string kb;
};

struct LiveStats {
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> latency_by_kind;
  Lateness generator;
  Lateness ingest_lag;
  double ingest_busy_s = 0.0;
  std::size_t malformed = 0;
};

/// Utilization rows the capped export writes: the samples the event
/// stream will carry.
double utilization_rows(const workloads::Scenario& scenario) {
  std::ostringstream rows;
  TraceExportOptions options;
  options.max_vms_with_utilization = kUtilizationVms;
  export_utilization(*scenario.trace, rows, options);
  const std::string text = rows.str();
  return static_cast<double>(std::count(text.begin(), text.end(), '\n'));
}

bool well_formed(const std::string& what, const std::string& answer) {
  if (what == "stats") return answer.rfind("events=", 0) == 0;
  if (what == "kb") return answer.rfind(kb::csv_header() + "\n", 0) == 0;
  if (what == "insights") return answer.find("Insight 4") != std::string::npos;
  const std::string cloud = what.substr(what.find(',') + 1);
  return answer.rfind("cloud,diurnal", 0) == 0 &&
         answer.find("\n" + cloud + ",") != std::string::npos;
}

/// Replays `replay` open-loop at `tick_rate` per second while the query
/// clients follow their schedules. Returns when every scheduled operation
/// has completed.
LiveStats run_live(serve::ServeEngine& engine, const Replay& replay,
                   double live_s, std::uint64_t seed) {
  LiveStats stats;
  std::mutex stats_mu;
  const double tick_rate = static_cast<double>(replay.group_end.size()) / live_s;
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto at = [&](double offset_s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_s));
  };
  const auto offset_now = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::vector<std::exception_ptr> errors(1 + kQueryClients);

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    try {
      std::size_t begin = 0;
      for (std::size_t g = 0; g < replay.group_end.size(); ++g) {
        const double due = static_cast<double>(g) / tick_rate;
        std::this_thread::sleep_until(at(due));
        const auto busy_start = Clock::now();
        for (std::size_t i = begin; i < replay.group_end[g]; ++i)
          engine.ingest_line(replay.lines[i]);
        begin = replay.group_end[g];
        stats.ingest_busy_s += seconds_since(busy_start);
        stats.ingest_lag.record(due, offset_now());
      }
    } catch (...) {
      errors[0] = std::current_exception();
    }
  });

  for (std::size_t c = 0; c < kQueryClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        std::vector<std::string> kinds;
        for (const QueryKind& kind : kMix) kinds.insert(kinds.end(), kind.per_client, kind.what);
        std::mt19937_64 rng(seed * 1000003ULL + c);
        std::shuffle(kinds.begin(), kinds.end(), rng);
        const double rate = static_cast<double>(kinds.size()) / live_s;
        const auto due = fixed_rate_schedule(
            kinds.size(), rate, static_cast<double>(c) / (rate * kQueryClients));
        Lateness late;
        std::vector<std::pair<std::string, double>> latencies;
        std::size_t malformed = 0;
        double free_at = 0.0;
        for (std::size_t q = 0; q < kinds.size(); ++q) {
          const std::string& what = kinds[q];
          const double d = due[q];
          std::this_thread::sleep_until(at(d));
          late.record(std::max(d, free_at), offset_now());
          const std::string answer = engine.query(what);
          free_at = offset_now();
          latencies.emplace_back(what, (free_at - d) * 1e3);
          if (!well_formed(what, answer)) ++malformed;
        }
        std::lock_guard<std::mutex> lock(stats_mu);
        for (const auto& [what, ms] : latencies) {
          stats.latency_ms.push_back(ms);
          stats.latency_by_kind[what].push_back(ms);
        }
        stats.generator.merge(late);
        stats.malformed += malformed;
      } catch (...) {
        errors[1 + c] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
  return stats;
}

}  // namespace

void run_serve_live(const RunConfig& config, Outcome& outcome) {
  // --- prepare (untimed) ---------------------------------------------------
  const std::string checkpoint_dir = config.work_dir + "/checkpoint";
  std::filesystem::create_directories(checkpoint_dir);
  Oracle oracle;
  Replay replay;
  std::string checkpoint;
  std::size_t stream_events = 0;
  {
    const workloads::ScenarioOptions sized =
        sized_scenario(config.seed, kServeScale, config.nproc, kUtilizationRows, 0.03,
                       utilization_rows);
    outcome.info("scale", sized.scale);
    const workloads::Scenario scenario = workloads::make_scenario(sized);
    std::ostringstream topo_csv, vm_csv, util_csv;
    export_topology(*scenario.topology, topo_csv);
    export_vm_table(*scenario.trace, vm_csv);
    TraceExportOptions export_options;
    export_options.max_vms_with_utilization = kUtilizationVms;
    export_utilization(*scenario.trace, util_csv, export_options);
    std::istringstream topo_in(topo_csv.str()), vm_in(vm_csv.str()),
        util_in(util_csv.str());
    const ImportedTrace batch =
        import_trace(topo_in, vm_in, &util_in, scenario.trace->telemetry_grid());
    outcome.info("vms", static_cast<double>(batch.trace->vm_count()));

    const AnalysisContext serial(*batch.trace, ParallelConfig::with_threads(1));
    std::ostringstream report;
    analysis::write_characterization_report(serial, report);
    oracle.report = report.str();
    oracle.figures = framed_figures(serial);
    oracle.kb = kb::KnowledgeBase(kb::extract_all(serial, serve::ServeOptions{}.kb_options))
                    .to_csv();

    std::ostringstream stream;
    serve::write_event_stream(*batch.topology, *batch.trace, stream);
    std::vector<std::string> lines;
    std::istringstream in(stream.str());
    for (std::string line; std::getline(in, line);) lines.push_back(std::move(line));
    stream_events = lines.size();

    const TimeGrid grid = batch.trace->telemetry_grid();
    const SimTime split = grid.at(static_cast<std::size_t>(
        kCheckpointShare * static_cast<double>(grid.count)));
    serve::ServeOptions options;
    options.checkpoint_dir = checkpoint_dir;
    options.parallel = ParallelConfig::with_threads(config.nproc);
    serve::ServeEngine primary(options);
    for (const std::string& line : lines) {
      const auto ts = serve::event_timestamp(line);
      if (ts && *ts >= split) break;
      primary.ingest_line(line);
    }
    const SimTime cut = primary.cutoff();
    checkpoint = primary.checkpoint();

    // Every event at or past the cutoff replays on top of the checkpoint,
    // including those of the incomplete tick the primary had already seen.
    std::int64_t group_tick = -1;
    for (const std::string& line : lines) {
      const auto ts = serve::event_timestamp(line);
      if (!ts || *ts < cut) continue;
      const std::int64_t tick = (*ts - grid.start) / grid.step;
      if (tick != group_tick && !replay.lines.empty())
        replay.group_end.push_back(replay.lines.size());
      group_tick = tick;
      replay.lines.push_back(line);
    }
    replay.group_end.push_back(replay.lines.size());
  }
  outcome.info("stream_events", static_cast<double>(stream_events));
  outcome.info("replay_events", static_cast<double>(replay.lines.size()));
  outcome.info("replay_ticks", static_cast<double>(replay.group_end.size()));
  outcome.info("checkpoint_mib",
               static_cast<double>(std::filesystem::file_size(checkpoint)) / (1024.0 * 1024.0));

  // --- timed ---------------------------------------------------------------
  SpanLog spans;
  obs::MetricsRegistry registry;
  obs::MetricsRegistry& global = obs::MetricsRegistry::global();
  std::vector<double> setup_s, traced_restore_s;
  const auto restore = [&](std::size_t threads) {
    serve::ServeOptions options;
    options.parallel = ParallelConfig::with_threads(threads);
    options.metrics = &registry;
    auto engine = std::make_unique<serve::ServeEngine>(options);
    const auto start = Clock::now();
    {
      const auto span = spans.span("bench.setup");
      const auto restore_span = spans.span("cloudsim.checkpoint_restore");
      engine->restore_checkpoint(checkpoint);
    }
    const double s = seconds_since(start);
    setup_s.push_back(s);
    if (spans.enabled()) traced_restore_s.push_back(s);
    return engine;
  };

  // Drains: on fresh restores configured like the live engine, replay the
  // same events unpaced with no queries (capacity), then answer every
  // product. They run before and after the live phase, so their medians
  // span the whole run rather than its last part.
  const std::size_t load_threads = 1 + kQueryClients;
  const std::size_t live_engine_threads =
      config.nproc > load_threads ? config.nproc - load_threads : 1;
  std::vector<double> drain_rate, analyze_s, peak_mib, untraced_total, traced_total;
  obs::MetricsRegistry::Snapshot traced_global;
  std::unique_ptr<serve::ServeEngine> caught_up;
  std::size_t drains = 0;
  const auto drain_once = [&] {
    // Drain 0 warms the process up and is not recorded; traced runs
    // alternate untraced and traced drains.
    const std::size_t i = drains++;
    const bool traced = config.trace && i > 0 && i % 2 == 0;
    spans.set_enabled(traced);
    global.set_enabled(traced);
    registry.set_enabled(traced);
    global.reset();
    caught_up.reset();
    reset_peak_rss();
    const auto total_start = Clock::now();
    caught_up = restore(live_engine_threads);
    const auto ingest_start = Clock::now();
    {
      const auto span = spans.span("bench.drain");
      const auto ingest_span = spans.span("serve.ingest");
      for (const std::string& line : replay.lines) caught_up->ingest_line(line);
    }
    const double drain_s = seconds_since(ingest_start);
    const auto analyze_start = Clock::now();
    std::string report, figures, kb_csv;
    {
      const auto span = spans.span("bench.analyze");
      {
        const auto q = spans.span("serve.query.report");
        report = caught_up->query("report");
      }
      {
        const auto q = spans.span("serve.query.figures");
        figures = caught_up->query("figures");
      }
      {
        const auto q = spans.span("serve.query.kb");
        kb_csv = caught_up->query("kb");
      }
    }
    const double products_s = seconds_since(analyze_start);
    const double total_s = seconds_since(total_start);
    const double iteration_peak_mib = peak_rss_mib();
    spans.set_enabled(false);
    global.set_enabled(false);
    registry.set_enabled(false);
    outcome.check(report == oracle.report, "drained report byte-matches the batch report");
    outcome.check(figures == oracle.figures, "drained figures byte-match the batch figures");
    outcome.check(kb_csv == oracle.kb, "drained kb byte-matches the batch kb");
    if (i == 0) return;
    if (traced) {
      traced_total.push_back(total_s);
      traced_global = global.snapshot();
    } else {
      untraced_total.push_back(total_s);
      drain_rate.push_back(static_cast<double>(replay.lines.size()) / drain_s);
      analyze_s.push_back(products_s);
      if (peak_mib.size() < kRssDrains) peak_mib.push_back(iteration_peak_mib);
    }
  };
  const double drain_budget = std::max(0.0, config.seconds - kLiveSeconds) / 2.0;
  const auto drain_for = [&](std::size_t until_drains) {
    const auto start = Clock::now();
    while (drains < until_drains || seconds_since(start) < drain_budget) drain_once();
  };

  drain_for(3);
  caught_up.reset();

  // Live phase: one ingester plus the query clients; the engine's own
  // analyses get the remaining hardware threads.
  spans.set_enabled(config.trace);
  registry.set_enabled(config.trace);
  LiveStats live;
  obs::MetricsRegistry::Snapshot live_counters;
  {
    auto engine = restore(live_engine_threads);
    {
      const auto span = spans.span("bench.live");
      live = run_live(*engine, replay, kLiveSeconds, config.seed);
    }
    live_counters = registry.snapshot();
    outcome.check(engine->query("report") == oracle.report,
                  "caught-up live engine's report byte-matches the batch report");
  }
  spans.set_enabled(false);
  registry.set_enabled(false);
  outcome.count(live.latency_ms.size(), live.malformed, "live query answers are well-formed");

  drain_for(drains + 2);

  outcome.info("live_queries", static_cast<double>(live.latency_ms.size()));
  outcome.info("live_tick_rate_per_s",
               static_cast<double>(replay.group_end.size()) / kLiveSeconds);
  outcome.info("live_engine_threads", static_cast<double>(live_engine_threads));

  if (!config.trace) {
    outcome.set("setup_s", median(setup_s));
    outcome.set("analyze_s", median(analyze_s));
    outcome.set("peak_rss_mib", median(peak_mib));
    outcome.info("drains", static_cast<double>(analyze_s.size()));
    return;
  }

  // --- per-layer (traced run) ----------------------------------------------
  const auto tail = [&](const std::vector<double>& samples, double p,
                        const std::string& what) {
    const auto value = supported_percentile(samples, p);
    outcome.check(value.has_value(), "enough samples for " + what);
    return value.value_or(summarize_tail(samples).tail);
  };
  std::vector<double> shares = live.latency_by_kind["shares,private"];
  const auto& shares_public = live.latency_by_kind["shares,public"];
  shares.insert(shares.end(), shares_public.begin(), shares_public.end());
  const auto counter = [&](std::string_view name) {
    return static_cast<double>(live_counters.counter(name));
  };

  outcome.set("serve.queries", static_cast<double>(live.latency_ms.size()));
  outcome.set("serve.query_p50_ms", median(live.latency_ms));
  outcome.set("serve.query_p99_ms", tail(live.latency_ms, 99.0, "query p99"));
  outcome.set("serve.query_stats_p99_ms",
              tail(live.latency_by_kind["stats"], 99.0, "stats p99"));
  outcome.set("serve.query_shares_p50_ms", median(shares));
  outcome.set("serve.query_shares_p90_ms", tail(shares, 90.0, "shares p90"));
  outcome.set("serve.query_kb_p90_ms", tail(live.latency_by_kind["kb"], 90.0, "kb p90"));
  outcome.set("serve.ingest_lag_p99_ms",
              tail(live.ingest_lag.samples_ms(), 99.0, "ingest lag p99"));
  outcome.set("serve.generator_late_p99_ms",
              tail(live.generator.samples_ms(), 99.0, "generator lateness p99"));
  outcome.set("serve.ingest_busy_s", live.ingest_busy_s);
  outcome.set("serve.drain_events_per_s", median(drain_rate));
  const double built = counter("serve.snapshots_built");
  outcome.set("serve.snapshots_built", built);
  outcome.set("serve.snapshot_reuse_ratio",
              ratio(counter("serve.snapshot_reuses"), built + counter("serve.snapshot_reuses")));
  const double kb_reused = counter("serve.kb_records_reused");
  outcome.set("serve.kb_reuse_ratio",
              ratio(kb_reused, kb_reused + counter("serve.kb_records_recomputed")));

  const auto self = spans.self_seconds();
  const double n_traced = static_cast<double>(traced_total.size());
  const auto per_drain = [&](const std::string& name) {
    const auto found = self.find(name);
    return found == self.end() ? 0.0 : found->second / n_traced;
  };
  outcome.set("cloudsim.checkpoint_restore_s", median(traced_restore_s));
  outcome.set("analysis.report_s", per_drain("serve.query.report"));
  outcome.set("analysis.figures_s", per_drain("serve.query.figures"));
  outcome.set("kb.extract_all_s", per_drain("serve.query.kb"));
  outcome.set("kernels.pearson_calls", static_cast<double>(traced_global.counter("kernels.pearson_calls")));
  outcome.set("kernels.fft_stages", static_cast<double>(traced_global.counter("kernels.fft_stages")));
  outcome.set("kernels.noise_fills", static_cast<double>(traced_global.counter("kernels.noise_fills")));
  outcome.set("bench.trace_overhead_frac", median(traced_total) / median(untraced_total) - 1.0);
  outcome.set("bench.unattributed_frac",
              spans.unattributed_fraction({"bench.setup", "bench.drain", "bench.analyze"}));

  // Pass breakdown and thread speedup over the caught-up snapshot.
  const auto snapshot = caught_up->snapshot_trace();
  spans.set_enabled(true);
  {
    const auto span = spans.span("bench.breakdown");
    pass_breakdown(AnalysisContext(*snapshot, ParallelConfig::with_threads(config.nproc)), spans,
                   outcome);
  }
  spans.set_enabled(false);
  SpanLog off;
  const auto many_start = Clock::now();
  const Products products =
      write_products(AnalysisContext(*snapshot, ParallelConfig::with_threads(config.nproc)), off);
  const double many_s = seconds_since(many_start);
  const auto one_start = Clock::now();
  write_products(AnalysisContext(*snapshot, ParallelConfig::with_threads(1)), off);
  outcome.set("bench.thread_speedup", seconds_since(one_start) / many_s);
  outcome.set("kb.records", static_cast<double>(products.kb_records));
  if (!spans.write_chrome_json(config.trace_path))
    std::fprintf(stderr, "cannot write %s\n", config.trace_path.c_str());
}

}  // namespace perfbench
