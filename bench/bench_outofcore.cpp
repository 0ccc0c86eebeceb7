// Out-of-core sharded-telemetry bench: bounded-RSS streaming analyses.
//
// Demonstrates that the sharded + mmap'd telemetry path runs the heavy
// panel consumers (Fig. 6 utilization bands, Fig. 5 pattern shares,
// Fig. 7 node/VM correlations, kb extraction) on a workload whose
// resident panel would not fit the memory budget — with a peak RSS under
// a hard cap and results bit-identical to the in-memory path.
//
// Phases (each with its own VmHWM window — Linux lets us reset the
// kernel's RSS high-water mark via /proc/self/clear_refs between phases):
//
//   spill       — build the shard store: fill + write K shard snapshots,
//                 one shard in memory at a time;
//   streamed@1  — the analysis suite over mmap'd shards, serial;
//   streamed@N  — same, 8 worker threads (checksum must not move);
//   fallback    — sharding off, panel off: the scratch recompute path,
//                 the bit-identity oracle for the streamed checksums;
//   resident    — optional (--resident=1): the suite over the resident
//                 panel, whose rows fill on first read (the suite time
//                 includes the fills), for the wall-clock and memory
//                 comparison.
//
// Gates (ShapeChecks): streamed checksums at both thread counts equal the
// fallback checksum exactly; streamed VmHWM stays under --rss-limit-mib;
// the resident panel estimate exceeds the cap by at least 2x (i.e. the
// out-of-core machinery was actually load-bearing, not idle); shards were
// really paged in and evicted. Emits BENCH_outofcore.json.
//
// Usage: bench_outofcore [--scale=F] [--seed=N] [--shards=K]
//                        [--budget-mib=N] [--rss-limit-mib=N]
//                        [--rss-gate=0|1] [--resident=0|1] [--out=PATH]
//
// --rss-gate=0 drops the two RSS expectations (the <= cap check and the
// resident-estimate >= 2x cap check) while keeping the checksum and
// paging gates — for sanitizer flavours, where shadow memory makes RSS
// meaningless but the bit-identity contract still must hold.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "analysis/classifier.h"
#include "analysis/context.h"
#include "analysis/spatial.h"
#include "analysis/utilization.h"
#include "bench_common.h"
#include "cloudsim/shard.h"
#include "cloudsim/telemetry_panel.h"
#include "common/table.h"
#include "kb/extractor.h"
#include "kb/store.h"
#include "obs/metrics.h"

using namespace cloudlens;

namespace {

/// FNV-1a over the suite's output values: any single changed bit in any
/// figure series changes the digest.
class Fnv64 {
 public:
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  void bytes(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
    u64(s.size());
  }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The streaming-analysis suite: every consumer the tentpole converted,
/// digested into one checksum. Identical bits => identical digest.
std::uint64_t suite_checksum(const TraceStore& trace,
                             const ParallelConfig& parallel) {
  const AnalysisContext ctx(trace, parallel);
  Fnv64 h;
  for (const CloudType cloud : {CloudType::kPrivate, CloudType::kPublic}) {
    const auto shares = analysis::classify_population(ctx, cloud, 400);
    h.u64(shares.classified);
    h.f64(shares.diurnal);
    h.f64(shares.stable);
    h.f64(shares.irregular);
    h.f64(shares.hourly_peak);

    const auto bands = analysis::utilization_distribution(ctx, cloud, 400);
    h.u64(bands.vms_used);
    for (const auto* series :
         {&bands.weekly.p25, &bands.weekly.p50, &bands.weekly.p75,
          &bands.weekly.p95, &bands.daily_p25, &bands.daily_p50,
          &bands.daily_p75, &bands.daily_p95}) {
      for (const double v : *series) h.f64(v);
    }
  }
  const auto node_rs =
      analysis::node_vm_correlations(ctx, CloudType::kPrivate, 150);
  h.u64(node_rs.size());
  for (const double r : node_rs) h.f64(r);

  kb::ExtractorOptions kb_options;
  kb_options.max_classified_vms = 4;
  const kb::KnowledgeBase knowledge(kb::extract_all(ctx, kb_options));
  h.bytes(knowledge.to_csv());
  return h.digest();
}

/// Peak RSS (VmHWM) in MiB from /proc — unlike ru_maxrss this can be
/// reset per phase via /proc/self/clear_refs.
double vm_hwm_mib() {
#if defined(__linux__)
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;
  }
#endif
  return bench::peak_rss_mib();
}

/// Resets the kernel's RSS high-water mark so the next vm_hwm_mib() call
/// reports the peak of this phase only. Returns false when unsupported.
bool reset_peak_rss() {
#if defined(__linux__)
  std::ofstream out("/proc/self/clear_refs");
  if (!out.good()) return false;
  out << "5";
  out.flush();
  return out.good();
#else
  return false;
#endif
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::parse_args(argc, argv);
  args.scale = 1.0;  // the point is a panel that should NOT sit resident
  std::uint32_t shards = 32;
  std::size_t budget_mib = 64;
  double rss_limit_mib = 256.0;
  bool rss_gate = true;
  bool resident = false;
  std::string out_path = "BENCH_outofcore.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0)
      args.scale = std::atof(argv[i] + 8);
    else if (std::strncmp(argv[i], "--shards=", 9) == 0)
      shards = static_cast<std::uint32_t>(std::atoi(argv[i] + 9));
    else if (std::strncmp(argv[i], "--budget-mib=", 13) == 0)
      budget_mib = static_cast<std::size_t>(std::atoll(argv[i] + 13));
    else if (std::strncmp(argv[i], "--rss-limit-mib=", 16) == 0)
      rss_limit_mib = std::atof(argv[i] + 16);
    else if (std::strncmp(argv[i], "--rss-gate=", 11) == 0)
      rss_gate = std::atoi(argv[i] + 11) != 0;
    else if (std::strncmp(argv[i], "--resident=", 11) == 0)
      resident = std::atoi(argv[i] + 11) != 0;
    else if (std::strncmp(argv[i], "--out=", 6) == 0)
      out_path = argv[i] + 6;
  }

  obs::MetricsRegistry::global().set_enabled(true);

  auto scenario = bench::make_bench_scenario(args);
  TraceStore& trace = *scenario.trace;
  const TimeGrid& grid = trace.telemetry_grid();
  const std::size_t vms = trace.vms().size();

  // What a fully materialized panel WOULD cost (the matrix the shards
  // spill), computed arithmetically: full-resolution rows plus the hourly
  // companion view, 8 bytes a sample, one row per VM.
  const std::size_t hourly_count =
      grid.step > 0 && kHour % grid.step == 0
          ? grid.count / static_cast<std::size_t>(kHour / grid.step)
          : 0;
  const double resident_panel_mib =
      static_cast<double>(vms) *
      static_cast<double>(grid.count + hourly_count) * 8.0 /
      (1024.0 * 1024.0);
  std::printf("  %zu VMs x %zu ticks: a full panel would need %.0f MiB\n",
              vms, grid.count, resident_panel_mib);

  bench::BenchJson json("outofcore");
  json.meta()
      .num("scale", args.scale)
      .num("seed", static_cast<double>(args.seed))
      .num("vms", static_cast<double>(vms))
      .num("shards", shards)
      .num("budget_mib", static_cast<double>(budget_mib))
      .num("rss_limit_mib", rss_limit_mib)
      .num("resident_panel_mib", resident_panel_mib);

  bench::banner("Spill: shard the panel to disk, one shard at a time");
  const std::string spill_dir =
      (std::filesystem::temp_directory_path() /
       ("cloudlens-outofcore-" + std::to_string(args.seed)))
          .string();
  TelemetryShardingOptions sharding;
  sharding.shards = shards;
  sharding.budget_bytes = budget_mib << 20;
  sharding.spill_dir = spill_dir;
  sharding.keep_files = false;
  auto spill_start = std::chrono::steady_clock::now();
  trace.set_telemetry_sharding(sharding);
  const TelemetryShardStore* store = trace.telemetry_shards();
  const double spill_ms = ms_since(spill_start);
  const double spill_mib =
      static_cast<double>(store->spill_bytes()) / (1024.0 * 1024.0);
  std::printf("  %u shards, %.0f MiB spilled in %.1f ms\n", shards, spill_mib,
              spill_ms);
  json.record("spill")
      .num("wall_ms", spill_ms)
      .num("spill_mib", spill_mib)
      .num("shard_files", shards);

  const bool rss_windows = reset_peak_rss();
  if (!rss_windows)
    std::printf("  note: VmHWM reset unavailable; RSS figures are "
                "whole-process peaks\n");

  bench::banner("Streamed analyses over mmap'd shards (1 thread)");
  auto t1_start = std::chrono::steady_clock::now();
  const std::uint64_t sum_1t =
      suite_checksum(trace, ParallelConfig::with_threads(1));
  const double streamed_1t_ms = ms_since(t1_start);
  const double streamed_1t_rss = vm_hwm_mib();
  std::printf("  %.1f ms, peak RSS %.1f MiB, checksum %016llx\n",
              streamed_1t_ms, streamed_1t_rss,
              static_cast<unsigned long long>(sum_1t));
  json.record("streamed_1t")
      .num("wall_ms", streamed_1t_ms)
      .num("peak_rss_mib", streamed_1t_rss);

  reset_peak_rss();
  bench::banner("Streamed analyses over mmap'd shards (8 threads)");
  auto t8_start = std::chrono::steady_clock::now();
  const std::uint64_t sum_8t =
      suite_checksum(trace, ParallelConfig::with_threads(8));
  const double streamed_8t_ms = ms_since(t8_start);
  const double streamed_8t_rss = vm_hwm_mib();
  std::printf("  %.1f ms, peak RSS %.1f MiB, checksum %016llx\n",
              streamed_8t_ms, streamed_8t_rss,
              static_cast<unsigned long long>(sum_8t));
  json.record("streamed_8t")
      .num("wall_ms", streamed_8t_ms)
      .num("peak_rss_mib", streamed_8t_rss);

  const auto metrics = obs::MetricsRegistry::global().snapshot();
  const std::uint64_t page_ins = metrics.counter("panel.shard_page_ins");
  const std::uint64_t evictions = metrics.counter("panel.shard_evictions");
  const std::uint64_t row_reads = metrics.counter("panel.shard_row_reads");
  json.record("paging")
      .num("page_ins", static_cast<double>(page_ins))
      .num("evictions", static_cast<double>(evictions))
      .num("row_reads", static_cast<double>(row_reads));

  bench::banner("Oracle: sharding off, panel off (scratch recompute)");
  trace.clear_telemetry_sharding();
  trace.set_telemetry_panel_enabled(false);
  reset_peak_rss();
  auto fb_start = std::chrono::steady_clock::now();
  const std::uint64_t sum_fallback =
      suite_checksum(trace, ParallelConfig::with_threads(8));
  const double fallback_ms = ms_since(fb_start);
  const double fallback_rss = vm_hwm_mib();
  std::printf("  %.1f ms, peak RSS %.1f MiB, checksum %016llx\n", fallback_ms,
              fallback_rss, static_cast<unsigned long long>(sum_fallback));
  json.record("fallback_no_panel")
      .num("wall_ms", fallback_ms)
      .num("peak_rss_mib", fallback_rss);

  double resident_rss = 0.0, resident_ms = 0.0;
  if (resident) {
    bench::banner("Comparison: resident columnar panel");
    trace.set_telemetry_panel_enabled(true);
    reset_peak_rss();
    auto res_start = std::chrono::steady_clock::now();
    // Reserves the matrices; the suite fills the rows it reads.
    const TelemetryPanel* panel = trace.telemetry_panel();
    const std::uint64_t sum_resident =
        suite_checksum(trace, ParallelConfig::with_threads(8));
    resident_ms = ms_since(res_start);
    resident_rss = vm_hwm_mib();
    const std::size_t rows_filled = panel ? panel->rows_filled() : 0;
    const double panel_mib =
        panel ? static_cast<double>(panel->memory_bytes()) / (1024.0 * 1024.0)
              : 0.0;
    std::printf(
        "  suite %.1f ms filling %zu rows (%.0f MiB), peak RSS %.1f MiB, "
        "checksum %016llx%s\n",
        resident_ms, rows_filled, panel_mib, resident_rss,
        static_cast<unsigned long long>(sum_resident),
        sum_resident == sum_fallback ? "" : "  (MISMATCH)");
    json.record("resident_panel")
        .num("wall_ms", resident_ms)
        .num("rows_filled", static_cast<double>(rows_filled))
        .num("panel_mib", panel_mib)
        .num("peak_rss_mib", resident_rss);
  }

  bench::banner("Summary");
  TextTable table({"config", "wall ms", "peak RSS MiB"});
  table.row().add("spill (build shards)").add(spill_ms, 1).add("-");
  table.row().add("streamed @1t").add(streamed_1t_ms, 1).add(streamed_1t_rss, 1);
  table.row().add("streamed @8t").add(streamed_8t_ms, 1).add(streamed_8t_rss, 1);
  table.row().add("fallback (no panel)").add(fallback_ms, 1).add(fallback_rss, 1);
  if (resident)
    table.row()
        .add("resident panel (incl fills)")
        .add(resident_ms, 1)
        .add(resident_rss, 1);
  std::printf("%s", table.to_string().c_str());
  std::printf("  full panel estimate: %.0f MiB; RSS cap: %.0f MiB\n",
              resident_panel_mib, rss_limit_mib);
  json.write(out_path);

  bench::banner("Shape checks");
  bench::ShapeChecks checks;
  checks.expect(sum_1t == sum_fallback && sum_8t == sum_fallback,
                "streamed checksums at 1 and 8 threads equal the in-memory "
                "oracle exactly");
  if (rss_gate) {
    char gate[128];
    std::snprintf(gate, sizeof gate,
                  "streamed peak RSS stays <= %.0f MiB at both thread counts",
                  rss_limit_mib);
    checks.expect(streamed_1t_rss <= rss_limit_mib &&
                      streamed_8t_rss <= rss_limit_mib,
                  gate);
    checks.expect(resident_panel_mib >= 2.0 * rss_limit_mib,
                  "resident panel estimate is >= 2x the RSS cap (the cap is "
                  "load-bearing)");
  } else {
    std::printf("  (RSS gates skipped: --rss-gate=0)\n");
  }
  if (args.scale >= 1.0)
    checks.expect(resident_panel_mib > 1536.0,
                  "at full scale the resident panel would exceed 1.5 GiB");
  checks.expect(page_ins > 0 && evictions > 0,
                "shards were paged in and evicted under the budget");
  return checks.exit_code();
}
