// Cold-vs-warm pipeline bench: runs the full trace -> kb plan
// twice against the same artifact cache and reports the wall-clock win of
// the warm path, with a content checksum proving the cached artifacts
// reproduce fresh generation exactly. Emits BENCH_pipeline.json.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include "bench_common.h"
#include "cloudsim/telemetry_panel.h"
#include "pipeline/content_hash.h"
#include "pipeline/run_plan.h"

namespace cloudlens {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Deterministic checksum over everything the plan produced: VM records,
/// every VM's telemetry row (bit patterns), and the kb CSV.
std::string run_checksum(const pipeline::ResolvedRun& run) {
  pipeline::ContentHash h;
  const TraceStore& trace = *run.trace->trace;
  h.u64(trace.vms().size());
  for (const auto& vm : trace.vms()) {
    h.u64(vm.subscription.value());
    h.u64(vm.node.value());
    h.i64(vm.created);
    h.i64(vm.deleted);
    h.f64(vm.cores);
  }
  // Rows go through scratch, not the panel, so hashing them never holds
  // the whole matrix (the bits are the panel's either way).
  std::vector<double> scratch;
  for (const auto& vm : trace.vms())
    for (double sample : vm_telemetry_row(trace, nullptr, vm.id,
                                          trace.telemetry_grid(), scratch))
      h.f64(sample);
  if (run.knowledge != nullptr) h.str(run.knowledge->to_csv());
  return h.hex();
}

struct Measured {
  pipeline::ResolvedRun run;
  double wall_ms = 0.0;
};

Measured measure(const bench::BenchArgs& args, const std::string& cache_dir) {
  pipeline::RunPlanOptions options;
  options.scenario.scale = args.scale;
  options.scenario.seed = args.seed;
  options.want_kb = true;
  options.cache_dir = cache_dir;
  Measured m;
  const auto start = Clock::now();
  m.run = pipeline::run_trace_plan(options);
  m.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - start)
                  .count();
  return m;
}

}  // namespace
}  // namespace cloudlens

int main(int argc, char** argv) {
  using namespace cloudlens;
  const auto args = bench::parse_args(argc, argv);

  const std::string cache_dir =
      "bench_pipeline_cache." + std::to_string(getpid());
  fs::remove_all(cache_dir);

  bench::banner("pipeline: cold run (compute + store)");
  auto cold = measure(args, cache_dir);
  std::printf("%s", pipeline::render_stage_table(cold.run.reports).c_str());
  std::printf("cold wall: %.0f ms\n", cold.wall_ms);

  bench::banner("pipeline: warm run (cache hits)");
  auto warm = measure(args, cache_dir);
  std::printf("%s", pipeline::render_stage_table(warm.run.reports).c_str());
  std::printf("warm wall: %.0f ms\n", warm.wall_ms);

  const std::string cold_sum = run_checksum(cold.run);
  const std::string warm_sum = run_checksum(warm.run);
  std::uintmax_t cache_bytes = 0;
  for (const auto& entry : fs::directory_iterator(cache_dir))
    cache_bytes += entry.file_size();

  bench::banner("pipeline: verdict");
  std::printf("  checksum cold: %s\n  checksum warm: %s\n", cold_sum.c_str(),
              warm_sum.c_str());
  std::printf("  cache size: %.1f MiB across %zu stages\n",
              double(cache_bytes) / (1024.0 * 1024.0),
              warm.run.reports.size());
  std::printf("  speedup: %.2fx\n", cold.wall_ms / warm.wall_ms);

  bench::ShapeChecks checks;
  checks.expect(cold_sum == warm_sum,
                "warm run reproduces the cold run byte-for-byte");
  for (const auto& report : warm.run.reports)
    checks.expect(report.source == pipeline::StageReport::Source::kCacheHit,
                  "warm stage '" + report.name + "' served from cache");
  checks.expect(warm.wall_ms < cold.wall_ms,
                "warm run is faster than cold");

  bench::BenchJson json("pipeline");
  json.meta()
      .num("scale", args.scale)
      .num("seed", double(args.seed))
      .str("checksum", cold_sum)
      .num("cache_bytes", double(cache_bytes));
  json.record("cold").num("wall_ms", cold.wall_ms).num(
      "stages", double(cold.run.reports.size()));
  json.record("warm")
      .num("wall_ms", warm.wall_ms)
      .num("speedup", cold.wall_ms / warm.wall_ms)
      .num("checksum_match", cold_sum == warm_sum ? 1.0 : 0.0);
  json.write("BENCH_pipeline.json");

  fs::remove_all(cache_dir);
  return checks.exit_code();
}
