// Telemetry storage bench: the resident demand-filled panel against
// scratch re-evaluation, on the full user-visible output set.
//
// A telemetry row is a pure function of its VmRecord, so there are two
// ways to serve one: the resident TelemetryPanel, whose rows fill on
// first read and stay, or per-task scratch buffers re-evaluated on every
// read (panel disabled — also what record-sharded runs use). This bench
// runs the characterization report, every figure CSV and the knowledge
// base in both modes at 1 and 8 threads:
//
//   scratch@1   — panel disabled, serial: the byte-identity oracle;
//   scratch@8   — panel disabled, 8 worker threads;
//   resident@1  — panel enabled, serial (suite time includes the fills);
//   resident@8  — panel enabled, 8 worker threads.
//
// The scenario is generated once, serially, and each phase runs in a
// forked child of that process, so every phase starts from the same
// state and gets its own peak-RSS window: a forked child's VmHWM starts at
// the RSS it inherits, so the child's peak is the trace plus that phase.
// (Serial generation keeps the parent free of pool threads before fork;
// outputs are bit-identical at any thread count.)
//
// Gates (ShapeChecks): every phase's report+figures+kb FNV equals the
// scratch@1 oracle; the scratch phases stay under --rss-limit-mib; the
// resident phases really filled panel rows and the scratch phases filled
// none. Emits BENCH_outofcore.json, including the host (nproc, kernel
// tier, --commit).
//
// Usage: bench_outofcore [--scale=F] [--seed=N] [--rss-limit-mib=N]
//                        [--rss-gate=0|1] [--commit=SHA] [--out=PATH]
//
// --rss-gate=0 drops the RSS cap while keeping the checksum and fill
// gates — for sanitizer flavours, where shadow memory makes RSS
// meaningless but the bit-identity contract still must hold.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "analysis/context.h"
#include "analysis/figures.h"
#include "analysis/report.h"
#include "bench_common.h"
#include "cloudsim/telemetry_panel.h"
#include "common/table.h"
#include "kb/extractor.h"
#include "kb/store.h"
#include "stats/kernels/dispatch.h"

using namespace cloudlens;

namespace {

/// FNV-1a over the suite's rendered bytes: any single changed byte in the
/// report, any figure CSV, or the kb CSV changes the digest.
class Fnv64 {
 public:
  void bytes(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
    u64(s.size());
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The full user-visible output set, digested: characterization report
/// markdown, every figure CSV (name + bytes, in emission order), and the
/// knowledge-base CSV. Identical bytes => identical digest.
std::uint64_t suite_checksum(const TraceStore& trace,
                             const ParallelConfig& parallel) {
  const AnalysisContext ctx(trace, parallel);
  Fnv64 h;

  std::ostringstream report;
  analysis::write_characterization_report(ctx, report);
  h.bytes(report.str());

  std::ostringstream figure;
  std::string figure_name;
  const auto flush_figure = [&] {
    if (figure_name.empty()) return;
    h.bytes(figure_name);
    h.bytes(figure.str());
  };
  analysis::write_figure_csvs(ctx, [&](const std::string& name) -> std::ostream& {
    flush_figure();
    figure_name = name;
    figure.str("");
    figure.clear();
    return figure;
  });
  flush_figure();

  kb::ExtractorOptions kb_options;
  kb_options.max_classified_vms = 4;
  const kb::KnowledgeBase knowledge(kb::extract_all(ctx, kb_options));
  h.bytes(knowledge.to_csv());
  return h.digest();
}

/// Peak RSS (VmHWM) in MiB from /proc, falling back to ru_maxrss.
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

/// What one phase measured. Trivially copyable: it crosses a pipe.
struct PhaseResult {
  double wall_ms = 0;
  double peak_rss_mib = 0;
  std::uint64_t checksum = 0;
  std::uint64_t rows_filled = 0;
  double panel_mib = 0;
  bool ok = false;
};

PhaseResult measure_phase(TraceStore& trace, bool panel,
                          std::size_t threads) {
  trace.set_telemetry_panel_enabled(panel);
  PhaseResult r;
  const auto start = std::chrono::steady_clock::now();
  r.checksum = suite_checksum(trace, ParallelConfig::with_threads(threads));
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  r.peak_rss_mib = vm_hwm_mib();
  if (const TelemetryPanel* p = trace.telemetry_panel()) {
    r.rows_filled = p->rows_filled();
    r.panel_mib = static_cast<double>(p->memory_bytes()) / (1024.0 * 1024.0);
  }
  r.ok = true;
  return r;
}

/// Runs measure_phase in a forked child (its own RSS window, the parent's
/// trace untouched); in-process where fork is unavailable.
PhaseResult run_phase(TraceStore& trace, bool panel, std::size_t threads) {
#if defined(__unix__) || defined(__APPLE__)
  int fds[2];
  if (pipe(fds) == 0) {
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      const PhaseResult r = measure_phase(trace, panel, threads);
      const bool sent = write(fds[1], &r, sizeof r) ==
                        static_cast<ssize_t>(sizeof r);
      _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    PhaseResult r;
    const bool got =
        pid > 0 && read(fds[0], &r, sizeof r) == static_cast<ssize_t>(sizeof r);
    close(fds[0]);
    int status = 0;
    if (pid > 0) waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
      return PhaseResult{};
    return r;
  }
#endif
  return measure_phase(trace, panel, threads);
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::parse_args(argc, argv);
  args.scale = 1.0;
  double rss_limit_mib = 256.0;
  bool rss_gate = true;
  std::string commit = "unknown";
  std::string out_path = "BENCH_outofcore.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0)
      args.scale = std::atof(argv[i] + 8);
    else if (std::strncmp(argv[i], "--rss-limit-mib=", 16) == 0)
      rss_limit_mib = std::atof(argv[i] + 16);
    else if (std::strncmp(argv[i], "--rss-gate=", 11) == 0)
      rss_gate = std::atoi(argv[i] + 11) != 0;
    else if (std::strncmp(argv[i], "--commit=", 9) == 0)
      commit = argv[i] + 9;
    else if (std::strncmp(argv[i], "--out=", 6) == 0)
      out_path = argv[i] + 6;
  }

  workloads::ScenarioOptions options;
  options.scale = args.scale;
  options.seed = args.seed;
  options.parallel = ParallelConfig::with_threads(1);
  std::printf("generating dual-cloud scenario (scale=%.2f seed=%llu)...\n",
              args.scale, static_cast<unsigned long long>(args.seed));
  auto scenario = workloads::make_scenario(options);
  TraceStore& trace = *scenario.trace;
  const std::size_t vms = trace.vm_count();
  const double base_rss = vm_hwm_mib();
  std::printf("  %zu VMs; generation peak RSS %.1f MiB\n", vms, base_rss);

  bench::BenchJson json("outofcore");
  json.meta()
      .num("scale", args.scale)
      .num("seed", static_cast<double>(args.seed))
      .num("vms", static_cast<double>(vms))
      .num("rss_limit_mib", rss_limit_mib)
      .num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .str("kernel_tier",
           std::string(stats::kernels::to_string(stats::kernels::active().tier)))
      .str("commit", commit);

  struct Phase {
    const char* name;
    bool panel;
    std::size_t threads;
    PhaseResult result;
  };
  Phase phases[] = {{"scratch_1t", false, 1, {}},
                    {"scratch_8t", false, 8, {}},
                    {"resident_1t", true, 1, {}},
                    {"resident_8t", true, 8, {}}};
  for (Phase& phase : phases) {
    bench::banner(std::string("Phase ") + phase.name);
    phase.result = run_phase(trace, phase.panel, phase.threads);
    const PhaseResult& r = phase.result;
    std::printf("  %.1f ms, peak RSS %.1f MiB, %llu panel rows (%.0f MiB), "
                "checksum %016llx%s\n",
                r.wall_ms, r.peak_rss_mib,
                static_cast<unsigned long long>(r.rows_filled), r.panel_mib,
                static_cast<unsigned long long>(r.checksum),
                r.ok ? "" : "  (PHASE FAILED)");
    json.record(phase.name)
        .num("threads", static_cast<double>(phase.threads))
        .num("wall_ms", r.wall_ms)
        .num("peak_rss_mib", r.peak_rss_mib)
        .num("rows_filled", static_cast<double>(r.rows_filled))
        .num("panel_mib", r.panel_mib);
  }

  bench::banner("Summary");
  TextTable table({"config", "wall ms", "peak RSS MiB", "panel MiB"});
  for (const Phase& phase : phases)
    table.row()
        .add(phase.name)
        .add(phase.result.wall_ms, 1)
        .add(phase.result.peak_rss_mib, 1)
        .add(phase.result.panel_mib, 1);
  std::printf("%s", table.to_string().c_str());
  std::printf("  RSS cap on the scratch phases: %.0f MiB\n", rss_limit_mib);
  json.write(out_path);

  bench::banner("Shape checks");
  bench::ShapeChecks checks;
  const PhaseResult& oracle = phases[0].result;
  bool all_ok = true, same = true;
  for (const Phase& phase : phases) {
    all_ok = all_ok && phase.result.ok;
    same = same && phase.result.checksum == oracle.checksum;
  }
  checks.expect(all_ok, "every phase ran to completion");
  checks.expect(same,
                "report/figure/kb checksums of every phase equal the "
                "scratch@1 oracle exactly");
  if (rss_gate) {
    char gate[128];
    std::snprintf(gate, sizeof gate,
                  "scratch peak RSS stays <= %.0f MiB at both thread counts",
                  rss_limit_mib);
    checks.expect(phases[0].result.peak_rss_mib <= rss_limit_mib &&
                      phases[1].result.peak_rss_mib <= rss_limit_mib,
                  gate);
  } else {
    std::printf("  (RSS gate skipped: --rss-gate=0)\n");
  }
  checks.expect(phases[0].result.rows_filled == 0 &&
                    phases[1].result.rows_filled == 0 &&
                    phases[2].result.rows_filled > 0 &&
                    phases[3].result.rows_filled > 0,
                "the resident phases filled panel rows; the scratch phases "
                "filled none");
  return checks.exit_code();
}
