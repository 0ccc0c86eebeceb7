// Shared plumbing of the benchmark's workloads: the run configuration,
// the outcome a run reports, timing and peak-RSS helpers, and the
// product suite every workload writes and checks.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/context.h"
#include "kb/extractor.h"
#include "workloads/generator.h"
#include "span_log.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// num / den, or 0 when den is not positive.
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for CSVs, spill shards and checkpoints.
  std::string work_dir;
  /// Where the traced run writes its Chrome Trace JSON.
  std::string trace_path;
  /// Hardware threads: load-generator plus engine threads stay within it.
  std::size_t nproc = 1;
};

/// Checked operations, measured values and provenance of one run; printed
/// by main() as one JSON line that run.py turns into the result.
class Outcome {
 public:
  /// One checked operation; a failure is also reported on stderr.
  void check(bool ok, std::string_view what);
  /// `attempted` operations of which `failed` failed.
  void count(std::uint64_t attempted, std::uint64_t failed, std::string_view what);
  void set(const std::string& name, double value);
  void info(const std::string& key, double value);
  void info(const std::string& key, const std::string& value);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::string to_json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, double>> metrics_;
  /// Values are stored JSON-encoded.
  std::vector<std::pair<std::string, std::string>> info_;
};

/// Returns free heap pages to the OS and resets the kernel's RSS
/// high-water mark (Linux /proc/self/clear_refs), so peak_rss_mib() covers
/// only what follows. False when unsupported.
bool reset_peak_rss();
/// VmHWM of this process in MiB.
double peak_rss_mib();

/// Scenario options at `scale` whose scenario has `size` within a
/// `tolerance` share of `target`, or the closest of 48 draws. At one
/// scale, the populations of different generator seeds differ in size by
/// up to ~15% (VM count) or more (utilization rows), and the work of a run
/// with them. The generator seed is `seed` itself when its scenario fits,
/// else a seed of a stream derived from it, so each benchmark seed still
/// names its own population.
cloudlens::workloads::ScenarioOptions sized_scenario(
    std::uint64_t seed, double scale, std::size_t threads, double target,
    double tolerance,
    const std::function<double(const cloudlens::workloads::Scenario&)>& size);

/// Sizes: the scenario's VM count, and its utilization VM-ticks (telemetry
/// ticks at which a VM with a utilization model is alive, the rows a
/// full utilization export writes).
double vm_count(const cloudlens::workloads::Scenario& scenario);
double utilization_ticks(const cloudlens::workloads::Scenario& scenario);

/// The product suite: the characterization report, every figure CSV and
/// the knowledge-base CSV, each reduced to an FNV-1a digest of its bytes.
struct Products {
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  std::size_t kb_records = 0;
};

std::uint64_t fnv1a(std::string_view bytes);

/// KB extraction settings of the CLI's analysis commands.
cloudlens::kb::ExtractorOptions cli_kb_options();

/// Writes every product through the public analysis entry points, one
/// span per layer call ("analysis.report", "analysis.figures",
/// "kb.extract_all").
Products write_products(const cloudlens::AnalysisContext& ctx,
                        SpanLog& spans);

/// One checked operation per oracle product: name and digest must match.
void check_products(const Products& got, const Products& oracle,
                    Outcome& outcome);

/// Every figure CSV framed by "== name ==" lines, the way the serve
/// engine answers the "figures" query.
std::string framed_figures(const cloudlens::AnalysisContext& ctx);

/// Calls each public analysis pass once on its own, for both clouds, with
/// the settings the report uses; one span ("analysis.<pass>") and one
/// metric ("analysis.<pass>_s") per pass.
void pass_breakdown(const cloudlens::AnalysisContext& ctx, SpanLog& spans,
                    Outcome& outcome);

void run_batch_generated(const RunConfig& config, Outcome& outcome);
void run_serve_live(const RunConfig& config, Outcome& outcome);

}  // namespace perfbench
