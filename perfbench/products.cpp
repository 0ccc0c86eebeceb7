#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "analysis/deployment.h"
#include "analysis/figures.h"
#include "analysis/insights.h"
#include "analysis/report.h"
#include "analysis/spatial.h"
#include "analysis/temporal.h"
#include "analysis/utilization.h"
#include "bench.h"
#include "common/check.h"
#include "common/rng.h"
#include "kb/store.h"

namespace perfbench {

using namespace cloudlens;

namespace {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  CL_CHECK_MSG(std::isfinite(value), "non-finite benchmark value");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

constexpr CloudType kClouds[] = {CloudType::kPrivate, CloudType::kPublic};

constexpr int kMaxSizingDraws = 48;
constexpr std::uint64_t kSizingSalt = 0x73697a65;  // "size"

}  // namespace

void Outcome::check(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "check failed: %.*s\n", static_cast<int>(what.size()),
               what.data());
}

void Outcome::count(std::uint64_t attempted, std::uint64_t failed,
                    std::string_view what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed != 0)
    std::fprintf(stderr, "check failed %llu of %llu times: %.*s\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted),
                 static_cast<int>(what.size()), what.data());
}

void Outcome::set(const std::string& name, double value) {
  for (auto& [key, v] : metrics_) {
    if (key == name) {
      v = value;
      return;
    }
  }
  metrics_.emplace_back(name, value);
}

void Outcome::info(const std::string& key, double value) {
  info_.emplace_back(key, json_number(value));
}

void Outcome::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, json_string(value));
}

std::string Outcome::to_json() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out += (i ? ", " : "") + json_string(metrics_[i].first) + ": " +
           json_number(metrics_[i].second);
  }
  out += "}, \"provenance\": {";
  for (std::size_t i = 0; i < info_.size(); ++i)
    out += (i ? ", " : "") + json_string(info_[i].first) + ": " + info_[i].second;
  return out + "}}";
}

bool reset_peak_rss() {
  // Hand the heap's free pages back first, so the mark starts from the
  // memory still in use rather than from what prepare left cached.
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  if (!out.good()) return false;
  out << "5";
  out.flush();
  return out.good();
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

workloads::ScenarioOptions sized_scenario(
    std::uint64_t seed, double scale, std::size_t threads, double target,
    double tolerance, const std::function<double(const workloads::Scenario&)>& size) {
  workloads::ScenarioOptions options;
  options.scale = scale;
  options.parallel = ParallelConfig::with_threads(threads);
  std::uint64_t best_seed = seed;
  double best_error = std::numeric_limits<double>::infinity();
  std::uint64_t stream = seed;
  for (int draw = 0; draw < kMaxSizingDraws; ++draw) {
    options.seed = stream;
    const double error = std::abs(size(workloads::make_scenario(options)) - target) / target;
    if (error <= tolerance) return options;
    if (error < best_error) {
      best_error = error;
      best_seed = stream;
    }
    stream = shard_seed(seed, kSizingSalt, static_cast<std::uint64_t>(draw));
  }
  options.seed = best_seed;
  return options;
}

double vm_count(const workloads::Scenario& scenario) {
  return static_cast<double>(scenario.trace->vm_count());
}

double utilization_ticks(const workloads::Scenario& scenario) {
  const TraceStore& trace = *scenario.trace;
  const TimeGrid& grid = trace.telemetry_grid();
  double ticks = 0.0;
  for (std::size_t i = 0; i < trace.vm_count(); ++i) {
    const VmRecord& vm = trace.vm(VmId(static_cast<VmId::underlying>(i)));
    if (vm.utilization == nullptr) continue;
    for (std::size_t k = 0; k < grid.count; ++k) ticks += vm.alive_at(grid.at(k)) ? 1.0 : 0.0;
  }
  return ticks;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

kb::ExtractorOptions cli_kb_options() {
  kb::ExtractorOptions options;
  options.max_classified_vms = 4;
  return options;
}

Products write_products(const AnalysisContext& ctx, SpanLog& spans) {
  Products products;
  {
    const auto span = spans.span("analysis.report");
    std::ostringstream report;
    analysis::write_characterization_report(ctx, report);
    products.digests.emplace_back("report.md", fnv1a(report.str()));
  }
  {
    const auto span = spans.span("analysis.figures");
    std::ostringstream figure;
    std::string name;
    const auto flush = [&] {
      if (!name.empty()) products.digests.emplace_back(name, fnv1a(figure.str()));
    };
    analysis::write_figure_csvs(ctx, [&](const std::string& next) -> std::ostream& {
      flush();
      name = next;
      figure.str({});
      figure.clear();
      return figure;
    });
    flush();
  }
  {
    const auto span = spans.span("kb.extract_all");
    const kb::KnowledgeBase knowledge(kb::extract_all(ctx, cli_kb_options()));
    products.kb_records = knowledge.size();
    products.digests.emplace_back("kb.csv", fnv1a(knowledge.to_csv()));
  }
  return products;
}

void check_products(const Products& got, const Products& oracle,
                    Outcome& outcome) {
  for (std::size_t i = 0; i < oracle.digests.size(); ++i) {
    const bool same = i < got.digests.size() && got.digests[i] == oracle.digests[i];
    outcome.check(same, "product " + oracle.digests[i].first +
                            " differs from the 1-thread resident oracle");
  }
  outcome.check(got.digests.size() == oracle.digests.size(),
                "product count matches the oracle");
}

std::string framed_figures(const AnalysisContext& ctx) {
  std::ostringstream all;
  std::ostringstream current;
  std::string name;
  const auto flush = [&] {
    if (!name.empty()) all << "== " << name << " ==\n" << current.str();
  };
  analysis::write_figure_csvs(ctx, [&](const std::string& next) -> std::ostream& {
    flush();
    name = next;
    current.str({});
    current.clear();
    return current;
  });
  flush();
  return all.str();
}

void pass_breakdown(const AnalysisContext& ctx, SpanLog& spans, Outcome& outcome) {
  const analysis::InsightOptions insight;
  const SimTime snapshot = insight.snapshot;
  const auto pass = [&](const std::string& name, const auto& run) {
    const auto start = Clock::now();
    {
      const auto span = spans.span("analysis." + name);
      for (const CloudType cloud : kClouds) run(cloud);
    }
    outcome.set("analysis." + name + "_s", seconds_since(start));
  };
  pass("deployment", [&](CloudType cloud) {
    analysis::vms_per_subscription(ctx, cloud, snapshot);
    analysis::subscriptions_per_cluster(ctx, cloud, snapshot);
    analysis::vm_size_heatmap(ctx, cloud, snapshot);
    analysis::region_spread(ctx, cloud, snapshot);
  });
  pass("temporal", [&](CloudType cloud) {
    analysis::vm_lifetimes(ctx, cloud);
    analysis::vm_count_per_hour(ctx, cloud, RegionId{});
    analysis::creations_per_hour(ctx, cloud, RegionId{});
    analysis::removals_per_hour(ctx, cloud, RegionId{});
  });
  pass("creation_cv_by_region",
       [&](CloudType cloud) { analysis::creation_cv_by_region(ctx, cloud); });
  pass("node_vm_correlations", [&](CloudType cloud) {
    analysis::node_vm_correlations(ctx, cloud, insight.correlation_max_nodes);
  });
  pass("cross_region_correlations",
       [&](CloudType cloud) { analysis::cross_region_correlations(ctx, cloud); });
  // The report runs region-agnostic detection on the private cloud only.
  pass("detect_region_agnostic", [&](CloudType cloud) {
    if (cloud == CloudType::kPrivate)
      analysis::detect_region_agnostic_services(ctx, cloud,
                                                insight.region_agnostic_correlation);
  });
  pass("utilization_distribution", [&](CloudType cloud) {
    analysis::utilization_distribution(ctx, cloud, insight.classify_max_vms);
  });
  pass("classify_population", [&](CloudType cloud) {
    analysis::classify_population(ctx, cloud, insight.classify_max_vms);
  });
}

}  // namespace perfbench
