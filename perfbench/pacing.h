// Open-loop load generation: due-time schedules, lateness accounting and
// a percentile summary that never reports a tail it has too few samples
// to support.
//
// An open loop sends operation i at its due time whatever happened to
// operations before it, so the number of operations sent is fixed by the
// schedule, not by how fast the system answers. Latency is taken from the
// due time, which charges a stall to every operation queued behind it
// instead of hiding it (coordinated omission).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Due offsets (seconds from the schedule start) of `count` operations at
/// `rate_per_s`, the first one `phase_s` after the start.
inline std::vector<double> fixed_rate_schedule(std::size_t count,
                                               double rate_per_s,
                                               double phase_s = 0.0) {
  std::vector<double> due(count);
  for (std::size_t i = 0; i < count; ++i)
    due[i] = phase_s + static_cast<double>(i) / rate_per_s;
  return due;
}

/// Nearest-rank percentile (`p` in [0, 100]) of an ascending sample.
inline double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
  return sorted[index];
}

/// Samples strictly above the `p`-th percentile's rank.
inline std::size_t samples_beyond(std::size_t count, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(count));
  return count - std::min(count, static_cast<std::size_t>(rank));
}

/// The `p`-th percentile, or nothing when fewer than ten samples lie
/// beyond it (a tail that rests on one or two samples is noise).
inline std::optional<double> supported_percentile(std::vector<double> samples,
                                                  double p) {
  if (samples_beyond(samples.size(), p) < 10) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return nearest_rank(samples, p);
}

/// Median plus the highest of p99.9, p99, p90 and p50 that has at least
/// ten samples beyond it, and the sample count it rests on.
struct TailSummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_percentile = 0.0;  ///< 0 when even p50 is unsupported
  double tail = 0.0;
};

inline TailSummary summarize_tail(std::vector<double> samples) {
  TailSummary s;
  s.count = samples.size();
  std::sort(samples.begin(), samples.end());
  s.p50 = nearest_rank(samples, 50.0);
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    if (samples_beyond(samples.size(), p) >= 10) {
      s.tail_percentile = p;
      s.tail = nearest_rank(samples, p);
      break;
    }
  }
  return s;
}

/// How late one side of an open loop ran. `record(due, actual)` stores
/// max(0, actual - due) in milliseconds.
class Lateness {
 public:
  void record(double due_s, double actual_s) {
    samples_ms_.push_back(std::max(0.0, actual_s - due_s) * 1e3);
  }
  void merge(const Lateness& other) {
    samples_ms_.insert(samples_ms_.end(), other.samples_ms_.begin(),
                       other.samples_ms_.end());
  }
  const std::vector<double>& samples_ms() const { return samples_ms_; }

 private:
  std::vector<double> samples_ms_;
};

/// Median of a non-empty sample (upper median for even sizes, like
/// nearest_rank).
inline double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return nearest_rank(samples, 50.0);
}

}  // namespace perfbench
