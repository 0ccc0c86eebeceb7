#include "span_log.h"

#include <algorithm>
#include <fstream>
#include <numeric>

#include "obs/metrics.h"

namespace perfbench {

SpanLog::Scope::Scope(SpanLog* log, std::string name)
    : log_(log != nullptr && log->enabled() ? log : nullptr),
      name_(std::move(name)) {
  if (log_ != nullptr) start_ns_ = cloudlens::obs::now_ns();
}

SpanLog::Scope::~Scope() {
  if (log_ != nullptr)
    log_->add(std::move(name_), start_ns_, cloudlens::obs::now_ns());
}

SpanLog::SpanLog() = default;

void SpanLog::add(std::string name, std::uint64_t start_ns,
                  std::uint64_t end_ns) {
  sink_.record(name, "bench", start_ns, end_ns - start_ns);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(
      {std::move(name), start_ns, end_ns, cloudlens::obs::thread_index()});
}

std::vector<SpanLog::Event> SpanLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::vector<std::size_t> SpanLog::parents(
    const std::vector<Event>& events) const {
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Per thread, outer spans first: an enclosing span starts no later and
  // ends no earlier than anything inside it.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Event& x = events[a];
    const Event& y = events[b];
    if (x.thread != y.thread) return x.thread < y.thread;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.end_ns > y.end_ns;
  });
  std::vector<std::size_t> parent(events.size(), SIZE_MAX);
  std::vector<std::size_t> open;
  for (const std::size_t i : order) {
    const Event& e = events[i];
    while (!open.empty() && (events[open.back()].thread != e.thread ||
                             events[open.back()].end_ns < e.end_ns))
      open.pop_back();
    if (!open.empty()) parent[i] = open.back();
    open.push_back(i);
  }
  return parent;
}

std::map<std::string, double> SpanLog::self_seconds() const {
  const std::vector<Event> all = events();
  const std::vector<std::size_t> parent = parents(all);
  std::vector<std::uint64_t> self(all.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    self[i] = all[i].end_ns - all[i].start_ns;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (parent[i] != SIZE_MAX)
      self[parent[i]] -= all[i].end_ns - all[i].start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i)
    out[all[i].name] += static_cast<double>(self[i]) * 1e-9;
  return out;
}

double SpanLog::unattributed_fraction(
    const std::set<std::string>& roots) const {
  const std::vector<Event> all = events();
  const std::vector<std::size_t> parent = parents(all);
  std::uint64_t root_ns = 0;
  std::uint64_t covered_ns = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::uint64_t dur = all[i].end_ns - all[i].start_ns;
    if (roots.count(all[i].name) != 0) root_ns += dur;
    if (parent[i] != SIZE_MAX && roots.count(all[parent[i]].name) != 0)
      covered_ns += dur;
  }
  if (root_ns == 0) return 0.0;
  return 1.0 - static_cast<double>(covered_ns) / static_cast<double>(root_ns);
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  sink_.write_json(out);
  out.flush();
  return out.good();
}

}  // namespace perfbench
