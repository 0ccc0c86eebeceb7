// Layer spans recorded by the benchmark around each call into a layer.
//
// Spans are kept in memory, one record per call, and written out as
// Chrome Trace JSON (through obs::TraceSink) when the run ends. Spans of
// one thread nest by scope, so a span's parent is the innermost span of
// the same thread that encloses it; self time is a span's duration minus
// the part its direct children cover.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "obs/trace_sink.h"

namespace perfbench {

class SpanLog {
 public:
  struct Event {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::size_t thread = 0;
  };

  /// RAII span; records nothing when the log was disabled at construction.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::string name_;
    std::uint64_t start_ns_ = 0;
  };

  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return sink_.enabled(); }
  void set_enabled(bool enabled) { sink_.set_enabled(enabled); }

  Scope span(std::string name) { return Scope(this, std::move(name)); }

  /// Record a finished span of the calling thread.
  void add(std::string name, std::uint64_t start_ns, std::uint64_t end_ns);

  std::vector<Event> events() const;

  /// Per span name: summed self time in seconds.
  std::map<std::string, double> self_seconds() const;

  /// Share of the time of spans named in `roots` that none of their direct
  /// children cover (0 when no root span was recorded).
  double unattributed_fraction(const std::set<std::string>& roots) const;

  /// Chrome Trace Event JSON of every span; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  /// Index of each event's parent (SIZE_MAX for top-level spans).
  std::vector<std::size_t> parents(const std::vector<Event>& events) const;

  cloudlens::obs::TraceSink sink_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

}  // namespace perfbench
