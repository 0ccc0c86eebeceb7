// Stage-graph run pipeline with content-keyed artifact caching.
//
// Every CLI command used to be an ad-hoc script: regenerate (or re-import)
// the trace, re-extract knowledge, then do its real work. The pipeline
// factors that shared prefix into an explicit
// graph of *stages* — named units with declared inputs, a deterministic
// content key, and optional serialization — executed by a memoizing
// runner:
//
//   Stage    name + input stage names + key_extra (hashes the stage's own
//            configuration into its cache key) + compute (builds the
//            artifact from resolved inputs) + optional save/load (streams
//            the artifact to/from bytes; both present <=> cacheable).
//   Runner   resolve("x") resolves inputs depth-first (memoized, cycle-
//            checked), derives x's key, and either loads the cached
//            artifact or computes-and-stores it, recording a StageReport
//            either way.
//
// Cache-key discipline — the invariants the equivalence tests pin:
//
//   key(x) = H(key-derivation version, snapshot format version, stage
//             name, keys of all input stages, key_extra bytes)
//
//   * Everything that can change the artifact's *content* must reach the
//     key (profile bytes, seed, scale, horizon, grid, options).
//   * Nothing that cannot change content may reach it: thread counts,
//     observability switches, output paths. A warm cache must hit across
//     `--threads 1` and `--threads 8` precisely because results are
//     bit-identical at any thread count.
//   * Format evolution is handled by versioning, not invalidation: a new
//     kSnapshotFormatVersion or kPipelineKeyVersion shifts every key, so
//     old entries become unreachable rather than misread.
//
// Observability: each resolve records `pipeline.stage_runs` +
// `pipeline.stage_seconds` (span "pipeline.<stage>"), and the cache path
// records hit/miss/store counters plus `pipeline.snapshot_io_seconds`
// around artifact IO. Metrics are write-only; caching decisions never read
// them.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/content_hash.h"

namespace cloudlens::pipeline {

/// Bump when the key-derivation scheme itself changes (what gets hashed,
/// or in what order) so stale cache entries become unreachable.
inline constexpr std::uint32_t kPipelineKeyVersion = 1;

class PipelineRunner;

/// Handle passed to stage callbacks: resolved upstream artifacts plus the
/// runner's execution environment.
class StageInputs {
 public:
  /// The resolved artifact of a declared input stage (CheckError if
  /// `name` was not declared in Stage::inputs).
  template <typename T>
  std::shared_ptr<T> get(const std::string& name) const {
    return std::static_pointer_cast<T>(get_raw(name));
  }
  std::shared_ptr<void> get_raw(const std::string& name) const;

  const ParallelConfig& parallel() const;
  obs::MetricsRegistry& metrics() const;
  obs::TraceSink& trace_sink() const;

 private:
  friend class PipelineRunner;
  StageInputs(const PipelineRunner& runner, const std::string& stage)
      : runner_(&runner), stage_(&stage) {}
  const PipelineRunner* runner_;
  const std::string* stage_;
};

struct Stage {
  std::string name;
  /// Names of stages whose artifacts this stage consumes. Their keys are
  /// mixed into this stage's key; they are resolved before compute/load.
  std::vector<std::string> inputs;
  /// Hash this stage's own configuration (options, source bytes) into the
  /// cache key. May be null when the input keys already cover identity.
  std::function<void(ContentHash&)> key_extra;
  /// Build the artifact from resolved inputs. Must return non-null.
  std::function<std::shared_ptr<void>(const StageInputs&)> compute;
  /// Serialize / reconstruct the artifact. A stage is cacheable iff both
  /// are set; leave them null for stages whose artifacts are views into
  /// other stages' state with no standalone representation.
  std::function<void(const std::shared_ptr<void>&, const StageInputs&,
                     std::ostream&)>
      save;
  std::function<std::shared_ptr<void>(const StageInputs&, std::istream&)> load;
};

/// What one resolve did for one stage, for the CLI's per-stage table and
/// the pipeline tests.
struct StageReport {
  enum class Source {
    kComputed,           ///< ran compute; not stored (uncacheable/disabled)
    kCacheHit,           ///< loaded the cached artifact
    kComputedAndStored,  ///< ran compute and published to the cache
  };
  std::string name;
  Source source = Source::kComputed;
  /// Wall time of the resolve (load or compute+store), excluding inputs.
  double millis = 0.0;
  /// Content key; empty when the stage is uncacheable or caching is off.
  std::string key_hex;
  /// Serialized artifact size (0 when not cached).
  std::uint64_t artifact_bytes = 0;
};

const char* to_string(StageReport::Source source);

class PipelineRunner {
 public:
  /// Null observability pointers resolve to the process-global instances.
  explicit PipelineRunner(ArtifactCache cache, ParallelConfig parallel = {},
                          obs::MetricsRegistry* metrics = nullptr,
                          obs::TraceSink* sink = nullptr);

  /// Register a stage (names must be unique; inputs may be registered in
  /// any order but must exist by the time the stage is resolved).
  void add(Stage stage);

  /// Resolve a stage (and, transitively, its inputs), returning its
  /// artifact. Memoized: a second resolve of the same name is free and
  /// appends no report.
  std::shared_ptr<void> resolve(const std::string& name);

  template <typename T>
  std::shared_ptr<T> resolve_as(const std::string& name) {
    return std::static_pointer_cast<T>(resolve(name));
  }

  /// The stage's content key (derives and memoizes it; does not run the
  /// stage). Empty string when caching is disabled.
  const std::string& key_hex(const std::string& name);

  /// One entry per executed stage, in completion order.
  const std::vector<StageReport>& reports() const { return reports_; }

  const ArtifactCache& cache() const { return cache_; }
  const ParallelConfig& parallel() const { return parallel_; }
  obs::MetricsRegistry& metrics() const { return *metrics_; }
  obs::TraceSink& trace_sink() const { return *sink_; }

 private:
  friend class StageInputs;

  const Stage& stage_of(const std::string& name) const;
  std::shared_ptr<void> artifact_of(const std::string& name) const;

  ArtifactCache cache_;
  ParallelConfig parallel_;
  obs::MetricsRegistry* metrics_;
  obs::TraceSink* sink_;

  std::map<std::string, Stage> stages_;
  std::map<std::string, std::shared_ptr<void>> artifacts_;
  std::map<std::string, std::string> keys_;
  std::set<std::string> resolving_;  ///< cycle detection
  std::vector<StageReport> reports_;
};

/// Render the per-stage hit/miss + timing table the CLI prints after a
/// cached run (also embedded in bench_pipeline's output).
std::string render_stage_table(const std::vector<StageReport>& reports);

}  // namespace cloudlens::pipeline
