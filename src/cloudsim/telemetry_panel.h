// Columnar telemetry cache.
//
// Every analysis pass used to re-derive the same 5-minute telemetry from
// scratch: one virtual UtilizationModel::at(t) call per tick per request,
// plus a fresh 2016-sample TimeSeries allocation per call — and the node
// correlation pass alone evaluated each VM's week at least twice. The
// TelemetryPanel caches the VM × tick utilization matrix per TraceStore in
// a cache-friendly row-major (structure-of-arrays) layout, fed by the
// batched UtilizationModel::sample() API that hoists the per-tick virtual
// dispatch and noise/envelope recomputation out of the loop.
//
// Rows fill on demand: construction only reserves the matrices, and the
// first row()/hourly_row() call for a VM fills that VM's row (and its
// hourly companion) exactly once, inside whichever parallel fan-out asked
// for it. Each row is a pure function of its VM, so the bits are identical
// at any thread count and in any fill order.
//
// Memory: one double per VM per tick — 16 KB per VM for the default
// one-week 5-minute grid (2016 ticks), plus 1.3 KB for the hourly
// companion view (168 samples) — but only for rows actually read. Unread
// rows stay on never-touched pages and cost no RSS. The utilization
// analyses read only window-covering VMs (a minority: most VMs are
// short-lived), and the node/region roll-ups sample short-lived VMs over
// their alive window into scratch (vm_alive_row), so a 100k-VM trace
// typically holds a few hundred MB of rows, not ~1.7 GB. Disable the panel
// (TraceStore::set_telemetry_panel_enabled(false)) to trade that memory
// back for recomputation — every consumer falls back to on-demand row
// evaluation through the *same* fill kernel, so results are identical
// either way, bit for bit. That scratch path is also the only telemetry
// path of population-sharded traces (cloudsim/population.h): telemetry
// itself is never spilled, since every row can be re-evaluated from its
// VmRecord.
//
// Consumers ask the trace for the panel once, up front (serially, before
// any parallel fan-out), then pull contiguous std::span<const double> rows
// from any thread:
//
//   const TelemetryPanel* panel = trace.telemetry_panel();  // may be null
//   std::vector<double> scratch;
//   std::span<const double> row =
//       vm_telemetry_row(trace, panel, id, grid, scratch);
//
// Invalidation: TraceStore drops the panel on add_vm and set_vm_deleted
// (a VM's row depends on its [created, deleted) window) and rebuilds it
// lazily on next use.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cloudsim/trace.h"
#include "common/sim_time.h"

namespace cloudlens {

/// Row-major VM × tick utilization matrix over one grid, with an
/// hourly-mean companion view, filled one row at a time on first read.
/// Safe to read from any number of threads: concurrent first readers of a
/// row serialize on that row's once-flag, and later readers see the
/// published bits.
class TelemetryPanel {
 public:
  /// Reserves rows for every VM currently in `trace` (row index == VmId
  /// value) without filling any. The panel keeps a reference to `trace`
  /// (which owns it) and snapshots its sample_valid_ticks() clamp. Rows of
  /// model-less VMs are all-zero; rows of partial-lifetime VMs are zero
  /// outside [created, deleted).
  TelemetryPanel(const TraceStore& trace, TimeGrid grid);

  const TimeGrid& grid() const { return grid_; }
  /// Grid of the hourly companion view; count == 0 when the base grid
  /// cannot be rolled into hours (step does not divide an hour).
  const TimeGrid& hourly_grid() const { return hourly_grid_; }

  std::size_t vm_count() const { return rows_; }
  std::size_t tick_count() const { return grid_.count; }

  /// The VM's contiguous utilization row (grid().count samples), filled
  /// on first use.
  std::span<const double> row(VmId id) const {
    ensure_filled(id.value());
    return {data_.get() + id.value() * grid_.count, grid_.count};
  }
  /// The VM's hourly-mean row (hourly_grid().count samples), filled on
  /// first use; empty when the hourly view is unavailable.
  std::span<const double> hourly_row(VmId id) const {
    if (hourly_grid_.count == 0) return {};
    ensure_filled(id.value());
    return {hourly_.get() + id.value() * hourly_grid_.count,
            hourly_grid_.count};
  }

  /// Distinct rows filled so far.
  std::size_t rows_filled() const {
    return rows_filled_.load(std::memory_order_relaxed);
  }

  /// Bytes held by the filled rows (for bench/rss accounting). Reserved
  /// but unfilled rows are never touched and do not count.
  std::size_t memory_bytes() const {
    return rows_filled() * (grid_.count + hourly_grid_.count) *
           sizeof(double);
  }

  /// Half-open tick range [begin, end) over which fill_row samples a VM's
  /// model: the ticks whose instant lies in [created, deleted), clamped to
  /// `valid_ticks`. Every tick outside it is zero in the row. Empty for
  /// model-less VMs.
  struct AliveWindow {
    std::size_t begin = 0;
    std::size_t end = 0;
    bool empty() const { return end <= begin; }
  };
  static AliveWindow alive_window(const VmRecord& vm, const TimeGrid& grid,
                                  std::size_t valid_ticks = SIZE_MAX);

  /// The shared row-fill kernel: out[i] = utilization->sample value when
  /// the VM is alive at grid.at(i), else 0 (also all-zero for model-less
  /// VMs). `out.size()` must equal `grid.count`. Used both by the panel
  /// and by the scratch fallback path, so panel-on and panel-off analyses
  /// see identical bits by construction.
  ///
  /// `valid_ticks` clamps the row: out[i] = 0 for i >= valid_ticks, and
  /// the model is never sampled there (serve snapshots use this to keep
  /// readers off sample buffers still being appended to — see
  /// TraceStore::set_sample_valid_ticks). SIZE_MAX = no clamp.
  static void fill_row(const VmRecord& vm, const TimeGrid& grid,
                       std::span<double> out,
                       std::size_t valid_ticks = SIZE_MAX);

  /// Roll a row into hourly means — bit-identical to
  /// stats::TimeSeries::hourly_mean on the same values. `out.size()` must
  /// be grid.count / (kHour / grid.step).
  static void hourly_from_row(std::span<const double> row,
                              const TimeGrid& grid, std::span<double> out);

 private:
  void ensure_filled(std::size_t v) const {
    std::call_once(filled_[v], [this, v] { fill(v); });
  }
  void fill(std::size_t v) const;

  const TraceStore* trace_;
  TimeGrid grid_;
  TimeGrid hourly_grid_{0, kHour, 0};
  std::size_t rows_ = 0;
  std::size_t valid_ticks_ = SIZE_MAX;
  // rows_ × grid_.count and rows_ × hourly_grid_.count, row-major. Left
  // uninitialized on purpose: a row's pages are first touched by its fill.
  std::unique_ptr<double[]> data_;
  std::unique_ptr<double[]> hourly_;
  std::unique_ptr<std::once_flag[]> filled_;
  mutable std::atomic<std::size_t> rows_filled_{0};
};

/// Copy-free row access for the analysis hot paths: returns the cached
/// panel row when `panel` is non-null, covers `id`, and was built over
/// `grid`; otherwise fills `scratch` through the same kernel and returns a
/// span over it. Either way the bits are identical.
std::span<const double> vm_telemetry_row(const TraceStore& trace,
                                         const TelemetryPanel* panel, VmId id,
                                         const TimeGrid& grid,
                                         std::vector<double>& scratch);

/// Hourly-mean counterpart of vm_telemetry_row. `row_scratch` holds the
/// intermediate full-resolution row on the fallback path.
std::span<const double> vm_hourly_row(const TraceStore& trace,
                                      const TelemetryPanel* panel, VmId id,
                                      const TimeGrid& grid,
                                      std::vector<double>& row_scratch,
                                      std::vector<double>& hourly_scratch);

/// The possibly non-zero stretch of a VM's row: `values` are the samples
/// of ticks [begin, begin + values.size()), and every other tick of the
/// full row is zero. Window-covering VMs read their panel row (when
/// `panel` serves `grid`); every other VM samples only its alive window
/// into `scratch`, so roll-ups over short-lived VMs never fill panel rows.
/// The values are bit-identical to vm_telemetry_row over the same ticks.
struct AliveRow {
  std::size_t begin = 0;
  std::span<const double> values;
};
AliveRow vm_alive_row(const TraceStore& trace, const TelemetryPanel* panel,
                      const VmRecord& vm, const TimeGrid& grid,
                      std::vector<double>& scratch);

}  // namespace cloudlens
