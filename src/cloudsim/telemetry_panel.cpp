#include "cloudsim/telemetry_panel.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/phase_timer.h"
#include "stats/kernels/dispatch.h"

namespace cloudlens {
namespace {

/// ceil(a / b) for a >= 0, b > 0.
inline std::size_t ceil_div(SimDuration a, SimDuration b) {
  return static_cast<std::size_t>((a + b - 1) / b);
}

}  // namespace

TelemetryPanel::AliveWindow TelemetryPanel::alive_window(
    const VmRecord& vm, const TimeGrid& grid, std::size_t valid_ticks) {
  if (!vm.utilization) return {};
  // at(i) >= created and at(i) < deleted, and i < valid_ticks.
  AliveWindow w{0, std::min(grid.count, valid_ticks)};
  if (vm.created > grid.start)
    w.begin = std::min(w.end, ceil_div(vm.created - grid.start, grid.step));
  if (vm.deleted < grid.end())
    w.end = std::min(w.end, ceil_div(vm.deleted - grid.start, grid.step));
  return w;
}

void TelemetryPanel::fill_row(const VmRecord& vm, const TimeGrid& grid,
                              std::span<double> out,
                              std::size_t valid_ticks) {
  CL_CHECK(out.size() == grid.count);
  const AliveWindow w = alive_window(vm, grid, valid_ticks);
  if (w.empty()) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(w.begin),
            0.0);
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(w.end), out.end(), 0.0);
  // Batched evaluation over the alive sub-grid. Sub-grid tick instants are
  // exactly the parent grid's, so the samples are bit-identical to the
  // per-tick at(grid.at(i)) loop.
  const TimeGrid alive{grid.at(w.begin), grid.step, w.end - w.begin};
  vm.utilization->sample(alive, out.subspan(w.begin, w.end - w.begin));
}

void TelemetryPanel::hourly_from_row(std::span<const double> row,
                                     const TimeGrid& grid,
                                     std::span<double> out) {
  CL_CHECK(grid.step > 0 && kHour % grid.step == 0);
  const std::size_t factor = static_cast<std::size_t>(kHour / grid.step);
  const std::size_t out_count = row.size() / factor;
  CL_CHECK(out.size() == out_count);
  // Same accumulation order as TimeSeries::downsample_mean: serial sum of
  // `factor` consecutive samples, then one division.
  for (std::size_t i = 0; i < out_count; ++i) {
    double acc = 0;
    for (std::size_t j = 0; j < factor; ++j) acc += row[i * factor + j];
    out[i] = acc / static_cast<double>(factor);
  }
}

TelemetryPanel::TelemetryPanel(const TraceStore& trace, TimeGrid grid)
    : trace_(&trace),
      grid_(grid),
      rows_(trace.vms().size()),
      valid_ticks_(trace.sample_valid_ticks()) {
  obs::PhaseTimer phase("panel.build", obs::Histogram::kPanelBuildSeconds,
                        obs::Counter::kPanelBuilds);
  CL_CHECK(grid_.count > 0);
  const bool hourly_ok =
      grid_.step > 0 && kHour % grid_.step == 0 &&
      grid_.count >= static_cast<std::size_t>(kHour / grid_.step);
  if (hourly_ok) {
    const std::size_t factor = static_cast<std::size_t>(kHour / grid_.step);
    hourly_grid_ = TimeGrid{grid_.start, kHour, grid_.count / factor};
  }
  // Reserve only: large blocks come straight from fresh anonymous
  // mappings, so the pages of rows nobody reads are never faulted in.
  data_ = std::make_unique_for_overwrite<double[]>(rows_ * grid_.count);
  hourly_ =
      std::make_unique_for_overwrite<double[]>(rows_ * hourly_grid_.count);
  filled_ = std::make_unique<std::once_flag[]>(rows_);

  auto& metrics = obs::MetricsRegistry::global();
  metrics.set(obs::Gauge::kPanelVms, static_cast<double>(rows_));
  // Reserved, not resident: resident bytes are panel.rows_filled rows.
  metrics.set(obs::Gauge::kPanelBytes,
              static_cast<double>(rows_ *
                                  (grid_.count + hourly_grid_.count) *
                                  sizeof(double)));
  // Stamp the kernel dispatch the row fills run through (the dispatched
  // hash_normal kernel) into the gauges; dispatch may have resolved before
  // metrics were enabled.
  const auto kernel_config = stats::kernels::active();
  metrics.set(obs::Gauge::kKernelTier,
              static_cast<double>(kernel_config.tier));
  metrics.set(obs::Gauge::kKernelMode,
              static_cast<double>(kernel_config.mode));
}

void TelemetryPanel::fill(std::size_t v) const {
  // Each row is a pure function of its VM, so fills may run on any thread
  // in any order without changing a bit of the matrix.
  const std::span<double> row{data_.get() + v * grid_.count, grid_.count};
  fill_row(trace_->vm(VmId(static_cast<VmId::underlying>(v))), grid_, row,
           valid_ticks_);
  if (hourly_grid_.count > 0) {
    hourly_from_row(row, grid_,
                    {hourly_.get() + v * hourly_grid_.count,
                     hourly_grid_.count});
  }
  rows_filled_.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::global().add(obs::Counter::kPanelRowsFilled);
}

std::span<const double> vm_telemetry_row(const TraceStore& trace,
                                         const TelemetryPanel* panel, VmId id,
                                         const TimeGrid& grid,
                                         std::vector<double>& scratch) {
  if (panel != nullptr && panel->grid() == grid &&
      id.value() < panel->vm_count()) {
    obs::MetricsRegistry::global().add(obs::Counter::kPanelRowHits);
    return panel->row(id);
  }
  obs::MetricsRegistry::global().add(obs::Counter::kPanelRowMisses);
  scratch.resize(grid.count);
  // The valid-ticks clamp is defined over the trace's own grid; rows over
  // other grids are unclamped (serve never requests them).
  TelemetryPanel::fill_row(trace.vm(id), grid, scratch,
                           grid == trace.telemetry_grid()
                               ? trace.sample_valid_ticks()
                               : SIZE_MAX);
  return scratch;
}

std::span<const double> vm_hourly_row(const TraceStore& trace,
                                      const TelemetryPanel* panel, VmId id,
                                      const TimeGrid& grid,
                                      std::vector<double>& row_scratch,
                                      std::vector<double>& hourly_scratch) {
  if (panel != nullptr && panel->grid() == grid &&
      id.value() < panel->vm_count() && panel->hourly_grid().count > 0) {
    obs::MetricsRegistry::global().add(obs::Counter::kPanelRowHits);
    return panel->hourly_row(id);
  }
  const std::span<const double> row =
      vm_telemetry_row(trace, panel, id, grid, row_scratch);
  CL_CHECK(grid.step > 0 && kHour % grid.step == 0);
  const std::size_t factor = static_cast<std::size_t>(kHour / grid.step);
  hourly_scratch.resize(row.size() / factor);
  TelemetryPanel::hourly_from_row(row, grid, hourly_scratch);
  return hourly_scratch;
}

AliveRow vm_alive_row(const TraceStore& trace, const TelemetryPanel* panel,
                      const VmRecord& vm, const TimeGrid& grid,
                      std::vector<double>& scratch) {
  // The valid-ticks clamp applies to the trace's own grid only, exactly
  // as in vm_telemetry_row.
  const std::size_t valid_ticks =
      grid == trace.telemetry_grid() ? trace.sample_valid_ticks() : SIZE_MAX;
  const TelemetryPanel::AliveWindow w =
      TelemetryPanel::alive_window(vm, grid, valid_ticks);
  if (w.empty()) return {};
  const std::size_t n = w.end - w.begin;
  if (vm.covers(grid)) {
    return {w.begin, vm_telemetry_row(trace, panel, vm.id, grid, scratch)
                         .subspan(w.begin, n)};
  }
  obs::MetricsRegistry::global().add(obs::Counter::kPanelRowMisses);
  // The same sample() call fill_row makes over the same sub-grid.
  scratch.resize(n);
  vm.utilization->sample(TimeGrid{grid.at(w.begin), grid.step, n}, scratch);
  return {w.begin, scratch};
}

}  // namespace cloudlens
