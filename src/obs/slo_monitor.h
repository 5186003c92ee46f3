// SloMonitor: multi-window burn-rate alerting over the collector's
// virtual-time windows — the standard SRE construction (fast window catches
// an active incident, slow window filters blips; both must agree before a
// page) applied to the cluster's SLO-violation counter and TTFT histogram.
//
// Burn rate: the fraction of requests that violated the SLO inside a
// trailing window, divided by the error budget. A burn of 1.0 means the
// service is consuming budget exactly as fast as allowed; page thresholds
// are conventionally 10x+ over short windows.
//
// State machine: OK -> WARN -> PAGE with hysteresis. Upgrades take effect on
// the window that crosses the threshold; downgrades require hold_windows
// CONSECUTIVE windows whose desired level is below the current one (and then
// drop directly to the latest desired level). A violation rate oscillating
// across a threshold at window granularity therefore cannot flap the alert
// (property-tested in tests/test_obs_continuous.cpp).
//
// Every transition is emitted three ways: a metric
// (obs.slo.transitions/obs.slo.state), a (cluster.alert) instant on virtual
// track 0 of the trace, and an AlertRecord in the run's alert log. Per-window
// burn rates are published as gauges (x1000, so integers survive the gauge).
//
// Determinism: driven only from TimeSeriesCollector windows on the cluster
// coordinator thread, so the whole alert history is a pure function of the
// workload. Single-threaded; no locks.
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <optional>
#include <vector>

#include "obs/json_writer.h"
#include "obs/timeseries.h"

namespace cachegen::obs {

enum class AlertLevel : int { kOk = 0, kWarn = 1, kPage = 2 };

// Stable literal ("OK"/"WARN"/"PAGE") — also used as the trace-instant name.
const char* AlertLevelName(AlertLevel level);

// One state transition, as logged to the alert log.
struct AlertRecord {
  uint64_t window_index = 0;  // window whose close triggered the transition
  double t_s = 0.0;           // virtual time of that window's end
  AlertLevel from = AlertLevel::kOk;
  AlertLevel to = AlertLevel::kOk;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  double fast_p95_ttft_s = 0.0;  // merged fast-window p95 TTFT (0 if no data)
};

class SloMonitor {
 public:
  struct Options {
    size_t fast_windows = 4;   // trailing windows in the fast burn view
    size_t slow_windows = 16;  // trailing windows in the slow burn view
    double error_budget = 0.01;  // allowed violation fraction of requests
    double warn_burn = 2.0;      // both views >= this (or TTFT breach) -> WARN
    double page_burn = 10.0;     // both views >= this -> PAGE
    double ttft_slo_s = 0.0;     // fast-window p95 TTFT bound; 0 disables
    size_t hold_windows = 3;     // calm windows required before a downgrade
  };

  explicit SloMonitor(Options opts);

  // Feed one closed window (in order). Returns the transition this window
  // caused, if any. Also publishes the per-window burn gauges and, on a
  // transition, the metric/trace emissions described above.
  std::optional<AlertRecord> OnWindow(const WindowRecord& win);

  AlertLevel level() const { return level_; }
  double fast_burn() const { return fast_burn_; }
  double slow_burn() const { return slow_burn_; }
  const std::vector<AlertRecord>& alerts() const { return alerts_; }

  // Append {"schema", thresholds..., "alerts": [...]} to an OPEN object.
  void ToJson(JsonWriter& w) const;
  bool WriteJson(const std::filesystem::path& path) const;

 private:
  struct WindowStats {
    uint64_t violations = 0;
    uint64_t requests = 0;
    HistogramSnapshot ttft;
  };

  // Burn rate over the last `n` entries of history_.
  double BurnOver(size_t n) const;
  double FastP95TtftS() const;

  Options opts_;
  std::deque<WindowStats> history_;  // bounded by slow_windows
  AlertLevel level_ = AlertLevel::kOk;
  size_t calm_windows_ = 0;  // consecutive windows with desired < level_
  double fast_burn_ = 0.0;
  double slow_burn_ = 0.0;
  std::vector<AlertRecord> alerts_;
};

}  // namespace cachegen::obs
