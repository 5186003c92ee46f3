// TimeSeriesCollector: the continuous half of the metrics layer — periodic
// windows of the process MetricsRegistry, sampled on the CLUSTER-VIRTUAL-TIME
// axis rather than wall time.
//
// The cluster simulation serves requests under a deterministic virtual clock
// (SharedLink admission/completion instants). Sampling wall time would make
// every time-series artifact machine-dependent; sampling virtual time from
// the coordinator's completion loop makes the series a pure function of the
// workload: same trace in, byte-identical JSON out (bench_obs_overhead
// gates this).
//
// Single-threaded by design: the collector is driven only by the
// ClusterServer coordinator (AdvanceTo at each completion instant, after the
// coordinator has recorded that completion's metrics). It therefore needs no
// locks — and, critically, it only ever observes registry states that are
// deterministic: the coordinator records all sampled cluster.* metrics
// itself, in completion order. Decode-thread metrics (codec timings,
// pool.jobs) are excluded via the include-prefix filter.
//
// Window semantics: windows are [k*p, (k+1)*p) from the start instant.
// AdvanceTo(t) closes every window whose end is <= t, so a metric recorded
// immediately after AdvanceTo(t) lands in the window containing t. Each
// closed WindowRecord carries counter DELTAS (value change within the
// window), gauge values at window close, and windowed histogram snapshots
// (bucket-wise deltas — Quantile() works on them unchanged). Windows land in
// a bounded ring (drop-oldest, counted).
//
// External series: per-node fabric attribution belongs to completions. The
// coordinator knows each completed request's home node at its completion
// instant, where the windows are cut; the fabric counts lookups at admit
// instants, so its counters would window a different set of requests.
// BumpExternal lets the coordinator feed such derived series into the same
// windows.
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace cachegen::obs {

// One closed sampling window. Counters are in-window deltas, gauges are the
// value at window close, histograms are in-window deltas (count/sum/buckets).
struct WindowRecord {
  double start_s = 0.0;
  double end_s = 0.0;
  uint64_t index = 0;  // 0-based window number since Start()
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

class TimeSeriesCollector {
 public:
  struct Options {
    // Virtual-time window length. The collector is inert when <= 0.
    double period_s = 1.0;
    // Ring bound on retained windows (oldest dropped beyond it, counted).
    size_t max_windows = 4096;
    // Prefix filter on metric names (a name is sampled when any entry is a
    // prefix of it). Empty means sample everything — only safe when every
    // registered metric is recorded deterministically.
    std::vector<std::string> include;
  };

  using WindowCallback = std::function<void(const WindowRecord&)>;

  explicit TimeSeriesCollector(Options opts);

  // Begin sampling: the first window is [t0_s, t0_s + period_s). Resets any
  // previous series and baselines the registry snapshot.
  void Start(double t0_s);

  // Close every window whose end instant is <= t_s. Call BEFORE recording
  // the metrics of the completion at t_s, so those records land in the
  // window containing t_s.
  void AdvanceTo(double t_s);

  // Close windows up to t_s, then a final partial window [window_start,
  // t_s) if anything happened after the last full window.
  void Finish(double t_s);

  // Coordinator-derived series (e.g. fabric.node3.requests): accumulated
  // like a counter and windowed with the registry deltas.
  void BumpExternal(const std::string& name, uint64_t n = 1);

  // Invoked synchronously for each closed window, in order (the SloMonitor
  // hook).
  void set_on_window(WindowCallback cb) { on_window_ = std::move(cb); }

  bool started() const { return started_; }
  double period_s() const { return opts_.period_s; }
  const std::deque<WindowRecord>& windows() const { return windows_; }
  uint64_t dropped_windows() const { return dropped_windows_; }

  // Append {"schema", "period_s", "dropped_windows", "windows": [...]} —
  // each window with counters, per-second rates, gauges, and histogram
  // summaries — as fields of an OPEN object on `w`.
  void ToJson(JsonWriter& w) const;
  // Standalone document via ToJson. Returns false on I/O failure.
  bool WriteJson(const std::filesystem::path& path) const;

 private:
  // Filtered view of the registry plus the external counters.
  struct Baseline {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, HistogramSnapshot> histograms;
  };

  bool Included(const std::string& name) const;
  void CloseWindow(double end_s);

  Options opts_;
  bool started_ = false;
  double window_start_s_ = 0.0;
  double window_end_s_ = 0.0;
  uint64_t next_index_ = 0;
  Baseline prev_;
  std::map<std::string, uint64_t> external_;
  std::map<std::string, uint64_t> external_prev_;
  std::deque<WindowRecord> windows_;
  uint64_t dropped_windows_ = 0;
  WindowCallback on_window_;
};

}  // namespace cachegen::obs
