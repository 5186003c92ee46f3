#include "obs/slo_monitor.h"

#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cachegen::obs {

namespace {
// The cluster's per-window series the monitor reads.
constexpr const char* kViolationCounter = "cluster.slo_violations";
constexpr const char* kRequestCounter = "cluster.requests";
constexpr const char* kTtftHistogram = "cluster.ttft_us";  // microseconds
}  // namespace

const char* AlertLevelName(AlertLevel level) {
  switch (level) {
    case AlertLevel::kOk:
      return "OK";
    case AlertLevel::kWarn:
      return "WARN";
    case AlertLevel::kPage:
      return "PAGE";
  }
  return "OK";
}

SloMonitor::SloMonitor(Options opts) : opts_(std::move(opts)) {
  if (opts_.fast_windows == 0) opts_.fast_windows = 1;
  if (opts_.slow_windows < opts_.fast_windows) {
    opts_.slow_windows = opts_.fast_windows;
  }
  if (opts_.hold_windows == 0) opts_.hold_windows = 1;
}

double SloMonitor::BurnOver(size_t n) const {
  uint64_t violations = 0;
  uint64_t requests = 0;
  const size_t take = n < history_.size() ? n : history_.size();
  for (size_t i = history_.size() - take; i < history_.size(); ++i) {
    violations += history_[i].violations;
    requests += history_[i].requests;
  }
  if (requests == 0) return 0.0;
  const double rate = static_cast<double>(violations) / requests;
  return rate / (opts_.error_budget > 0.0 ? opts_.error_budget : 1.0);
}

double SloMonitor::FastP95TtftS() const {
  HistogramSnapshot merged;
  const size_t take = opts_.fast_windows < history_.size()
                          ? opts_.fast_windows
                          : history_.size();
  for (size_t i = history_.size() - take; i < history_.size(); ++i) {
    const HistogramSnapshot& h = history_[i].ttft;
    merged.count += h.count;
    merged.sum += h.sum;
    if (merged.buckets.size() < h.buckets.size()) {
      merged.buckets.resize(h.buckets.size(), 0);
    }
    for (size_t b = 0; b < h.buckets.size(); ++b) merged.buckets[b] += h.buckets[b];
  }
  if (merged.count == 0) return 0.0;
  return merged.Quantile(0.95) / 1e6;  // histogram records microseconds
}

std::optional<AlertRecord> SloMonitor::OnWindow(const WindowRecord& win) {
  WindowStats stats;
  if (const auto it = win.counters.find(kViolationCounter);
      it != win.counters.end()) {
    stats.violations = it->second;
  }
  if (const auto it = win.counters.find(kRequestCounter);
      it != win.counters.end()) {
    stats.requests = it->second;
  }
  if (const auto it = win.histograms.find(kTtftHistogram);
      it != win.histograms.end()) {
    stats.ttft = it->second;
  }
  history_.push_back(std::move(stats));
  if (history_.size() > opts_.slow_windows) history_.pop_front();

  fast_burn_ = BurnOver(opts_.fast_windows);
  slow_burn_ = BurnOver(opts_.slow_windows);
  const double fast_p95_s = FastP95TtftS();
  CG_METRIC_GAUGE_SET("obs.slo.fast_burn_x1000",
                      std::llround(fast_burn_ * 1000.0));
  CG_METRIC_GAUGE_SET("obs.slo.slow_burn_x1000",
                      std::llround(slow_burn_ * 1000.0));

  AlertLevel desired = AlertLevel::kOk;
  const bool ttft_breach =
      opts_.ttft_slo_s > 0.0 && fast_p95_s > opts_.ttft_slo_s;
  if (fast_burn_ >= opts_.page_burn && slow_burn_ >= opts_.page_burn) {
    desired = AlertLevel::kPage;
  } else if ((fast_burn_ >= opts_.warn_burn && slow_burn_ >= opts_.warn_burn) ||
             ttft_breach) {
    desired = AlertLevel::kWarn;
  }

  AlertLevel next = level_;
  if (static_cast<int>(desired) > static_cast<int>(level_)) {
    next = desired;  // upgrades are immediate
    calm_windows_ = 0;
  } else if (desired == level_) {
    calm_windows_ = 0;
  } else {
    // Hysteresis: only downgrade after a full run of calm windows, and then
    // directly to the currently-desired level.
    if (++calm_windows_ >= opts_.hold_windows) {
      next = desired;
      calm_windows_ = 0;
    }
  }
  if (next == level_) return std::nullopt;

  AlertRecord rec;
  rec.window_index = win.index;
  rec.t_s = win.end_s;
  rec.from = level_;
  rec.to = next;
  rec.fast_burn = fast_burn_;
  rec.slow_burn = slow_burn_;
  rec.fast_p95_ttft_s = fast_p95_s;
  level_ = next;
  alerts_.push_back(rec);

  CG_METRIC_COUNT("obs.slo.transitions", 1);
  CG_METRIC_GAUGE_SET("obs.slo.state", static_cast<int>(level_));
  // Virtual track 0 is reserved for cluster-scope instants (request tracks
  // are id+1 >= 1); the alert lands at the closing window's end instant.
  CG_TRACE_VINSTANT("cluster.alert", AlertLevelName(level_), 0, rec.t_s,
                    "fast_burn", rec.fast_burn);
  return rec;
}

void SloMonitor::ToJson(JsonWriter& w) const {
  w.Field("schema", "cachegen-alerts-v1");
  w.Field("fast_windows", static_cast<uint64_t>(opts_.fast_windows));
  w.Field("slow_windows", static_cast<uint64_t>(opts_.slow_windows));
  w.Field("error_budget", opts_.error_budget);
  w.Field("warn_burn", opts_.warn_burn);
  w.Field("page_burn", opts_.page_burn);
  w.Field("ttft_slo_s", opts_.ttft_slo_s);
  w.Field("hold_windows", static_cast<uint64_t>(opts_.hold_windows));
  w.Field("final_level", AlertLevelName(level_));
  w.BeginArray("alerts");
  for (const AlertRecord& a : alerts_) {
    w.BeginObject();
    w.Field("window_index", a.window_index);
    w.Field("t_s", a.t_s);
    w.Field("from", AlertLevelName(a.from));
    w.Field("to", AlertLevelName(a.to));
    w.Field("fast_burn", a.fast_burn);
    w.Field("slow_burn", a.slow_burn);
    w.Field("fast_p95_ttft_s", a.fast_p95_ttft_s);
    w.EndObject();
  }
  w.EndArray();
}

bool SloMonitor::WriteJson(const std::filesystem::path& path) const {
  JsonWriter w;
  w.BeginObject();
  ToJson(w);
  w.EndObject();
  return w.WriteFile(path);
}

}  // namespace cachegen::obs
