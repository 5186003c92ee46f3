#include "obs/export.h"

#include <fstream>
#include <set>
#include <utility>

namespace cachegen::obs {

namespace {

constexpr int kWallPid = 1;
constexpr int kVirtualPid = 2;

int PidOf(const TraceEvent& ev) {
  return ev.clock == TraceClock::kWall ? kWallPid : kVirtualPid;
}

void AppendMetadataEvent(JsonWriter& w, const char* name, int pid,
                         uint64_t tid, const std::string& value) {
  w.BeginObject();
  w.Field("name", name);
  w.Field("ph", "M");
  w.Field("pid", pid);
  w.Field("tid", tid);
  w.BeginObject("args");
  w.Field("name", value);
  w.EndObject();
  w.EndObject();
}

}  // namespace

std::string TraceToChromeJson(const std::vector<TraceEvent>& events) {
  JsonWriter w;
  w.BeginObject();
  w.BeginArray("traceEvents");

  // Metadata first: process names, plus a thread name per track so the
  // virtual timeline reads "request N" instead of bare tids.
  AppendMetadataEvent(w, "process_name", kWallPid, 0, "cachegen wall clock");
  AppendMetadataEvent(w, "process_name", kVirtualPid, 0,
                      "cachegen cluster virtual time");
  std::set<std::pair<int, uint64_t>> tracks;
  for (const TraceEvent& ev : events) tracks.emplace(PidOf(ev), ev.track);
  for (const auto& [pid, tid] : tracks) {
    // Virtual track 0 is reserved (request ids start at 1): it carries
    // cluster-scope instants such as SLO alert transitions.
    AppendMetadataEvent(w, "thread_name", pid, tid,
                        pid == kWallPid ? "thread " + std::to_string(tid)
                        : tid == 0      ? std::string("cluster alerts")
                                        : "request " + std::to_string(tid));
  }

  for (const TraceEvent& ev : events) {
    w.BeginObject();
    w.Field("name", ev.name);
    w.Field("cat", ev.cat);
    const char ph[2] = {ev.phase, '\0'};
    w.Field("ph", ph);
    w.Field("ts", ev.ts_us);
    if (ev.phase == 'X') w.Field("dur", ev.dur_us);
    w.Field("pid", PidOf(ev));
    w.Field("tid", ev.track);
    if (ev.phase == 'i') w.Field("s", "t");  // instant scope: thread
    const bool has_args = ev.request_id != 0 || ev.arg_name != nullptr;
    if (has_args) {
      w.BeginObject("args");
      if (ev.request_id != 0) w.Field("request", ev.request_id);
      if (ev.arg_name != nullptr) w.Field(ev.arg_name, ev.arg_value);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();

  w.Field("displayTimeUnit", "ms");
  w.BeginObject("otherData");
  w.Field("generator", "cachegen");
  w.Field("traceSchemaVersion", kTraceSchemaVersion);
  w.Field("droppedEvents", Tracer::Instance().DroppedEvents());
  w.EndObject();
  w.EndObject();
  return w.str();
}

bool WriteChromeTrace(const std::filesystem::path& path) {
  const std::string doc = TraceToChromeJson(Tracer::Instance().Snapshot());
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << doc << "\n";
  f.flush();
  return !f.fail();
}

void AppendMetricsJson(JsonWriter& w, const MetricsRegistry::Snapshot& snap) {
  w.BeginObject("counters");
  for (const auto& [name, v] : snap.counters) w.Field(name, v);
  w.EndObject();
  w.BeginObject("gauges");
  for (const auto& [name, v] : snap.gauges) w.Field(name, v);
  w.EndObject();
  w.BeginObject("histograms");
  for (const auto& [name, h] : snap.histograms) {
    w.BeginObject(name);
    w.Field("count", h.count);
    w.Field("sum", h.sum);
    w.Field("mean", h.Mean());
    w.Field("p50", h.Quantile(0.50));
    w.Field("p95", h.Quantile(0.95));
    w.Field("p99", h.Quantile(0.99));
    // Full cumulative bucket array so offline tooling can re-aggregate
    // without trusting the point-estimates above: [le, cumulative_count]
    // pairs for every non-empty bucket, then the +Inf total. `le` is the
    // largest value the bucket admits (buckets are [lower, upper)).
    w.BeginArray("buckets");
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      cumulative += h.buckets[i];
      const uint64_t upper = HistBucketUpper(i);
      if (upper == 0) continue;  // saturated top bucket: folded into +Inf
      w.BeginArray();
      w.Value(upper - 1);
      w.Value(cumulative);
      w.EndArray();
    }
    w.BeginArray();
    w.Value("+Inf");
    w.Value(h.count);
    w.EndArray();
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
}

}  // namespace cachegen::obs
