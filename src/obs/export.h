// Exporters for the observability layer:
//   * Chrome trace-event JSON (the "JSON Object Format" with a traceEvents
//     array plus metadata) — drag into https://ui.perfetto.dev or
//     chrome://tracing. Wall-clock events export under pid 1 ("wall clock",
//     one tid per OS thread); cluster virtual-time events under pid 2
//     ("cluster virtual time", one tid per request). The schema version
//     (obs::kTraceSchemaVersion) is written into "otherData" and validated
//     by ci/check_trace.py.
//   * Metrics JSON snapshot — every registered counter/gauge/histogram
//     (count/sum/mean/p50/p95/p99 for histograms), the artifact format the
//     benches build their BENCH_*.json files around.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cachegen::obs {

// Render `events` (as returned by Tracer::Snapshot()) as a complete Chrome
// trace-event JSON document.
std::string TraceToChromeJson(const std::vector<TraceEvent>& events);

// Snapshot the process tracer and write the trace to `path`. Returns false
// on I/O failure.
bool WriteChromeTrace(const std::filesystem::path& path);

// Append the snapshot's metrics as three keyed objects ("counters",
// "gauges", "histograms") to an OPEN object on `w` — callers embed metrics
// into their own document (bench JSON, cluster summary dump).
void AppendMetricsJson(JsonWriter& w, const MetricsRegistry::Snapshot& snap);

}  // namespace cachegen::obs
