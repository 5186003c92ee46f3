// Single source of truth for observability names.
//
// Every metric name passed to a CG_METRIC_* macro and every trace category
// passed to a CG_TRACE_* macro in src/ must appear here. Two tools read this
// header (by parsing the string literals between the cg-lint marker
// comments — keep the markers and keep one name per line):
//
//   * ci/cg_lint.py   — fails the build when a macro call site in src/ uses
//                       a name/category missing from the catalog;
//   * ci/check_trace.py (--names) — fails when an exported trace carries an
//                       event category missing from the catalog.
//
// To add a metric or category: add the call site AND the catalog entry in
// the same change; cg_lint also flags catalog entries no call site uses, so
// renames can't leave stale entries behind.
#pragma once

#include <cstddef>

namespace cachegen::obs::names {

// cg-lint: metric-catalog-begin
inline constexpr const char* kMetricNames[] = {
    "cluster.admission_batches",
    "cluster.bytes_sent",
    "cluster.hits.cold",
    "cluster.hits.hot",
    "cluster.hits.prefix",
    "cluster.in_flight",
    "cluster.misses",
    "cluster.queue_delay_us",
    "cluster.remote_streams",
    "cluster.requests",
    "cluster.slo_violations",
    "cluster.ttft_us",
    "cluster.write_back_failures",
    "cluster.write_backs",
    "codec.chunks_decoded",
    "codec.chunks_encoded",
    "codec.decode_us",
    "codec.encode_us",
    "engine.encode.skipped_bytes",
    "engine.encode.skipped_chunks",
    "fabric.chunk_dedup_xnode",
    "fabric.chunk_reads",
    "fabric.chunk_reads.remote",
    "fabric.chunk_stores",
    "fabric.hits.local",
    "fabric.hits.prefix",
    "fabric.hits.remote",
    "fabric.lookups",
    "fabric.misses",
    "fabric.replica.max_read_share_pct",
    "net.cold_read_bytes",
    "net.cold_reads",
    "net.granted_bytes",
    "net.grants",
    "obs.slo.fast_burn_x1000",
    "obs.slo.slow_burn_x1000",
    "obs.slo.state",
    "obs.slo.transitions",
    "obs.timeseries.windows",
    "obs.trace.dropped_events",
    "obs.trace.ring_highwater_events",
    "pool.jobs",
    "prefix.deduped_chunks",
    "prefix.full_hits",
    "prefix.misses",
    "prefix.partial_hits",
    "prefix.unique_bytes",
    "prefix.zombie_deferrals",
    "prefix.zombie_reclaims",
    "storage.cold_evictions",
    "storage.demotions",
    "storage.pending_demotion_bytes",
    "storage.promotions",
    "streamer.chunk_bytes",
    "streamer.chunks_kv",
    "streamer.chunks_text",
    "streamer.enhancements_aborted",
    "streamer.enhancements_sent",
};
// cg-lint: metric-catalog-end

// cg-lint: trace-cat-catalog-begin
inline constexpr const char* kTraceCategories[] = {
    "cluster",
    "cluster.alert",
    "cluster.event",
    "codec",
    "fabric",
    "net",
    "pool",
    "prefix",
    "storage",
    "streamer",
};
// cg-lint: trace-cat-catalog-end

inline constexpr size_t kMetricNameCount =
    sizeof(kMetricNames) / sizeof(kMetricNames[0]);
inline constexpr size_t kTraceCategoryCount =
    sizeof(kTraceCategories) / sizeof(kTraceCategories[0]);

}  // namespace cachegen::obs::names
