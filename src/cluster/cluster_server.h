// ClusterServer: the concurrent serving layer above the single-request
// substrate (codec -> streamer -> engine). One Engine, one CacheTier, one
// shared network path, and a fixed pool of W worker threads driving a
// completion-queue / progress-engine loop:
//
//   coordinator --admission queue--> worker pool --stream--> SharedLink
//        ^                             |   ^
//        |                             |   +-- continuation queue (codec
//        |                             |       tails: assemble/generate)
//        |                             +-- Engine::AssembleKV / StoreKV
//        +---- completion channel (virtual-time ordered) ----+
//
// Each request is a RequestFsm advanced by events (admission, chunk-transfer
// done, decode done, write-back committed); no thread is ever spawned per
// request, so 100k+-request traces run on num_workers OS threads. Workers
// that go idle drain the continuation queue, so post-completion codec tails
// parallelize without outliving any slot.
//
// Admission: when a worker frees at virtual instant t, the scheduler policy
// (FIFO / shortest-load-first / SLO-deadline-first) picks among requests
// arrived by t. The admitted request's KV streams over the SharedLink with
// the unmodified KVStreamer — its adapter sees the *observed shared*
// throughput and the SLO budget left after queueing, so concurrency
// organically pushes streams to coarser encoding levels, exactly the
// contention behavior of the paper's Fig. 12/13. GPU time is accounted per
// event: every chunk's decode/prefill is posted to the request's GPU lane
// and priced at share(t) = 1/min(W, in_flight(t)) as it drains, so a peer
// finishing (or being admitted) re-prices every in-flight request from that
// completion instant onward instead of freezing one snapshot per admission.
//
// Cache behavior — five scenarios, priced by one CacheTier lookup:
//   hot full hit    — stream encoded KV from RAM (kAdaptive/kProgressive);
//   cold full hit   — same stream through a ThrottledLink modelling the cold
//                     device's read bandwidth (Options::cold_read_gbps) and
//                     first-byte seek (Options::cold_seek_s);
//   remote hit      — the tier is a multi-node CacheFabric and the covered
//                     bytes live on a peer node: the stream additionally
//                     pays the interconnect model (Options::remote_read_gbps
//                     bandwidth cap, Options::remote_rtt_s to first byte);
//                     orthogonal to hot/cold — a remote cold hit stacks both;
//   partial prefix  — a prefix-aware tier (PrefixCache) matched a cached
//                     chunk-aligned prefix of the request's token sequence:
//                     covered chunks stream as KV, only the uncovered suffix
//                     ships as text and pays GPU prefill for the tail;
//   miss            — full text + re-prefill (StreamMode::kForceText), then
//                     optionally written back (content-addressed and dedup'd
//                     when the tier is prefix-aware).
//
// The tier arrangement is entirely the constructor's business: a bare
// ShardedKVStore, a hot/cold TieredKVStore, or a PrefixCache over either —
// the server itself holds a single CacheTier and never dispatches on the
// concrete arrangement.
//
// Determinism: streaming timelines, admission order, and all latency
// metrics depend only on (trace, options) — virtual time is advanced by
// SharedLink's barrier, never by OS scheduling. Cache write-backs (and the
// default hit path's pin release) are ordered before the completion that
// unlocks successor admissions, so hit/miss outcomes are reproducible too.
// Two timing-dependent corners remain, both mirroring a real cluster:
// simultaneously admitted requests racing for a context one of them is
// still writing back, and — with assemble_kv under capacity pressure —
// a hit's pin lingering through its wall-clock assembly, which can shift
// which context a concurrent write-back evicts.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include <set>
#include <string>

#include "cluster/cluster_metrics.h"
#include "cluster/request_queue.h"
#include "cluster/scheduler.h"
#include "cluster/shared_link.h"
#include "net/bandwidth_trace.h"
#include "obs/flight_recorder.h"
#include "obs/slo_monitor.h"
#include "obs/timeseries.h"
#include "serving/engine.h"
#include "storage/cache_tier.h"

namespace cachegen {

class ClusterServer {
 public:
  // Continuous telemetry over one Serve() run: virtual-time metric windows
  // (TimeSeriesCollector), multi-window burn-rate alerting (SloMonitor), and
  // incident capture (FlightRecorder), all driven from the coordinator's
  // completion loop so every artifact is a pure function of (trace, options).
  struct TelemetryOptions {
    // Virtual-time sampling window; <= 0 disables the continuous layer.
    double sample_period_s = 0.0;
    size_t max_windows = 4096;
    // Metric-name prefixes sampled into the time-series. Restricted by
    // default to series the coordinator itself records in completion order —
    // worker-recorded metrics (codec wall timings, channel depth gauges) are
    // wall-order racy and would break replay byte-identity.
    std::vector<std::string> include = {
        "cluster.admission_batches", "cluster.bytes_sent",
        "cluster.hits.",             "cluster.in_flight",
        "cluster.misses",            "cluster.queue_delay_us",
        "cluster.remote_streams",    "cluster.requests",
        "cluster.slo_violations",    "cluster.ttft_us",
        "cluster.write_back",        "obs.slo.",
    };
    obs::SloMonitor::Options slo;
    obs::FlightRecorder::Options recorder;
    // Test/CI hook: capture an incident at the first completion whose finish
    // instant reaches this virtual time (< 0 disables).
    double inject_incident_at_s = -1.0;
  };

  struct Options {
    size_t num_workers = 4;
    SchedulerPolicyKind policy = SchedulerPolicyKind::kFifo;
    double default_slo_s = 2.0;  // for requests with slo_s <= 0
    // Decode the delivered bitstreams into a real KVCache after streaming
    // (exercises the actual codec; costs real CPU, not virtual time).
    bool assemble_kv = false;
    // On a cache miss (or partial-prefix hit), prefill + encode + store the
    // context so later requests hit (may evict under capacity pressure).
    bool write_back_on_miss = true;
    // Progressive (§9) delivery on cache hits: the streamer runs the
    // two-pass layered timeline, so under link contention a request degrades
    // to base-only quality instead of missing its SLO, and upgrades chunks
    // when the shared path has slack.
    bool progressive = false;
    // First-chunk throughput prior handed to the streamer; defaults to the
    // aggregate capacity divided by the number of in-flight streams.
    std::optional<double> throughput_hint_gbps;
    // Cold-tier read model, charged whenever any streamed chunk was promoted
    // from the cold tier: the cold device's per-stream read bandwidth caps
    // the stream's effective throughput (and the first-chunk hint), and the
    // seek penalty delays the first byte. Defaults model a shared
    // HDD/object-store read path that is slower than the 3 Gbps network but
    // far cheaper than a re-prefill.
    double cold_read_gbps = 1.25;
    double cold_seek_s = 0.015;
    // Remote-read model, charged whenever any streamed byte lives on a peer
    // node of a multi-node CacheFabric (TierLookup::any_remote): the
    // interconnect's per-stream bandwidth caps the effective throughput and
    // one RTT delays the first byte. Faster than the cold device but slower
    // than local RAM, so a remote hit's TTFT lands strictly between a local
    // hit and a miss (the bench_cache_fabric CI gate).
    double remote_read_gbps = 2.0;
    double remote_rtt_s = 0.01;
    TelemetryOptions telemetry;
  };

  // Serve through any CacheTier arrangement (a shared_ptr to a
  // ShardedKVStore, TieredKVStore, PrefixCache or CacheFabric converts).
  // `engine` must be constructed with the tier's kv() as its store — the
  // cluster pins/evicts through the tier while the engine reads and writes
  // chunks through the same object, so translation/dedup/tiering apply to
  // both.
  ClusterServer(Engine& engine, std::shared_ptr<CacheTier> tier,
                BandwidthTrace capacity, Options opts);

  // Serve a whole trace to completion; returns one outcome per request,
  // ordered by request id. Safe to call repeatedly (fresh link each run;
  // the cache tier keeps its contents across runs).
  std::vector<RequestOutcome> Serve(std::vector<ClusterRequest> trace);

  // Prefill + encode + store a context pool up front (warm cache).
  void Prestore(const RequestTraceOptions& trace_opts);
  // Same for an arbitrary context set (e.g. shared-prefix family members).
  void Prestore(std::span<const std::pair<std::string, ContextSpec>> contexts);

  const Options& options() const { return opts_; }
  // The serving tier arrangement.
  const CacheTier& tier() const { return *tier_; }
  // Link of the last Serve() run (null before the first run).
  const SharedLink* link() const { return link_.get(); }

  // Continuous-telemetry state of the last Serve() run (null before the
  // first run, or when telemetry.sample_period_s <= 0).
  const obs::TimeSeriesCollector* timeseries() const { return series_.get(); }
  const obs::SloMonitor* slo_monitor() const { return monitor_.get(); }
  const obs::FlightRecorder* flight_recorder() const { return recorder_.get(); }

 private:
  struct WorkChannel;  // admission + continuation queues of one event loop

  // The coordinator: admits onto the worker pool as workers free up and
  // pops completions in virtual-time order until the trace is served.
  void ServeEventLoop(RequestQueue& queue, size_t n,
                      std::vector<RequestOutcome>* outcomes);
  // One request end to end on a pool worker: stream (GPU priced per event),
  // write back, complete the flow, enqueue the codec tail.
  void ServeOne(ClusterRequest rq, size_t worker, size_t slot, double admit_s,
                SharedLink::HoldId admit_hold, double gpu_share,
                std::vector<RequestOutcome>* outcomes, WorkChannel& channel);

  // Continuous-telemetry plumbing (coordinator thread only).
  void StartTelemetry();
  void OnCompletionTelemetry(const RequestOutcome& out);
  void FinishTelemetry(double t_s);
  void CaptureIncident(uint64_t offending_track, double t_s,
                       const char* reason);

  Engine& engine_;
  std::shared_ptr<CacheTier> tier_;
  BandwidthTrace capacity_;
  Options opts_;
  std::unique_ptr<SharedLink> link_;

  // Telemetry state of the current/last run, touched only by the
  // coordinator thread of Serve() (see TelemetryOptions).
  std::unique_ptr<obs::TimeSeriesCollector> series_;
  std::unique_ptr<obs::SloMonitor> monitor_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::set<uint64_t> completed_tracks_;  // FlightRecorder capture predicate
  uint64_t last_completed_track_ = 0;
  uint64_t last_violated_track_ = 0;
  double last_completion_s_ = 0.0;
  bool incident_injected_ = false;
};

}  // namespace cachegen
