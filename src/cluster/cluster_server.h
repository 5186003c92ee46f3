// ClusterServer: the concurrent serving layer above the single-request
// substrate (codec -> streamer -> engine). One Engine, one CacheTier, one
// shared network path, and W worker slots, all driven in virtual time by
// one coordinator on the thread that calls Serve():
//
//   Serve() thread: the coordinator
//     SharedLink::Step --> next event --> resume the streams it completed
//       (each ServeOne coroutine runs to its next link operation)
//     free instants    --> write back, unpin, metrics, admit
//     admit instants   --> LookupAndPin, start the stream
//   up to W decode threads (assemble_kv only): Engine::DecodeKV of the
//     chunks a hit streamed; the coordinator waits for one only while all
//     of them are busy, and Serve() returns after every decode has ended
//
// Each admitted request is one ServeOne coroutine: at its admit instant it
// looks up and pins, then streams with the unmodified KVStreamer, parking
// at every link operation until SharedLink's fluid simulation completes it;
// at its stream's end it records its lifecycle instants (cluster.event:
// admit, chunk_transfer_done per transfer, enhance, decode, decode_done)
// and hands a hit's assembly to a decode thread; at its free instant it
// writes back, records write_back_committed and releases its pins. No
// thread is spawned per request, and no thread waits on virtual time:
// 100k+-request traces run on the calling thread, plus up to W decode
// threads.
//
// Admission: when a worker frees at virtual instant t, the scheduler policy
// (FIFO / shortest-load-first / SLO-deadline-first) picks among requests
// arrived by t. The admitted request's KV streams over the SharedLink with
// the unmodified KVStreamer — its adapter sees the *observed shared*
// throughput and the SLO budget left after queueing, so concurrency
// organically pushes streams to coarser encoding levels, exactly the
// contention behavior of the paper's Fig. 12/13. GPU time is accounted per
// event: every chunk's decode/prefill is posted to the request's GPU lane
// and priced at share(t) = 1/max(1, in_flight(t)) as it drains, so a peer
// finishing (or being admitted) re-prices every in-flight request from that
// completion instant onward instead of freezing one snapshot per admission.
// The W workers never cap that share: each holds at most one request from
// its admission instant to its free instant, so in_flight(t) <= W.
//
// Cache behavior — five scenarios, priced by one CacheTier lookup:
//   hot full hit    — stream encoded KV from RAM (kAdaptive/kProgressive);
//   cold full hit   — same stream through a ThrottledLink modelling the cold
//                     device's read bandwidth (1.25 Gbps per stream) and
//                     first-byte seek (15 ms);
//   remote hit      — the tier is a multi-node CacheFabric and the covered
//                     bytes live on a peer node: the stream additionally
//                     pays the interconnect model (Options::remote_read_gbps
//                     bandwidth cap, Options::remote_rtt_s to first byte);
//                     orthogonal to hot/cold — a remote cold hit stacks both;
//   partial prefix  — a prefix-aware tier (PrefixCache) matched a cached
//                     chunk-aligned prefix of the request's token sequence:
//                     covered chunks stream as KV, only the uncovered suffix
//                     ships as text and pays GPU prefill for the tail;
//   miss            — full text + re-prefill (KV chunk limit 0), then
//                     optionally written back (content-addressed and dedup'd
//                     when the tier is prefix-aware).
//
// The tier arrangement is entirely the constructor's business: a bare
// ShardedKVStore, a hot/cold TieredKVStore, or a PrefixCache over either —
// the server itself holds a single CacheTier and never dispatches on the
// concrete arrangement.
//
// Determinism: every outcome — streaming timelines, admission order,
// latency metrics and hit/miss scenarios — depends only on (trace, options),
// at any worker count and any codec-pool size. The coordinator runs every
// cache-tier call in virtual-time order: a lookup at its admit instant, a
// write-back and the hit-path unpin at the request's free instant, free
// instants before admit instants at the same time. A write-back is
// therefore visible to every lookup at or after its free instant and to
// none before it. Write-backs run inline, one at a time.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <set>
#include <string>

#include "cluster/cluster_metrics.h"
#include "cluster/request_queue.h"
#include "cluster/scheduler.h"
#include "cluster/shared_link.h"
#include "common/task.h"
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
    obs::SloMonitor::Options slo;
    obs::FlightRecorder::Options recorder;
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
  // the cache tier keeps its contents across runs). Ends with the tier's
  // Flush(), which persists the demotions the serve made.
  std::vector<RequestOutcome> Serve(std::vector<ClusterRequest> trace);

  // Prefill + encode + store a context pool up front (warm cache), then
  // Flush() the tier.
  void Prestore(const RequestTraceOptions& trace_opts);
  // Same for an arbitrary context set (e.g. shared-prefix family members).
  void Prestore(std::span<const std::pair<std::string, ContextSpec>> contexts);

  const Options& options() const { return opts_; }
  // The serving tier arrangement.
  const CacheTier& tier() const { return *tier_; }

  // Continuous-telemetry state of the last Serve() run (null before the
  // first run, or when telemetry.sample_period_s <= 0).
  const obs::TimeSeriesCollector* timeseries() const { return series_.get(); }
  const obs::SloMonitor* slo_monitor() const { return monitor_.get(); }
  const obs::FlightRecorder* flight_recorder() const { return recorder_.get(); }

 private:
  struct Loop;  // one Serve's link, worker slots, owed instants, decodes

  // The coordinator: runs virtual time on the calling thread, admitting
  // onto worker slots as they free and resuming each stream as its link
  // operation completes, until the trace is served.
  void ServeEventLoop(RequestQueue& queue, std::vector<RequestOutcome>* outcomes);
  // One request end to end, as a coroutine the coordinator drives: look up
  // and pin at its admit instant, stream (GPU priced per event), trace the
  // lifecycle instants and hand a hit's assembly to a decode thread; then,
  // at its free instant, write back and release its pins.
  Task<void> ServeOne(Loop& loop, ClusterRequest rq, size_t worker, size_t slot,
                      double admit_s, double gpu_share, RequestOutcome& out);

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

  // Telemetry state of the current/last run, touched only by the
  // coordinator thread of Serve() (see TelemetryOptions).
  std::unique_ptr<obs::TimeSeriesCollector> series_;
  std::unique_ptr<obs::SloMonitor> monitor_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::set<uint64_t> completed_tracks_;  // FlightRecorder capture predicate
  uint64_t last_completed_track_ = 0;
  uint64_t last_violated_track_ = 0;
  double last_completion_s_ = 0.0;
};

}  // namespace cachegen
