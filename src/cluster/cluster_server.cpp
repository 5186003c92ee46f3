#include "cluster/cluster_server.h"

#include <algorithm>
#include <deque>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <semaphore>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/thread_annotations.h"
#include "codec/encoding_level.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prefix/prefix_cache.h"
#include "storage/pin_guard.h"
#include "streamer/streamer.h"

namespace cachegen {

namespace {

// Cold-tier read model, charged whenever any streamed chunk was promoted
// from the cold tier: the cold device's per-stream read bandwidth caps the
// stream's effective throughput (and the first-chunk hint), and the seek
// penalty delays the first byte. The values model a shared HDD/object-store
// read path that is slower than the 3 Gbps network but far cheaper than a
// re-prefill.
constexpr double kColdReadGbps = 1.25;
constexpr double kColdSeekS = 0.015;

// Metric-name prefixes sampled into the telemetry time-series: only series
// the coordinator itself records in completion order. Codec wall timings
// are machine-speed dependent and would break replay byte-identity.
const char* const kTelemetrySeries[] = {
    "cluster.admission_batches", "cluster.bytes_sent",
    "cluster.hits.",             "cluster.in_flight",
    "cluster.misses",            "cluster.queue_delay_us",
    "cluster.remote_streams",    "cluster.requests",
    "cluster.slo_violations",    "cluster.ttft_us",
    "cluster.write_back",        "obs.slo.",
};

uint64_t PackPayload(size_t worker, size_t slot) {
  return (static_cast<uint64_t>(worker) << 32) | static_cast<uint64_t>(slot);
}

// Request ids are dense from 0, but the tracer reserves 0 for "no request";
// trace tracks are therefore id + 1 ("request 1" is trace id 0).
uint64_t TraceTrack(const ClusterRequest& rq) { return rq.id + 1; }

// The per-request cluster.* metric block. The coordinator records it per
// popped completion (after TimeSeriesCollector::AdvanceTo), so metric order
// matches completion order and the sampler's windows are deterministic.
void RecordOutcomeMetrics(const RequestOutcome& out) {
  CG_METRIC_COUNT("cluster.requests", 1);
  if (out.cache_hit) {
    if (out.cold_hit) {
      CG_METRIC_COUNT("cluster.hits.cold", 1);
    } else {
      CG_METRIC_COUNT("cluster.hits.hot", 1);
    }
  } else if (out.prefix_hit) {
    CG_METRIC_COUNT("cluster.hits.prefix", 1);
  } else {
    CG_METRIC_COUNT("cluster.misses", 1);
  }
  if (out.remote_hit) CG_METRIC_COUNT("cluster.remote_streams", 1);
  if (out.slo_violated) CG_METRIC_COUNT("cluster.slo_violations", 1);
  CG_METRIC_COUNT("cluster.bytes_sent",
                  static_cast<uint64_t>(out.bytes_sent));
  if (out.write_back_done) CG_METRIC_COUNT("cluster.write_backs", 1);
  if (out.write_back_failed) CG_METRIC_COUNT("cluster.write_back_failures", 1);
  CG_METRIC_HIST("cluster.ttft_us", static_cast<uint64_t>(out.ttft_s * 1e6));
  CG_METRIC_HIST("cluster.queue_delay_us",
                 static_cast<uint64_t>(out.queue_delay_s * 1e6));
}

}  // namespace

ClusterServer::ClusterServer(Engine& engine, std::shared_ptr<CacheTier> tier,
                             BandwidthTrace capacity, Options opts)
    : engine_(engine),
      tier_(std::move(tier)),
      capacity_(std::move(capacity)),
      opts_(opts) {
  if (opts_.num_workers == 0) {
    throw std::invalid_argument("ClusterServer: need at least one worker");
  }
  if (!tier_ || &engine_.store() != &tier_->kv()) {
    throw std::invalid_argument(
        "ClusterServer: engine must be constructed with the cluster tier's "
        "kv() store");
  }
  if (!(opts_.remote_read_gbps > 0.0) || opts_.remote_rtt_s < 0.0) {
    throw std::invalid_argument(
        "ClusterServer: remote_read_gbps must be > 0 and remote_rtt_s >= 0");
  }
  if (tier_->prefix() != nullptr &&
      tier_->prefix()->options().chunk_tokens != engine_.options().chunk_tokens) {
    throw std::invalid_argument(
        "ClusterServer: PrefixCache chunk_tokens must match the engine's "
        "(content addresses are computed over the encoder's chunk grid)");
  }
}

void ClusterServer::Prestore(const RequestTraceOptions& trace_opts) {
  std::vector<std::pair<std::string, ContextSpec>> contexts;
  contexts.reserve(trace_opts.num_contexts);
  for (size_t i = 0; i < trace_opts.num_contexts; ++i) {
    contexts.emplace_back(PoolContextId(i), PoolContextSpec(trace_opts, i));
  }
  Prestore(contexts);
}

void ClusterServer::Prestore(
    std::span<const std::pair<std::string, ContextSpec>> contexts) {
  // Stored contexts stream from the calibration plan: build it with the warm
  // cache rather than inside the first Serve().
  engine_.calibration();
  for (const auto& [id, spec] : contexts) {
    tier_->BeginStore(id, spec);
    try {
      engine_.StoreKV(id, spec);
    } catch (...) {
      // Retire the unconsumed announcement before surfacing the failure —
      // a leaked announcement would misroute future Pin()s for this id.
      tier_->AbortStore(id);
      throw;
    }
  }
  // Persist the demotions the stores made, so serving starts from settled
  // on-disk state.
  tier_->Flush();
}

std::vector<RequestOutcome> ClusterServer::Serve(std::vector<ClusterRequest> trace) {
  const size_t n = trace.size();
  std::vector<RequestOutcome> outcomes(n);
  if (n == 0) return outcomes;

  // Build the calibration once, before the first plan needs it.
  engine_.calibration();

  // Resolve the SLO default up front so scheduler policies (EDF sorts by
  // arrival + slo) and the violation accounting agree on every request.
  for (ClusterRequest& rq : trace) {
    if (rq.slo_s <= 0.0) rq.slo_s = opts_.default_slo_s;
  }

  RequestQueue queue(std::move(trace));

  StartTelemetry();
  ServeEventLoop(queue, &outcomes);
  FinishTelemetry(last_completion_s_);

  // A cold tier holds the serve's demotions in RAM until Flush() persists
  // them: RAM is bounded per trace, and on-disk state is settled before the
  // caller inspects it.
  tier_->Flush();
  std::sort(outcomes.begin(), outcomes.end(),
            [](const RequestOutcome& a, const RequestOutcome& b) {
              return a.request.id < b.request.id;
            });
  return outcomes;
}

// The coordinator's state for one Serve(): its worker slots, the virtual
// instants it owes them, and the hand-off to its assembly decode threads.
//
// The decode threads run only assembly decodes, the codec CPU work of a hit
// served with assemble_kv. When the hit's stream ends, the coordinator reads
// the chunks it streamed (Engine::FetchKV, while the lookup's pin still
// holds them) and hands them over (Decode); a thread parses and decodes them
// (Engine::DecodeKV) without touching the cache tier, so the pin is released
// at the request's free instant like any other. At most one hand-off per
// thread is queued or running, which bounds the bitstreams held in memory:
// the coordinator waits only while every thread has one. Each thread decodes
// into its own KV buffer, reused across requests instead of refaulting fresh
// memory.
struct ClusterServer::Loop {
  struct Worker {
    double free_at = 0.0;
    bool busy = false;
    uint64_t track = 0;
    // The slot's request, from its admission decision to its free instant.
    std::optional<Task<void>> request;
    // Its link while it streams, and its park until its free instant.
    ClientLink* stream = nullptr;
    std::coroutine_handle<> at_free;
  };
  struct Assembly {
    ContextSpec spec;
    std::vector<int> levels;  // one decision per chunk, -1 = text
    std::vector<std::vector<uint8_t>> chunks;
    uint64_t track = 0;
  };

  Loop(const BandwidthTrace& capacity, const Engine& engine, size_t workers_n,
       size_t decode_threads)
      : link(capacity),
        workers(workers_n),
        free_handoffs_(static_cast<std::ptrdiff_t>(decode_threads)) {
    decoders_.reserve(decode_threads);
    for (size_t i = 0; i < decode_threads; ++i) {
      decoders_.emplace_back([this, &engine] { RunDecodes(engine); });
    }
  }
  Loop(const Loop&) = delete;  // the decode threads hold `this`
  Loop& operator=(const Loop&) = delete;
  // Every queued decode finishes before the threads exit, also when the
  // serve unwinds from a throwing ServeOne: each thread stops at an empty
  // hand-off, queued behind every decode.
  ~Loop() {
    for (size_t i = 0; i < decoders_.size(); ++i) Push(std::nullopt);
    for (std::thread& t : decoders_) t.join();
  }

  void Decode(Assembly a) {
    free_handoffs_.acquire();
    Push(std::move(a));
  }

  SharedLink link;
  std::vector<Worker> workers;
  // Admission instants owed, in admission order: (admit_s, slot) -> worker.
  std::map<std::pair<double, size_t>, size_t> admits;
  // Free instants owed: (free_s, payload), popped in that order.
  std::set<std::pair<double, uint64_t>> frees;
  // Flows whose stream is in progress -> worker.
  std::map<SharedLink::FlowId, size_t> streams;

 private:
  void Push(std::optional<Assembly> a) {
    {
      MutexLock lk(mu_);
      handoffs_.push_back(std::move(a));
    }
    queued_.release();
  }

  void RunDecodes(const Engine& engine) {
    KVCache assembly;
    for (;;) {
      queued_.acquire();
      std::optional<Assembly> a;
      {
        MutexLock lk(mu_);
        a = std::move(handoffs_.front());
        handoffs_.pop_front();
      }
      if (!a) return;
      {
        obs::ScopedRequestId rid(a->track);
        CG_TRACE_SPAN("cluster", "assemble_kv");
        try {
          engine.DecodeKV(a->spec, a->levels, a->chunks, assembly);
        } catch (const std::exception&) {
          // A malformed chunk: the text path would recompute it (already
          // priced into the streaming timeline as the coarsest outcome).
        }
      }
      a.reset();  // free the bitstreams before the hand-off slot
      free_handoffs_.release();
    }
  }

  Mutex mu_;
  std::deque<std::optional<Assembly>> handoffs_ CG_GUARDED_BY(mu_);
  std::counting_semaphore<> queued_{0};  // hand-offs in handoffs_
  std::counting_semaphore<> free_handoffs_;  // threads without one
  std::vector<std::thread> decoders_;
};

void ClusterServer::ServeEventLoop(RequestQueue& queue,
                                   std::vector<RequestOutcome>* outcomes) {
  const size_t num_workers = opts_.num_workers;
  Loop loop(capacity_, engine_, num_workers,
            opts_.assemble_kv ? std::min(num_workers, outcomes->size()) : 0);
  SharedLink& link = loop.link;
  size_t in_flight = 0;
  size_t admitted = 0;

  // A request's coroutine finishes before its free instant only by throwing.
  const auto rethrow_if_done = [](Loop::Worker& w) {
    if (w.request->done()) w.request->Take();
  };

  // Admit onto every idle worker while requests remain. After this, either
  // the queue is drained or every worker is busy. Each admission's request
  // starts when virtual time reaches its admit instant; the GPU ledger gets
  // its +1 now, before time can reach that instant. The adapter prior is
  // taken after the whole batch, so simultaneously admitted requests all
  // see the same post-batch contention (the actual GPU pricing is
  // per-event in the link's lanes, so the prior only seeds the adapter).
  const auto admit_all = [&] {
    struct Admission {
      ClusterRequest rq;
      size_t worker, slot;
      double admit_s;
    };
    std::vector<Admission> batch;
    while (!queue.Empty()) {
      size_t w = num_workers;
      for (size_t i = 0; i < num_workers; ++i) {
        if (!loop.workers[i].busy &&
            (w == num_workers || loop.workers[i].free_at < loop.workers[w].free_at)) {
          w = i;
        }
      }
      if (w == num_workers) break;  // all busy
      const double admit_s = std::max(loop.workers[w].free_at, queue.NextArrival());
      ClusterRequest rq = queue.PopReady(opts_.policy, admit_s);
      link.Admit(admit_s);
      loop.workers[w].busy = true;
      ++in_flight;
      CG_TRACE_VINSTANT("cluster", "admit", TraceTrack(rq), admit_s, "worker",
                        static_cast<double>(w));
      batch.push_back({std::move(rq), w, admitted++, admit_s});
    }
    if (!batch.empty()) CG_METRIC_COUNT("cluster.admission_batches", 1);
    CG_METRIC_GAUGE_SET("cluster.in_flight", in_flight);
    const double gpu_share =
        1.0 / static_cast<double>(std::max<size_t>(1, in_flight));
    for (Admission& a : batch) {
      Loop::Worker& w = loop.workers[a.worker];
      w.track = TraceTrack(a.rq);
      w.request.emplace(ServeOne(loop, std::move(a.rq), a.worker, a.slot,
                                 a.admit_s, gpu_share, (*outcomes)[a.slot]));
      loop.admits.emplace(std::make_pair(a.admit_s, a.slot), a.worker);
    }
  };

  admit_all();
  std::vector<SharedLink::FlowId> done;
  while (in_flight > 0) {
    double limit = std::numeric_limits<double>::infinity();
    if (!loop.admits.empty()) limit = loop.admits.begin()->first.first;
    if (!loop.frees.empty()) limit = std::min(limit, loop.frees.begin()->first);
    done = link.Step(limit);

    // Streams whose link operation completed, in flow-id order: each runs
    // to its next operation, or to the end of its stream.
    if (!done.empty()) {
      for (const SharedLink::FlowId id : done) {
        Loop::Worker& w = loop.workers[loop.streams.at(id)];
        obs::ScopedRequestId rid(w.track);
        w.stream->Resume();
        rethrow_if_done(w);
      }
      continue;
    }
    if (!link.Reached(limit)) continue;  // time moved to a link event

    // Free instants due now come before admit instants: a write-back is
    // visible to every lookup at or after its free instant, and to none
    // before it. Completion order is (free_s, worker, slot), so metric
    // recording and the telemetry sampler's windows are deterministic.
    bool freed = false;
    while (!loop.frees.empty() && link.Reached(loop.frees.begin()->first)) {
      freed = true;
      const auto [free_s, payload] = *loop.frees.begin();
      loop.frees.erase(loop.frees.begin());
      const size_t worker = static_cast<size_t>(payload >> 32);
      const size_t slot = static_cast<size_t>(payload & 0xffffffffu);
      Loop::Worker& w = loop.workers[worker];
      // AdvanceTo first: this completion's records belong to the window
      // containing free_s.
      if (series_) series_->AdvanceTo(free_s);
      {
        obs::ScopedRequestId rid(w.track);
        std::exchange(w.at_free, {}).resume();
      }
      w.request->Take();  // done: rethrows what ServeOne threw
      w.request.reset();
      w.busy = false;
      w.free_at = free_s;
      --in_flight;
      RecordOutcomeMetrics((*outcomes)[slot]);
      OnCompletionTelemetry((*outcomes)[slot]);
      admit_all();
    }
    // Step again before admitting: a stream may still drain at this instant
    // and free here too.
    if (freed) continue;

    // Admit instants due now, in admission order: lookup, then the stream
    // runs to its first link operation.
    while (!loop.admits.empty() && link.Reached(loop.admits.begin()->first.first)) {
      Loop::Worker& w = loop.workers[loop.admits.begin()->second];
      loop.admits.erase(loop.admits.begin());
      obs::ScopedRequestId rid(w.track);
      w.request->Start();
      rethrow_if_done(w);
    }
  }
}

Task<void> ClusterServer::ServeOne(Loop& loop, ClusterRequest rq, size_t worker,
                                   size_t slot, double admit_s, double gpu_share,
                                   RequestOutcome& out) {
  // Runs on the coordinator from the admit instant on. The coordinator sets
  // this request's trace id around every resumption, so everything recorded
  // below lands on its virtual track, including streamer per-chunk and net
  // grant events that never see the request struct.
  const uint64_t track = TraceTrack(rq);
  CG_TRACE_VSPAN("cluster", "queue_wait", track, rq.arrival_s, admit_s);

  // The request's lifecycle instants (cluster.event), each clamped to the
  // one before so the track never goes backwards: admission, transfer ends,
  // drained GPU completions and free_s come from different arithmetic whose
  // rounding may disagree by ulps (ci/check_trace.py requires per-track
  // monotone timestamps).
  double last_event_s = 0.0;
  const auto lifecycle = [&](const char* name, double t_s) {
    last_event_s = std::max(last_event_s, t_s);
    CG_TRACE_VINSTANT("cluster.event", name, track, last_event_s);
  };
  lifecycle("admit", admit_s);

  const SharedLink::FlowId flow = loop.link.Register(admit_s);
  // Virtual time has reached admit_s: every write-back freed before it is
  // visible here, none freed after it.
  const TierLookup look = tier_->LookupAndPin(rq.context_id, rq.spec, admit_s);
  const bool hit = look.hit();
  const bool prefix = look.prefix_hit();
  // Cold pricing applies whenever any streamed chunk came off the cold
  // device — a cold full hit, or a partial prefix whose covered chunks were
  // promoted. Remote pricing likewise applies whenever any covered byte
  // lives on a peer node of a multi-node fabric.
  const bool cold = look.any_cold;
  const bool remote = look.any_remote;
  // Whatever the lookup pinned (context and/or covered prefix chunks) is
  // owned by a guard: no exit path — including an exception — can leak it
  // and permanently shrink the evictable capacity.
  PinGuard pin =
      look.pinned ? PinGuard::Adopt(*tier_, rq.context_id) : PinGuard();

  const ContextPlan plan = engine_.PlanFromCalibration(rq.spec.num_tokens);
  const double slo = rq.slo_s;  // resolved against the default in Serve()
  const double queue_delay = admit_s - rq.arrival_s;
  // The adapter works against whatever SLO budget queueing has left.
  const double slo_budget = std::max(0.05, slo - queue_delay);
  const KVStreamer streamer(engine_.cost(), engine_.model(), slo_budget,
                            DefaultEncodingLevels().size());

  // First-chunk prior: assume the path splits as many ways as the GPU does.
  // gpu_share comes from the coordinator's in-flight count at admission.
  // The frozen share only seeds the adapter and this hint; actual GPU time
  // is priced per event by the link's lane as it drains. A remote or cold
  // stream's hint is capped at that path's read rate so the very first
  // chunk is already picked for the slower path.
  double hint = loop.link.CapacityGbpsAt(admit_s) * gpu_share;
  if (remote) hint = std::min(hint, opts_.remote_read_gbps);
  if (cold) hint = std::min(hint, kColdReadGbps);

  // Scenario -> streaming mode. A partial-prefix hit streams adaptively up
  // to the covered chunk count; everything past it ships as text (those
  // tokens exist nowhere as bitstreams), which is exactly where the GPU
  // prefill bill for the uncovered tail comes from. A miss covers no chunk,
  // so all of it ships as text.
  const StreamMode mode = hit && opts_.progressive ? StreamMode::kProgressive
                                                   : StreamMode::kAdaptive;
  const size_t kv_limit = hit ? SIZE_MAX : look.covered_chunks;
  ClientLink client(loop.link, flow);
  // A remote hit streams through the fabric interconnect first (bandwidth
  // cap + one RTT to first byte); a cold promotion, on a remote node too,
  // stacks the device-read model on top of it. SLO accounting needs no
  // special casing: the slower timeline simply is the stream's timeline.
  std::optional<ThrottledLink> remote_client;
  if (remote) {
    remote_client.emplace(client, opts_.remote_read_gbps, opts_.remote_rtt_s);
  }
  Link& net = remote ? static_cast<Link&>(*remote_client) : client;
  std::optional<ThrottledLink> cold_client;
  if (cold) cold_client.emplace(net, kColdReadGbps, kColdSeekS);
  Link& path = cold ? static_cast<Link&>(*cold_client) : net;

  StreamHooks hooks;
  hooks.post_gpu = [&](double arrival_s, double const_s, double shared_s) {
    client.PostGpuWork(arrival_s, const_s, shared_s);
  };
  hooks.drain_gpu = [&] { return client.DrainGpu(); };
  Loop::Worker& self = loop.workers[worker];
  self.stream = &client;
  loop.streams.emplace(flow, worker);
  const StreamResult sr = co_await streamer.StreamOp(
      plan, path, gpu_share, hint, mode, kv_limit, &hooks);
  loop.streams.erase(flow);
  self.stream = nullptr;

  // One instant per transfer, in stream order: the first enhancement step
  // also marks where the enhancement pass began. The GPU lane has drained
  // inside the stream, so the decode tail starts at the last transfer's end.
  bool enhancing = false;
  for (const StreamStep& step : sr.steps) {
    if (step.enhancement && !enhancing) {
      enhancing = true;
      lifecycle("enhance", step.tx_start_s);
    }
    lifecycle("chunk_transfer_done", step.tx_end_s);
  }
  lifecycle("decode", last_event_s);
  lifecycle("decode_done", admit_s + sr.stream_finish_s);

  // The worker (and its link flow) stays occupied through the enhancement
  // pass, which overlaps the prompt pass that runs right after load_finish;
  // in non-progressive modes stream_finish == load_finish and this is the
  // plain TTFT instant.
  const double free_s = admit_s + std::max(sr.ttft_s, sr.stream_finish_s);

  out.request = rq;
  out.worker = worker;
  out.admit_s = admit_s;
  out.queue_delay_s = queue_delay;
  out.load_finish_s = sr.load_finish_s;
  out.ttft_s = queue_delay + sr.ttft_s;
  out.finish_s = free_s;
  out.slo_violated = queue_delay + sr.load_finish_s > slo + 1e-12;
  out.cache_hit = hit;
  out.cold_hit = hit && look.tier == KVTier::kCold;
  out.remote_hit = remote;
  out.prefix_hit = prefix;
  out.covered_tokens = look.covered_tokens;
  out.forced_text = !hit && !prefix;  // prefix/cold streams never are
  out.quality = sr.quality;
  out.bytes_sent = sr.bytes_sent;
  out.base_quality = sr.base_quality;
  out.refine_delay_s = std::max(0.0, sr.stream_finish_s - sr.load_finish_s);
  out.base_token_fraction = sr.base_token_fraction;
  out.enhanced_token_fraction = sr.enhanced_token_fraction;
  out.fabric_node = look.home_node;

  if (remote) {
    // The interconnect leg of the stream: between queue_wait and the end of
    // kv_stream on this track (ci/check_trace.py validates the ordering on
    // every remote-hit track).
    CG_TRACE_VSPAN("fabric", "remote_fetch", track, admit_s,
                   admit_s + opts_.remote_rtt_s, "rtt_s", opts_.remote_rtt_s);
  }
  CG_TRACE_VSPAN("cluster", "kv_stream", track, admit_s,
                 admit_s + sr.load_finish_s, "bytes",
                 static_cast<double>(sr.bytes_sent));

  // A hit's assembly — real CPU, no virtual-time cost — decodes on a
  // decode thread while virtual time moves on. Its chunks are read now,
  // under the lookup's pin.
  if (hit && opts_.assemble_kv) {
    std::vector<int> levels;
    levels.reserve(sr.steps.size());
    for (const StreamStep& step : sr.steps) {
      // Enhancement steps revisit a chunk the base pass already delivered;
      // assembly wants exactly one decision per chunk.
      if (step.enhancement) continue;
      levels.push_back(step.config.text ? -1 : step.config.level_id);
    }
    try {
      auto chunks = engine_.FetchKV(rq.context_id, rq.spec, levels);
      loop.Decode({rq.spec, std::move(levels), std::move(chunks), track});
    } catch (const std::exception&) {
      // A chunk the pin could not keep (a tier that lost it); the text path
      // would recompute it, as priced into the streaming timeline.
    }
  }
  const double free_at = loop.link.Leave(flow, free_s);
  loop.frees.emplace(free_at, PackPayload(worker, slot));
  co_await Park{&self.at_free};

  // The free instant. The cluster.* metrics for this request are recorded
  // by the coordinator right after (RecordOutcomeMetrics), in completion
  // order. Every cache-tier change below happens at this virtual instant,
  // before any admission it unlocks looks up.
  // A partial-prefix hit writes back too (it is a context-level miss):
  // under a prefix-aware tier the covered chunks dedup into the store and
  // only the suffix costs bytes.
  if (!hit && opts_.write_back_on_miss) {
    // The encode's real CPU cost gets a wall span (pid 1). The lifecycle
    // marker on the request's virtual track is zero-duration at the free
    // instant — virtual time is never stretched by machine speed, keeping
    // replayed incident artifacts byte-identical.
    CG_TRACE_SPAN("cluster", "write_back_persist");
    // Announce BEFORE pinning: a prefix-aware tier pins the chunk addresses
    // of an announced id, so every chunk this write-back inserts is pinned
    // from its insert on. Pinned the other way round, a fresh chunk would
    // sit unpinned at LRU stamp 0 until Touch() runs, and the write-back's
    // own next insert could evict it from a bounded inner tier.
    tier_->BeginStore(rq.context_id, rq.spec);
    // Guard, not a bare Pin/Unpin pair: a throwing StoreKV (full disk,
    // failing backend) must not leave the context pinned forever as
    // unevictable dead capacity. The write-back itself is best-effort: on
    // failure the context simply stays uncached and serving carries on.
    PinGuard write_pin = PinGuard::Acquire(*tier_, rq.context_id);
    try {
      engine_.StoreKV(rq.context_id, rq.spec);
      // Put() cannot know virtual time; stamp recency here or the fresh
      // write-back would be the LRU victim.
      tier_->Touch(rq.context_id, free_s);
      out.write_back_done = true;
    } catch (const std::exception&) {
      // StoreKV persists through PutBatch, which rolls a failed insert of a
      // previously-absent context back entirely — no half-written context
      // is ever visible. The guard drops the pin; the tier just gets to
      // retire the unconsumed announcement.
      tier_->AbortStore(rq.context_id);
      out.write_back_failed = true;
    }
    CG_TRACE_VSPAN("cluster", "write_back", track, free_s, free_s);
  }
  // Commit (or trivial skip) settled: the request's terminal event.
  lifecycle("write_back_committed", free_s);
  // The hit-path unpin can itself evict by re-enforcing capacity, so it too
  // happens here, in virtual-time order.
  pin.Release();
  out.answer_correct = engine_.GenerateWithKV(rq.spec, sr.quality).correct;
}

// --- continuous telemetry ----------------------------------------------------

void ClusterServer::StartTelemetry() {
  series_.reset();
  monitor_.reset();
  recorder_.reset();
  completed_tracks_.clear();
  last_completed_track_ = 0;
  last_violated_track_ = 0;
  last_completion_s_ = 0.0;
  const TelemetryOptions& t = opts_.telemetry;
  if (t.sample_period_s <= 0.0) return;
  obs::TimeSeriesCollector::Options copts;
  copts.period_s = t.sample_period_s;
  copts.include.assign(std::begin(kTelemetrySeries), std::end(kTelemetrySeries));
  series_ = std::make_unique<obs::TimeSeriesCollector>(std::move(copts));
  monitor_ = std::make_unique<obs::SloMonitor>(t.slo);
  recorder_ = std::make_unique<obs::FlightRecorder>(t.recorder);
  series_->set_on_window([this](const obs::WindowRecord& win) {
    const auto rec = monitor_->OnWindow(win);
    if (rec && rec->to == obs::AlertLevel::kPage) {
      // The incident pivots on the most recent SLO-violated completion (the
      // request that tipped the burn), falling back to the most recent
      // completion — both fixed in completion order, hence deterministic.
      const uint64_t offender = last_violated_track_ != 0
                                    ? last_violated_track_
                                    : last_completed_track_;
      CaptureIncident(offender, win.end_s, "page");
    }
  });
  series_->Start(0.0);
}

void ClusterServer::OnCompletionTelemetry(const RequestOutcome& out) {
  if (!series_) return;
  const uint64_t track = TraceTrack(out.request);
  completed_tracks_.insert(track);
  last_completed_track_ = track;
  if (out.slo_violated) last_violated_track_ = track;
  last_completion_s_ = std::max(last_completion_s_, out.finish_s);
  if (out.fabric_node >= 0) {
    // Per-node fabric series, attributed at the completion instant the
    // sampler's windows are cut at (the fabric counts at admit instants).
    const std::string node = "fabric.node" + std::to_string(out.fabric_node);
    series_->BumpExternal(node + ".requests", 1);
    if (out.remote_hit) series_->BumpExternal(node + ".remote_streams", 1);
  }
}

void ClusterServer::FinishTelemetry(double t_s) {
  if (series_ && series_->started()) series_->Finish(t_s);
}

void ClusterServer::CaptureIncident(uint64_t offending_track, double t_s,
                                    const char* reason) {
  if (!recorder_) return;
  recorder_->Capture(offending_track, t_s, reason, [this](uint64_t trk) {
    return completed_tracks_.count(trk) != 0;
  });
}

}  // namespace cachegen
