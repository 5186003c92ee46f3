#include "cluster/cluster_server.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <stdexcept>
#include <thread>

#include "cluster/request_fsm.h"
#include "common/thread_annotations.h"
#include "codec/encoding_level.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prefix/prefix_cache.h"
#include "storage/pin_guard.h"
#include "streamer/streamer.h"

namespace cachegen {

namespace {

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
    CG_METRIC_COUNT(out.cold_hit ? "cluster.hits.cold" : "cluster.hits.hot", 1);
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
  if (!(opts_.cold_read_gbps > 0.0)) {
    throw std::invalid_argument("ClusterServer: cold_read_gbps must be > 0");
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
  // Make background tier state (cold-tier writers) deterministic before
  // serving starts.
  tier_->Flush();
}

std::vector<RequestOutcome> ClusterServer::Serve(std::vector<ClusterRequest> trace) {
  const size_t n = trace.size();
  std::vector<RequestOutcome> outcomes(n);
  if (n == 0) return outcomes;

  // Build the calibration once, before worker threads need it.
  engine_.calibration();

  // Resolve the SLO default up front so scheduler policies (EDF sorts by
  // arrival + slo) and the violation accounting agree on every request.
  for (ClusterRequest& rq : trace) {
    if (rq.slo_s <= 0.0) rq.slo_s = opts_.default_slo_s;
  }

  link_ = std::make_unique<SharedLink>(capacity_);
  // GPU lanes price work at share(t) = 1/min(num_workers, in_flight(t)).
  link_->SetGpuSlots(opts_.num_workers);
  RequestQueue queue(std::move(trace));

  StartTelemetry();
  ServeEventLoop(queue, n, &outcomes);
  FinishTelemetry(last_completion_s_);

  // Drain background tier work (the cold tier's demotion writer holds
  // evicted bitstreams in RAM until persisted) so RAM is bounded per trace
  // and on-disk state is settled before the caller inspects it.
  tier_->Flush();
  std::sort(outcomes.begin(), outcomes.end(),
            [](const RequestOutcome& a, const RequestOutcome& b) {
              return a.request.id < b.request.id;
            });
  return outcomes;
}

// One worker's claim from the coordinator: a request, its slot, and the
// admission hold that caps virtual time until the worker's flow registers.
struct ClusterServer::WorkChannel {
  struct Admission {
    ClusterRequest rq;
    size_t worker = 0;
    size_t slot = 0;
    double admit_s = 0.0;
    SharedLink::HoldId hold = 0;
    double gpu_share = 1.0;  // adapter/hint prior, frozen at admission
  };

  Mutex mu;
  CondVar cv;
  std::deque<Admission> admissions CG_GUARDED_BY(mu);
  // Post-completion codec tails (assemble/generate/pin-release): real CPU
  // work with no virtual-time cost, drained by whichever worker goes idle
  // first instead of by a thread outliving its slot. A tail assembles into
  // the KV buffer of the thread that runs it.
  using Tail = std::function<void(KVCache& assembly)>;
  std::deque<Tail> continuations CG_GUARDED_BY(mu);
  bool closed CG_GUARDED_BY(mu) = false;

  void PushAdmission(Admission a) {
    {
      MutexLock lk(mu);
      admissions.push_back(std::move(a));
      CG_METRIC_GAUGE_SET("cluster.queue.admission_depth", admissions.size());
    }
    cv.NotifyOne();
  }

  void PushContinuation(Tail fn) {
    {
      MutexLock lk(mu);
      continuations.push_back(std::move(fn));
      CG_METRIC_GAUGE_SET("cluster.queue.continuation_depth",
                          continuations.size());
    }
    cv.NotifyOne();
  }

  void Close() {
    {
      MutexLock lk(mu);
      closed = true;
    }
    cv.NotifyAll();
  }
};

void ClusterServer::ServeEventLoop(RequestQueue& queue, size_t n,
                                   std::vector<RequestOutcome>* outcomes) {
  const auto policy = MakeSchedulerPolicy(opts_.policy);
  std::vector<double> free_at(opts_.num_workers, 0.0);
  std::vector<bool> busy(opts_.num_workers, false);
  size_t in_flight = 0;
  size_t admitted = 0;
  WorkChannel channel;

  // The fixed pool: admissions first (they gate virtual time), then
  // continuations; exit only once the channel is closed and drained. Every
  // tail is enqueued by a worker before that worker's next channel wait, so
  // by the time the pool unwinds no continuation can be stranded.
  //
  // Each pool thread owns the KV buffer every tail it runs assembles into,
  // so decoded contexts reuse one allocation per thread instead of
  // refaulting fresh memory per request. The buffer belongs to the thread,
  // not to a worker slot: a freed slot's next request can finish while the
  // previous request's tail still runs elsewhere.
  const size_t pool_size = std::min(opts_.num_workers, n);
  std::vector<std::thread> pool;
  pool.reserve(pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    pool.emplace_back([&] {
      KVCache assembly;
      for (;;) {
        WorkChannel::Admission adm;
        WorkChannel::Tail tail;
        bool have_adm = false;
        {
          MutexLock lk(channel.mu);
          while (!channel.closed && channel.admissions.empty() &&
                 channel.continuations.empty()) {
            channel.cv.Wait(channel.mu);
          }
          if (!channel.admissions.empty()) {
            adm = std::move(channel.admissions.front());
            channel.admissions.pop_front();
            have_adm = true;
            CG_METRIC_GAUGE_SET("cluster.queue.admission_depth",
                                channel.admissions.size());
          } else if (!channel.continuations.empty()) {
            tail = std::move(channel.continuations.front());
            channel.continuations.pop_front();
            CG_METRIC_GAUGE_SET("cluster.queue.continuation_depth",
                                channel.continuations.size());
          } else {
            return;  // closed and fully drained
          }
        }
        if (have_adm) {
          ServeOne(std::move(adm.rq), adm.worker, adm.slot, adm.admit_s,
                   adm.hold, adm.gpu_share, outcomes, channel);
        } else {
          tail(assembly);
        }
      }
    });
  }

  // Admit onto every idle worker while requests remain. After this, either
  // the queue is drained or every worker is busy. Queueing is deferred to
  // the end of the batch so that simultaneously admitted requests all see
  // the same post-batch contention prior (the actual GPU pricing is
  // per-event in the arbiter's lanes, so the prior only seeds the adapter).
  const auto admit_all = [&] {
    std::vector<WorkChannel::Admission> batch;
    while (!queue.Empty()) {
      size_t w = opts_.num_workers;
      for (size_t i = 0; i < opts_.num_workers; ++i) {
        if (!busy[i] && (w == opts_.num_workers || free_at[i] < free_at[w])) {
          w = i;
        }
      }
      if (w == opts_.num_workers) break;  // all busy
      const double admit_s = std::max(free_at[w], queue.NextArrival());
      ClusterRequest rq = queue.PopReady(*policy, admit_s);
      // Cap virtual time at the admission instant until the worker's flow
      // registers, so no in-flight stream races past it unshared — and
      // record the GPU ledger +1 under the same hold, so every lane segment
      // from admit_s on is priced with this request contending.
      const SharedLink::HoldId hold = link_->HoldAdmission(admit_s);
      busy[w] = true;
      ++in_flight;
      CG_TRACE_VINSTANT("cluster", "admit", TraceTrack(rq), admit_s, "worker",
                        static_cast<double>(w));
      WorkChannel::Admission a;
      a.rq = std::move(rq);
      a.worker = w;
      a.slot = admitted++;
      a.admit_s = admit_s;
      a.hold = hold;
      batch.push_back(std::move(a));
    }
    if (!batch.empty()) CG_METRIC_COUNT("cluster.admission_batches", 1);
    CG_METRIC_GAUGE_SET("cluster.in_flight", in_flight);
    const double gpu_share =
        1.0 / static_cast<double>(std::min(opts_.num_workers,
                                           std::max<size_t>(1, in_flight)));
    for (WorkChannel::Admission& a : batch) {
      a.gpu_share = gpu_share;
      channel.PushAdmission(std::move(a));
    }
  };

  admit_all();
  while (in_flight > 0) {
    const SharedLink::Completion c = link_->PopCompletion(in_flight);
    const size_t w = static_cast<size_t>(c.payload >> 32);
    const size_t slot = static_cast<size_t>(c.payload & 0xffffffffu);
    busy[w] = false;
    free_at[w] = c.free_s;
    --in_flight;
    // Completion-ordered metric recording: the worker filled the outcome
    // before CompleteFlow (visible here through the link's mutex), so the
    // coordinator can record the per-request metrics in deterministic
    // virtual-time order — the property the time-series sampler needs.
    // AdvanceTo first: this completion's records belong to the window
    // containing c.free_s.
    if (series_) series_->AdvanceTo(c.free_s);
    RecordOutcomeMetrics((*outcomes)[slot]);
    OnCompletionTelemetry((*outcomes)[slot]);
    admit_all();  // admit before releasing the hold at c.free_s
    link_->ReleaseHold(c.hold);
  }

  channel.Close();
  for (std::thread& t : pool) t.join();
  // Belt and braces: nothing should remain (each worker drains before
  // exiting), but a continuation enqueued between another worker's final
  // check and its exit is still run here. Pop under the lock, run outside
  // it: a tail may itself push a continuation. The drain assembles into a
  // buffer of its own.
  KVCache assembly;
  for (;;) {
    WorkChannel::Tail fn;
    {
      MutexLock lk(channel.mu);
      if (channel.continuations.empty()) break;
      fn = std::move(channel.continuations.front());
      channel.continuations.pop_front();
    }
    fn(assembly);
  }
}

void ClusterServer::ServeOne(ClusterRequest rq, size_t worker, size_t slot,
                             double admit_s, SharedLink::HoldId admit_hold,
                             double gpu_share,
                             std::vector<RequestOutcome>* outcomes,
                             WorkChannel& channel) {
  // Everything this pool worker records below lands on this request's
  // virtual track, including streamer per-chunk and net grant events that
  // never see the request struct.
  const uint64_t track = TraceTrack(rq);
  obs::ScopedRequestId rid(track);
  CG_TRACE_VSPAN("cluster", "queue_wait", track, rq.arrival_s, admit_s);

  RequestFsm fsm(track);
  fsm.Feed(RequestEvent::kAdmit, admit_s);

  const SharedLink::FlowId flow = link_->Register(admit_s, rq.weight);
  // Our unparked flow now freezes virtual time; the admission hold can go.
  link_->ReleaseHold(admit_hold);

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
  KVStreamer streamer(engine_.cost(), engine_.model(), slo_budget,
                      DefaultEncodingLevels().size());

  // First-chunk prior: assume the path splits as many ways as the GPU does.
  // gpu_share comes from the coordinator's in-flight count at admission, so
  // the hint is deterministic (SharedLink::ActiveFlows() would race with
  // peers still registering in wall-clock time). The frozen share only seeds
  // the adapter and this hint; actual GPU time is priced per event by the
  // arbiter's lane as it drains. A remote or cold stream's hint is capped at
  // that path's read rate so the very first chunk is already picked for the
  // slower path.
  double hint = opts_.throughput_hint_gbps.value_or(
      link_->CapacityGbpsAt(admit_s) * gpu_share);
  if (remote) hint = std::min(hint, opts_.remote_read_gbps);
  if (cold) hint = std::min(hint, opts_.cold_read_gbps);

  // Scenario -> streaming mode. A partial-prefix hit streams adaptively up
  // to the covered chunk count; everything past it is forced text (those
  // tokens exist nowhere as bitstreams), which is exactly where the GPU
  // prefill bill for the uncovered tail comes from.
  const StreamMode mode =
      hit ? (opts_.progressive ? StreamMode::kProgressive : StreamMode::kAdaptive)
          : (prefix ? StreamMode::kAdaptive : StreamMode::kForceText);
  const size_t kv_limit = prefix ? look.covered_chunks : SIZE_MAX;
  ClientLink client(*link_, flow);
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
  if (cold) cold_client.emplace(net, opts_.cold_read_gbps, opts_.cold_seek_s);
  Link& path = cold ? static_cast<Link&>(*cold_client) : net;

  StreamHooks hooks;
  hooks.post_gpu = [&](double arrival_s, double const_s, double shared_s) {
    link_->PostGpuWork(flow, arrival_s, const_s, shared_s);
  };
  hooks.drain_gpu = [&] { return link_->DrainGpu(flow); };
  hooks.on_transfer = [&](const StreamStep& step) {
    if (step.enhancement && fsm.state() == RequestState::kKvStreaming) {
      fsm.Feed(RequestEvent::kEnhance, step.tx_start_s);
    }
    fsm.Feed(RequestEvent::kChunkTransferDone, step.tx_end_s);
  };
  const StreamResult sr =
      streamer.Stream(plan, path, gpu_share, hint, mode, kv_limit, &hooks);

  // Transfers are done (last chunk_transfer_done instant) and the GPU lane
  // has drained inside Stream(); stamp the two tail events.
  fsm.Feed(RequestEvent::kDecode, fsm.last_event_s());
  fsm.Feed(RequestEvent::kDecodeDone, admit_s + sr.stream_finish_s);

  // The worker (and its link flow) stays occupied through the enhancement
  // pass, which overlaps the prompt pass that runs right after load_finish;
  // in non-progressive modes stream_finish == load_finish and this is the
  // plain TTFT instant.
  const double free_s = admit_s + std::max(sr.ttft_s, sr.stream_finish_s);

  RequestOutcome& out = (*outcomes)[slot];
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
  // The cluster.* metrics for this request are recorded by the COORDINATOR
  // when it pops this completion (RecordOutcomeMetrics), in deterministic
  // completion order — a worker-side record here would land at a wall-clock
  // instant and tear the telemetry sampler's windows.

  // Cache-tier mutations happen BEFORE the worker slot is handed back:
  // CompleteFlow is what lets the coordinator admit the next request, so
  // ordering write-back (and the hit-path unpin, which can itself evict by
  // re-enforcing capacity) first guarantees a successor admitted because of
  // this completion sees a settled cache tier — hit/miss outcomes stay
  // reproducible instead of racing in wall-clock time. A partial-prefix hit
  // writes back too (it is a context-level miss): under a prefix-aware tier
  // the covered chunks dedup into the store and only the suffix costs bytes.
  if (!hit && opts_.write_back_on_miss) {
    // The encode's real CPU cost is wall-clock work overlapping serving: it
    // gets a wall span (pid 1). The lifecycle marker on the request's
    // virtual track is zero-duration at the completion instant — virtual
    // time is never stretched by machine speed, keeping replayed incident
    // artifacts byte-identical.
    CG_TRACE_SPAN("cluster", "write_back_persist");
    // Announce BEFORE pinning: a prefix-aware tier routes Pin() by what it
    // knows about the id, so the announcement is what turns this pin into a
    // pending context pin that carries over to the registration — pinned
    // the other way round, a freshly registered context would sit unpinned
    // at LRU stamp 0, the prime victim for a concurrent worker's eviction
    // before Touch() runs.
    tier_->BeginStore(rq.context_id, rq.spec);
    // Guard, not a bare Pin/Unpin pair: a throwing StoreKV (full disk,
    // failing backend) must not leave the context pinned forever as
    // unevictable dead capacity. The write-back itself is best-effort: on
    // failure the context simply stays uncached and the worker carries on.
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
  fsm.Feed(RequestEvent::kWriteBackCommitted, free_s);

  const bool keep_pin_for_assembly = hit && opts_.assemble_kv;
  if (look.pinned && !keep_pin_for_assembly) pin.Release();
  link_->CompleteFlow(flow, free_s, PackPayload(worker, slot));

  // Below here only read-only (or pin-release) work remains. The codec
  // tail — real CPU, no virtual-time cost — goes to the continuation queue
  // instead of keeping this slot's thread alive: any worker that goes idle
  // drains it, so codec CPU parallelizes across workers instead of freezing
  // virtual time. The assembly pin rides along in a shared_ptr
  // (std::function requires copyable captures).
  std::vector<int> levels;
  if (keep_pin_for_assembly) {
    levels.reserve(sr.steps.size());
    for (const StreamStep& step : sr.steps) {
      // Enhancement steps revisit a chunk the base pass already delivered;
      // assembly wants exactly one decision per chunk.
      if (step.enhancement) continue;
      levels.push_back(step.config.text ? -1 : step.config.level_id);
    }
  }
  auto tail_pin = std::make_shared<PinGuard>(std::move(pin));
  channel.PushContinuation(
      [this, spec = rq.spec, ctx = rq.context_id, levels = std::move(levels),
       assemble = keep_pin_for_assembly, tail_pin, quality = sr.quality,
       out_ptr = &out, track](KVCache& assembly) {
        obs::ScopedRequestId tail_rid(track);
        if (assemble) {
          CG_TRACE_SPAN("cluster", "assemble_kv");
          try {
            engine_.AssembleKV(ctx, spec, levels, assembly);
          } catch (const std::exception&) {
            // A chunk was evicted between lookup and assembly under extreme
            // capacity pressure; the text path would recompute it (already
            // priced into the streaming timeline as the coarsest outcome).
          }
          tail_pin->Release();
        }
        out_ptr->answer_correct = engine_.GenerateWithKV(spec, quality).correct;
      });
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
  incident_injected_ = false;
  const TelemetryOptions& t = opts_.telemetry;
  if (t.sample_period_s <= 0.0) return;
  obs::TimeSeriesCollector::Options copts;
  copts.period_s = t.sample_period_s;
  copts.max_windows = t.max_windows;
  copts.include = t.include;
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
    // Per-node fabric series, attributed by the coordinator: the fabric's
    // own per-node counters are worker-recorded and racy to sample.
    const std::string node = "fabric.node" + std::to_string(out.fabric_node);
    series_->BumpExternal(node + ".requests", 1);
    if (out.remote_hit) series_->BumpExternal(node + ".remote_streams", 1);
  }
  if (opts_.telemetry.inject_incident_at_s >= 0.0 && !incident_injected_ &&
      out.finish_s >= opts_.telemetry.inject_incident_at_s) {
    incident_injected_ = true;
    CaptureIncident(track, out.finish_s, "injected");
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
