#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "cluster/cluster_metrics.h"
#include "cluster/cluster_server.h"
#include "cluster/request_queue.h"
#include "cluster/scheduler.h"
#include "cluster/shared_link.h"
#include "net/bandwidth_trace.h"
#include "serving/engine.h"
#include "storage/sharded_kv_store.h"
#include "streamer/chunking.h"

namespace cachegen {
namespace {

// ---------------------------------------------------------------------------
// SharedLink: the fluid fair-share arbiter in isolation.
// ---------------------------------------------------------------------------

constexpr double kNoLimit = std::numeric_limits<double>::infinity();

// Step the simulator until every flow in `flows` has completed its pending
// operation, as the cluster coordinator does between its own instants. A
// finished flow leaves at its end instant (every flow must have an operation
// pending whenever time advances). Returns each flow's end instant.
std::map<SharedLink::FlowId, double> RunUntilDone(
    SharedLink& link, std::set<SharedLink::FlowId> flows) {
  std::map<SharedLink::FlowId, double> end;
  while (!flows.empty()) {
    const std::vector<SharedLink::FlowId> done = link.Step(kNoLimit);
    for (const SharedLink::FlowId id : done) {
      end[id] = link.FlowClock(id);
      flows.erase(id);
      link.Leave(id, end[id]);
    }
  }
  return end;
}

// The single-flow API perfbench's probe uses: Transfer runs the
// simulation to the transfer's end, and the completion pops in order.
TEST(SharedLink, SingleFlowMatchesPrivateLinkTiming) {
  SharedLink link(BandwidthTrace::Constant(1.0));  // 1 Gbps
  const auto flow = link.Register(0.0);
  const double bytes = 1e9 / 8.0;  // exactly one second at 1 Gbps
  const TransferRecord rec = link.Transfer(flow, bytes);
  EXPECT_DOUBLE_EQ(rec.start_s, 0.0);
  EXPECT_NEAR(rec.end_s, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(rec.bytes, bytes);
  EXPECT_NEAR(rec.bytes * 8.0 / 1e9 / rec.Seconds(), 1.0, 1e-9);  // Gbps
  link.CompleteFlow(flow, rec.end_s, 7);
  const SharedLink::Completion c = link.PopCompletion(1);
  EXPECT_NEAR(c.free_s, 1.0, 1e-9);
  EXPECT_EQ(c.payload, 7u);
  link.ReleaseHold(c.hold);
}

TEST(SharedLink, TwoEqualFlowsHalveEachOther) {
  SharedLink link(BandwidthTrace::Constant(1.0));
  const auto f1 = link.Register(0.0);
  const auto f2 = link.Register(0.0);
  const double bytes = 1e9 / 8.0;  // 1 s alone, 2 s when shared
  ASSERT_FALSE(link.StartTransfer(f1, bytes));
  ASSERT_FALSE(link.StartTransfer(f2, bytes));
  const auto end = RunUntilDone(link, {f1, f2});
  EXPECT_NEAR(end.at(f1), 2.0, 1e-6);
  EXPECT_NEAR(end.at(f2), 2.0, 1e-6);
}

TEST(SharedLink, LateFlowOnlySharesWhileActive) {
  SharedLink link(BandwidthTrace::Constant(1.0));
  const auto early = link.Register(0.0);
  const auto late = link.Register(1.0);  // admitted at t = 1 s
  const double bytes = 2e9 / 8.0;        // 2 s alone
  ASSERT_FALSE(link.StartTransfer(early, bytes));
  ASSERT_FALSE(link.StartTransfer(late, bytes));
  EXPECT_DOUBLE_EQ(link.TransferStart(late), 1.0);
  const auto end = RunUntilDone(link, {early, late});
  // Early runs alone for 1 s (half done), then shares: remaining 1 s of work
  // at half rate = 2 s more -> ends at 3 s. Late: from t=1 at half rate
  // until 3 s (1 s of work done), then alone for its last second -> 4 s.
  EXPECT_NEAR(end.at(early), 3.0, 1e-6);
  EXPECT_NEAR(end.at(late), 4.0, 1e-6);
}

// Step never advances past the caller's limit (the coordinator's next
// admission or free instant), and stops exactly there.
TEST(SharedLink, StepStopsAtTheCallersNextInstant) {
  SharedLink link(BandwidthTrace::Constant(1.0));
  const auto flow = link.Register(0.0);
  ASSERT_FALSE(link.StartTransfer(flow, 1e9 / 8.0));
  while (!link.Reached(0.5)) EXPECT_TRUE(link.Step(0.5).empty());
  EXPECT_NEAR(link.now(), 0.5, 1e-9);
  EXPECT_TRUE(link.Step(0.5).empty());  // at the limit: time stays
  EXPECT_NEAR(link.now(), 0.5, 1e-9);
  EXPECT_NEAR(RunUntilDone(link, {flow}).at(flow), 1.0, 1e-9);
}

// A wait completes at its instant and a drain of an empty lane completes at
// once, without advancing time.
TEST(SharedLink, WaitsAndEmptyDrainsComplete) {
  SharedLink link(BandwidthTrace::Constant(1.0));
  const auto flow = link.Register(0.25);
  EXPECT_TRUE(link.StartWait(flow, 0.25));   // already there
  EXPECT_TRUE(link.StartDrain(flow));        // nothing posted
  EXPECT_TRUE(link.StartTransfer(flow, 0.0));
  ASSERT_FALSE(link.StartWait(flow, 0.75));
  while (link.Step(kNoLimit).empty()) {
  }
  EXPECT_DOUBLE_EQ(link.now(), 0.75);
  EXPECT_DOUBLE_EQ(link.FlowClock(flow), 0.75);
  EXPECT_DOUBLE_EQ(link.Leave(flow, 0.5), 0.75);  // never before now
}

// ---------------------------------------------------------------------------
// Scheduler policies.
// ---------------------------------------------------------------------------

ClusterRequest MakeReq(uint64_t id, double arrival, size_t tokens, double slo) {
  ClusterRequest rq;
  rq.id = id;
  rq.arrival_s = arrival;
  rq.context_id = "ctx-" + std::to_string(id);
  rq.spec = {id, tokens};
  rq.slo_s = slo;
  return rq;
}

TEST(SchedulerPolicy, PolicyPicksMatchTheirObjectives) {
  const ClusterRequest a = MakeReq(0, 0.0, 9000, 10.0);  // early, long, lax
  const ClusterRequest b = MakeReq(1, 0.5, 1000, 9.0);   // later, short
  const ClusterRequest c = MakeReq(2, 0.8, 5000, 0.5);   // latest, tight SLO
  const auto first_pick = [&](SchedulerPolicyKind kind) {
    RequestQueue queue({a, b, c});
    return queue.PopReady(kind, 1.0).id;
  };
  EXPECT_EQ(first_pick(SchedulerPolicyKind::kFifo), 0u);
  EXPECT_EQ(first_pick(SchedulerPolicyKind::kShortestLoadFirst), 1u);
  // deadline 0.8 + 0.5 = 1.3, earliest
  EXPECT_EQ(first_pick(SchedulerPolicyKind::kSloDeadlineFirst), 2u);
}

TEST(SchedulerPolicy, EqualKeysAdmitTheLowerIdFirst) {
  // Same arrival, length and SLO: every policy falls back to the id.
  const ClusterRequest a = MakeReq(3, 1.0, 2000, 1.0);
  const ClusterRequest b = MakeReq(7, 1.0, 2000, 1.0);
  for (const SchedulerPolicyKind kind :
       {SchedulerPolicyKind::kFifo, SchedulerPolicyKind::kShortestLoadFirst,
        SchedulerPolicyKind::kSloDeadlineFirst}) {
    EXPECT_TRUE(AdmitsBefore(kind, a, b)) << SchedulerPolicyName(kind);
    EXPECT_FALSE(AdmitsBefore(kind, b, a)) << SchedulerPolicyName(kind);
    EXPECT_FALSE(AdmitsBefore(kind, a, a)) << SchedulerPolicyName(kind);
  }
}

TEST(RequestQueue, PopReadyOnlyConsidersArrived) {
  RequestQueue queue({MakeReq(0, 0.0, 100, 1), MakeReq(1, 5.0, 50, 1)});
  const SchedulerPolicyKind slf = SchedulerPolicyKind::kShortestLoadFirst;
  // At t=1 only request 0 is eligible even though 1 is shorter.
  const ClusterRequest first = queue.PopReady(slf, 1.0);
  EXPECT_EQ(first.id, 0u);
  EXPECT_EQ(queue.NextArrival(), 5.0);
  const ClusterRequest second = queue.PopReady(slf, 6.0);
  EXPECT_EQ(second.id, 1u);
  EXPECT_TRUE(queue.Empty());
}

TEST(RequestTrace, PoissonTraceIsDeterministicAndSorted) {
  RequestTraceOptions opts;
  opts.num_requests = 50;
  opts.seed = 42;
  const auto a = PoissonTrace(opts);
  const auto b = PoissonTrace(opts);
  ASSERT_EQ(a.size(), 50u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].context_id, b[i].context_id);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
    }
  }
}

// ---------------------------------------------------------------------------
// ClusterServer end-to-end (shared Engine across tests: construction is the
// expensive part).
// ---------------------------------------------------------------------------

struct ClusterFixture {
  RequestTraceOptions trace_opts;
  std::shared_ptr<ShardedKVStore> store;
  std::unique_ptr<Engine> engine;

  explicit ClusterFixture(uint64_t capacity_bytes = 0, size_t num_shards = 4) {
    trace_opts.num_contexts = 4;
    trace_opts.min_tokens = 900;
    trace_opts.max_tokens = 1800;
    trace_opts.slo_s = 4.0;
    trace_opts.seed = 0xC1u;

    Engine::Options eopts;
    eopts.model_name = "mistral-7b";
    eopts.calib_context_tokens = 600;
    eopts.calib_num_contexts = 4;
    store = std::make_shared<ShardedKVStore>(ShardedKVStore::Options{
        .num_shards = num_shards, .capacity_bytes = capacity_bytes});
    engine = std::make_unique<Engine>(eopts, store);
  }
};

ClusterFixture& WarmFixture() {
  static ClusterFixture* fx = [] {
    auto* f = new ClusterFixture();
    ClusterServer::Options copts;
    ClusterServer server(*f->engine, f->store, BandwidthTrace::Constant(2.0), copts);
    server.Prestore(f->trace_opts);  // warm cache: every request hits
    return f;
  }();
  return *fx;
}

std::vector<RequestOutcome> RunLoad(ClusterFixture& fx, double rate_hz,
                                    size_t num_requests, size_t workers,
                                    SchedulerPolicyKind policy) {
  RequestTraceOptions topts = fx.trace_opts;
  topts.num_requests = num_requests;
  topts.arrival_rate_hz = rate_hz;
  ClusterServer::Options copts;
  copts.num_workers = workers;
  copts.policy = policy;
  copts.write_back_on_miss = false;  // keep virtual-only (everything hits)
  copts.assemble_kv = false;
  ClusterServer server(*fx.engine, fx.store, BandwidthTrace::Constant(2.0), copts);
  return server.Serve(PoissonTrace(topts));
}

TEST(ClusterServer, ServesWholeTraceDeterministically) {
  ClusterFixture& fx = WarmFixture();
  const auto a = RunLoad(fx, 2.0, 16, 4, SchedulerPolicyKind::kFifo);
  const auto b = RunLoad(fx, 2.0, 16, 4, SchedulerPolicyKind::kFifo);
  ASSERT_EQ(a.size(), 16u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].request.id, i);
    EXPECT_TRUE(a[i].cache_hit);
    EXPECT_GT(a[i].ttft_s, 0.0);
    EXPECT_GE(a[i].admit_s, a[i].request.arrival_s - 1e-9);
    // Bit-identical across runs: virtual time is independent of thread
    // scheduling.
    EXPECT_DOUBLE_EQ(a[i].ttft_s, b[i].ttft_s);
    EXPECT_DOUBLE_EQ(a[i].finish_s, b[i].finish_s);
    EXPECT_EQ(a[i].worker, b[i].worker);
  }
}

TEST(ClusterServer, P95TtftIsMonotoneInOfferedLoad) {
  ClusterFixture& fx = WarmFixture();
  std::vector<double> p95s;
  for (const double rate : {0.25, 2.0, 16.0}) {
    const auto outcomes = RunLoad(fx, rate, 24, 4, SchedulerPolicyKind::kFifo);
    p95s.push_back(Summarize(outcomes).p95_ttft_s);
  }
  EXPECT_LE(p95s[0], p95s[1] + 1e-9);
  EXPECT_LE(p95s[1], p95s[2] + 1e-9);
  // And strictly worse from light to heavy load overall.
  EXPECT_LT(p95s[0], p95s[2]);
}

TEST(ClusterServer, ConcurrencyDegradesTtftVsSolo) {
  ClusterFixture& fx = WarmFixture();
  // Same 8 requests served by 1 worker (sequential, sole use of the link)
  // vs 8 workers (all share the link).
  const auto solo = RunLoad(fx, 1000.0, 8, 1, SchedulerPolicyKind::kFifo);
  const auto packed = RunLoad(fx, 1000.0, 8, 8, SchedulerPolicyKind::kFifo);
  // With all 8 in flight at once the slowest stream must be slower than any
  // solo stream of the same contexts (bandwidth is split 8 ways).
  double max_solo_stream = 0.0, max_packed_stream = 0.0;
  for (const auto& o : solo) max_solo_stream = std::max(max_solo_stream, o.load_finish_s);
  for (const auto& o : packed) {
    max_packed_stream = std::max(max_packed_stream, o.load_finish_s);
  }
  EXPECT_GT(max_packed_stream, max_solo_stream);
}

TEST(ClusterServer, CapacityPressureProducesMissesAndEvictions) {
  // Fresh fixture with a cache far smaller than the working set. One shard
  // so the contexts genuinely contend for the same LRU budget (a shard
  // always retains its last context, so a tiny multi-shard store would
  // simply keep one context per shard).
  ClusterFixture fx(/*capacity_bytes=*/1, /*num_shards=*/1);
  RequestTraceOptions topts = fx.trace_opts;
  topts.num_requests = 8;
  topts.num_contexts = 3;
  topts.zipf_exponent = 0.0;  // uniform: several distinct contexts contend
  topts.min_tokens = 600;
  topts.max_tokens = 900;
  topts.arrival_rate_hz = 1.0;
  ClusterServer::Options copts;
  copts.num_workers = 2;
  copts.write_back_on_miss = true;
  ClusterServer server(*fx.engine, fx.store, BandwidthTrace::Constant(2.0), copts);
  const auto outcomes = server.Serve(PoissonTrace(topts));
  ASSERT_EQ(outcomes.size(), 8u);
  const auto stats = fx.store->stats();
  EXPECT_GT(stats.context_misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
  for (const auto& o : outcomes) {
    if (!o.cache_hit) {
      EXPECT_TRUE(o.forced_text);
      EXPECT_DOUBLE_EQ(o.quality, 1.0);  // text path is lossless
    }
  }
}

TEST(ClusterServer, SummaryAggregatesAreCoherent) {
  ClusterFixture& fx = WarmFixture();
  const auto outcomes = RunLoad(fx, 8.0, 20, 4, SchedulerPolicyKind::kSloDeadlineFirst);
  const ClusterSummary s = Summarize(outcomes);
  EXPECT_EQ(s.completed, 20u);
  EXPECT_GT(s.makespan_s, 0.0);
  EXPECT_GE(s.p95_ttft_s, s.p50_ttft_s);
  EXPECT_GE(s.p99_ttft_s, s.p95_ttft_s);
  EXPECT_GE(s.slo_violation_rate, 0.0);
  EXPECT_LE(s.slo_violation_rate, 1.0);
  EXPECT_GT(s.goodput_tokens_per_s, 0.0);
  EXPECT_GT(s.mean_qoe_mos, 1.0);
  EXPECT_LE(s.mean_qoe_mos, 5.0);
  EXPECT_DOUBLE_EQ(s.cache_hit_rate, 1.0);
}

TEST(ClusterServer, ProgressiveUpgradesWithSlackAndDegradesUnderContention) {
  // Long contexts and an SLO below the text-recompute time force KV levels;
  // the virtual store is primed with marker chunks so every request hits
  // (the streaming timeline never reads chunk bytes with assemble_kv off).
  ClusterFixture fx;
  fx.trace_opts.min_tokens = 4500;
  fx.trace_opts.max_tokens = 6000;
  fx.trace_opts.slo_s = 0.8;
  for (size_t i = 0; i < fx.trace_opts.num_contexts; ++i) {
    const uint8_t marker[] = {1};
    fx.store->Put({PoolContextId(i), 0, 0}, marker);
  }

  auto run = [&](double rate_hz, size_t workers, bool progressive) {
    RequestTraceOptions topts = fx.trace_opts;
    topts.num_requests = 10;
    topts.arrival_rate_hz = rate_hz;
    ClusterServer::Options copts;
    copts.num_workers = workers;
    copts.write_back_on_miss = false;
    copts.progressive = progressive;
    ClusterServer server(*fx.engine, fx.store, BandwidthTrace::Constant(2.0), copts);
    return server.Serve(PoissonTrace(topts));
  };

  const auto prog_light = run(0.2, 2, true);
  const auto flat_light = run(0.2, 2, false);
  ASSERT_EQ(prog_light.size(), flat_light.size());
  for (size_t i = 0; i < prog_light.size(); ++i) {
    // Each stream's base pass reproduces the non-layered timeline, so
    // progressive delivery costs no SLO that adaptive streaming met (the
    // enhancement tail can nudge a queued successor's quality either way,
    // which is why quality is compared on the aggregate below).
    EXPECT_EQ(prog_light[i].slo_violated, flat_light[i].slo_violated);
    EXPECT_TRUE(prog_light[i].cache_hit);
    EXPECT_GE(prog_light[i].quality, prog_light[i].base_quality - 1e-12);
  }
  const ClusterSummary light = Summarize(prog_light);
  const ClusterSummary flat = Summarize(flat_light);
  EXPECT_GT(light.mean_enhanced_fraction, 0.0);    // slack got spent on upgrades
  EXPECT_GT(light.mean_quality, flat.mean_quality);  // and it bought real quality
  EXPECT_DOUBLE_EQ(light.slo_violation_rate, flat.slo_violation_rate);

  // Under heavy contention the shared link leaves no slack: requests degrade
  // to base-only delivery instead of missing SLOs they would otherwise meet.
  const auto prog_heavy = run(1000.0, 8, true);
  const ClusterSummary heavy = Summarize(prog_heavy);
  EXPECT_LT(heavy.mean_enhanced_fraction, light.mean_enhanced_fraction);
}

// A KVStore backend whose Nth Put fails — a storage server hitting a
// transient disk error mid write-back.
class FlakyBackend final : public KVStore {
 public:
  explicit FlakyBackend(int failing_put_index)
      : failing_put_index_(failing_put_index) {}

  void Put(const ChunkKey& key, std::span<const uint8_t> bytes) override {
    if (puts_.fetch_add(1) == failing_put_index_) {
      throw std::runtime_error("FlakyBackend: disk full");
    }
    inner_.Put(key, bytes);
  }
  std::optional<std::vector<uint8_t>> Get(const ChunkKey& key) const override {
    return inner_.Get(key);
  }
  bool ContainsContext(const std::string& id) const override {
    return inner_.ContainsContext(id);
  }
  void EraseContext(const std::string& id) override { inner_.EraseContext(id); }
  uint64_t TotalBytes() const override { return inner_.TotalBytes(); }
  uint64_t ContextBytes(const std::string& id) const override {
    return inner_.ContextBytes(id);
  }

 private:
  MemoryKVStore inner_;
  std::atomic<int> puts_{0};
  int failing_put_index_;
};

TEST(ClusterServer, ThrowingWriteBackDoesNotLeakPinOrPartialContext) {
  // StoreKV's batch insert hits a backend failure on its second chunk. The
  // miss write-back must catch the failure, roll the partial insert back
  // (PutBatch all-or-nothing), and — via PinGuard — drop its pin, or the
  // context becomes a permanently unevictable half-written hit.
  Engine::Options eopts;
  eopts.model_name = "mistral-7b";
  eopts.calib_context_tokens = 600;
  eopts.calib_num_contexts = 4;
  auto store = std::make_shared<ShardedKVStore>(
      ShardedKVStore::Options{.num_shards = 1, .capacity_bytes = 0},
      [](size_t) -> std::unique_ptr<KVStore> {
        return std::make_unique<FlakyBackend>(1);
      });
  Engine engine(eopts, store);

  ClusterServer::Options copts;
  copts.num_workers = 1;
  copts.write_back_on_miss = true;
  ClusterServer server(engine, store, BandwidthTrace::Constant(2.0), copts);
  const auto outcomes = server.Serve({MakeReq(0, 0.0, 600, 5.0)});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].cache_hit);
  EXPECT_TRUE(outcomes[0].forced_text);

  // The failed write-back left nothing partial behind...
  EXPECT_FALSE(store->ContainsContext("ctx-0"));
  EXPECT_EQ(store->TotalBytes(), 0u);
  // ...and no pin either: the backend works again now, so a fresh store +
  // erase round-trips (EraseContext is refused while pins are held, so its
  // success proves PinGuard released the write pin).
  store->Put({"ctx-0", 0, 0}, std::vector<uint8_t>{1});
  ASSERT_TRUE(store->ContainsContext("ctx-0"));
  store->EraseContext("ctx-0");
  EXPECT_FALSE(store->ContainsContext("ctx-0"));
}

TEST(ClusterServer, AssembleKvDecodesRealBitstreams) {
  // Four workers and a burst of arrivals over 1- and 2-chunk contexts, so
  // assembly tails run at once on several pool threads, each decoding into
  // its thread's reused buffer. Assembly is real CPU work with no
  // virtual-time cost: the outcomes equal the same trace served without it.
  ClusterFixture& fx = WarmFixture();
  RequestTraceOptions topts = fx.trace_opts;
  topts.num_requests = 24;
  topts.arrival_rate_hz = 50.0;
  const std::vector<ClusterRequest> trace = PoissonTrace(topts);
  std::set<size_t> chunk_counts;
  for (const ClusterRequest& rq : trace) {
    chunk_counts.insert(
        SplitIntoChunks(rq.spec.num_tokens, fx.engine->options().chunk_tokens)
            .size());
  }
  ASSERT_EQ(chunk_counts, (std::set<size_t>{1, 2}));
  const auto serve = [&](bool assemble_kv) {
    ClusterServer::Options copts;
    copts.num_workers = 4;
    copts.assemble_kv = assemble_kv;
    copts.write_back_on_miss = false;
    ClusterServer server(*fx.engine, fx.store, BandwidthTrace::Constant(2.0), copts);
    return server.Serve(trace);
  };
  const auto assembled = serve(true);
  const auto plain = serve(false);
  ASSERT_EQ(assembled.size(), trace.size());
  ASSERT_EQ(plain.size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    const RequestOutcome& a = assembled[i];
    const RequestOutcome& b = plain[i];
    EXPECT_TRUE(a.cache_hit);
    EXPECT_GT(a.quality, 0.5);
    EXPECT_EQ(a.request.id, b.request.id);
    EXPECT_EQ(a.worker, b.worker);
    EXPECT_EQ(a.admit_s, b.admit_s);
    EXPECT_EQ(a.load_finish_s, b.load_finish_s);
    EXPECT_EQ(a.ttft_s, b.ttft_s);
    EXPECT_EQ(a.finish_s, b.finish_s);
    EXPECT_EQ(a.slo_violated, b.slo_violated);
    EXPECT_EQ(a.cache_hit, b.cache_hit);
    EXPECT_EQ(a.quality, b.quality);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);
    EXPECT_EQ(a.answer_correct, b.answer_correct);
  }
}

}  // namespace
}  // namespace cachegen
