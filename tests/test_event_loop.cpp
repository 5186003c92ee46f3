// The event-driven serving core: the Task<T> operations its coroutines
// await, per-event GPU-share accounting in SharedLink, the coordinator's
// guarantees (no per-request threads, causal lookups, deterministic outcomes
// independent of run count and of the codec thread-pool size), and the
// lifecycle instants every request's trace track carries.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <coroutine>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster_metrics.h"
#include "cluster/cluster_server.h"
#include "cluster/shared_link.h"
#include "common/task.h"
#include "net/bandwidth_trace.h"
#include "obs/trace.h"
#include "prefix/prefix_cache.h"
#include "serving/engine.h"
#include "storage/sharded_kv_store.h"
#include "self_exec.h"

namespace cachegen {
namespace {

// ---------------------------------------------------------------------------
// Task<T>: the three forms of an operation behind one awaitable.
// ---------------------------------------------------------------------------

// Counts the coroutine frames alive: each body holds one in its frame.
struct FrameGuard {
  int* live;
  explicit FrameGuard(int* n) : live(n) { ++*live; }
  ~FrameGuard() { --*live; }
};

Task<int> AddOne(Task<int> op, int* live) {
  FrameGuard guard(live);
  co_return 1 + co_await std::move(op);
}

Task<int> ThrowAfter(Task<int> op) {
  const int v = co_await std::move(op);
  throw std::runtime_error("failed at " + std::to_string(v));
}

TEST(TaskOp, ReadyIsAwaitedWithoutSuspending) {
  int live = 0;
  Task<int> task = AddOne(Task<int>::Ready(41), &live);
  EXPECT_FALSE(task.done());  // a coroutine starts when first driven
  task.Start();
  // Nothing resumed it: the body ran to co_return within Start().
  ASSERT_TRUE(task.done());
  EXPECT_EQ(task.Take(), 42);
  EXPECT_EQ(live, 0);
}

TEST(TaskOp, GetOnAParkedOperationThrows) {
  std::coroutine_handle<> slot;
  int result = 0;
  Task<int> op = Task<int>::Parked(&slot, &result);
  EXPECT_FALSE(op.done());
  EXPECT_THROW(op.Get(), std::logic_error);
  // So does Get() on a coroutine that parks on one.
  int live = 0;
  Task<int> task = AddOne(Task<int>::Parked(&slot, &result), &live);
  EXPECT_THROW(task.Get(), std::logic_error);
  EXPECT_TRUE(slot);
}

TEST(TaskOp, ParkedCoroutineResumesWithTheOwnersValue) {
  std::coroutine_handle<> slot;
  int result = 0;
  int live = 0;
  Task<int> task = AddOne(Task<int>::Parked(&slot, &result), &live);
  task.Start();
  ASSERT_FALSE(task.done());
  ASSERT_TRUE(slot);  // the awaiting coroutine parked in the owner's slot
  EXPECT_EQ(live, 1);
  result = 6;  // the owner completes the operation...
  std::exchange(slot, {}).resume();  // ...and resumes whoever parked on it
  ASSERT_TRUE(task.done());
  EXPECT_EQ(task.Take(), 7);
  EXPECT_EQ(live, 0);
}

TEST(TaskOp, ExceptionTwoAwaitsDeepReachesTopLevelTake) {
  std::coroutine_handle<> slot;
  int result = 0;
  int live = 0;
  // top awaits AddOne, which awaits ThrowAfter, which throws once resumed.
  Task<int> top = AddOne(ThrowAfter(Task<int>::Parked(&slot, &result)), &live);
  top.Start();
  ASSERT_TRUE(slot);
  result = 3;
  std::exchange(slot, {}).resume();
  ASSERT_TRUE(top.done());
  try {
    (void)top.Take();
    ADD_FAILURE() << "Take() did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "failed at 3");
  }
  EXPECT_EQ(live, 0);
}

TEST(TaskOp, DestroyingAParkedTaskFreesItsFrames) {
  std::coroutine_handle<> slot;
  int result = 0;
  int live = 0;
  {
    // Two coroutine frames: the outer one holds the inner Task, which is
    // parked on the operation.
    Task<int> task =
        AddOne(AddOne(Task<int>::Parked(&slot, &result), &live), &live);
    task.Start();
    ASSERT_TRUE(slot);
    EXPECT_EQ(live, 2);
  }
  // The owner never resumed it; destroying the top-level task destroyed
  // both frames (ASan reports a leak otherwise).
  EXPECT_EQ(live, 0);
}

// ---------------------------------------------------------------------------
// SharedLink GPU lanes: per-event share accounting.
// ---------------------------------------------------------------------------

// Step the simulator until `flow` has completed its pending operation, never
// past `limit_s`; returns whether it did.
bool RunUntilDone(SharedLink& link, SharedLink::FlowId flow,
                  double limit_s = std::numeric_limits<double>::infinity()) {
  while (!link.Reached(limit_s)) {
    for (const SharedLink::FlowId id : link.Step(limit_s)) {
      if (id == flow) return true;
    }
  }
  return false;
}

// The ROADMAP scenario: a peer finishing early must raise every survivor's
// GPU share AT THAT INSTANT, not at the survivor's next admission. Two
// requests share the GPU; the peer frees at t=1 while the survivor
// still has 2.0 shared-seconds of work. Piecewise pricing: [0,1) at share
// 1/2 drains 0.5 s of it, the remaining 1.5 s drains at share 1 -> done at
// 2.5. A frozen admission share would have given 4.0 (stale 1/2 throughout);
// ignoring contention entirely would give 2.0.
TEST(SharedLinkGpu, PeerCompletionRaisesShareAtThatInstant) {
  SharedLink link(BandwidthTrace::Constant(1.0));
  link.Admit(0.0);
  link.Admit(0.0);
  const auto f1 = link.Register(0.0);
  const auto f2 = link.Register(0.0);
  // Peer finishes at t=1: its -1 lands in the ledger before time gets
  // there, so no lane segment past 1.0 is priced without it.
  EXPECT_NEAR(link.Leave(f2, 1.0), 1.0, 1e-12);

  link.PostGpuWork(f1, /*arrival_s=*/0.0, /*const_s=*/0.0, /*shared_s=*/2.0);
  ASSERT_FALSE(link.StartDrain(f1));
  ASSERT_TRUE(RunUntilDone(link, f1));
  const std::vector<double> done = link.TakeGpuDone(f1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 2.5, 1e-9);
  EXPECT_NEAR(link.Leave(f1, done[0]), 2.5, 1e-9);
}

// The mirror image: an admission mid-item LOWERS the share from its instant.
// One flow drains 3.0 shared-seconds from t=0; a peer is admitted at t=1.
// [0,1) alone at share 1 -> 1.0 s done; [1,..) shared 2 ways -> remaining
// 2.0 s at share 1/2 -> done at 5.0.
TEST(SharedLinkGpu, AdmissionMidItemLowersShareFromItsInstant) {
  SharedLink link(BandwidthTrace::Constant(1.0));
  link.Admit(0.0);
  const auto f1 = link.Register(0.0);
  link.Admit(1.0);  // the future peer's +1

  link.PostGpuWork(f1, 0.0, 0.0, 3.0);
  ASSERT_FALSE(link.StartDrain(f1));
  // The coordinator's next instant is the admission: time stops there.
  EXPECT_FALSE(RunUntilDone(link, f1, /*limit_s=*/1.0));
  EXPECT_NEAR(link.now(), 1.0, 1e-9);
  ASSERT_TRUE(RunUntilDone(link, f1));
  const std::vector<double> done = link.TakeGpuDone(f1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 5.0, 1e-9);
  link.Leave(f1, done[0]);
}

// Lane mechanics: the constant part (decode-call overhead) drains at rate 1
// regardless of contention, items start no earlier than their arrival, and
// the lane is FIFO — item i+1 starts at max(arrival, item i's completion).
TEST(SharedLinkGpu, LaneIsFifoWithUnscaledConstPart) {
  SharedLink link(BandwidthTrace::Constant(1.0));
  link.Admit(0.0);
  link.Admit(0.0);
  const auto f1 = link.Register(0.0);
  const auto f2 = link.Register(0.0);
  // Keep the peer in flight (share 1/2) through the whole window.
  link.Leave(f2, 10.0);

  // Item A: arrives at 0.5, const 0.25 (rate 1) + shared 1.0 (rate 1/2)
  // -> runs [0.5, 0.5 + 0.25 + 2.0] = done at 2.75.
  // Item B: arrives at 1.0 but the lane is busy until 2.75; shared 0.5 at
  // share 1/2 -> done at 2.75 + 1.0 = 3.75.
  link.PostGpuWork(f1, 0.5, 0.25, 1.0);
  link.PostGpuWork(f1, 1.0, 0.0, 0.5);
  ASSERT_FALSE(link.StartDrain(f1));
  ASSERT_TRUE(RunUntilDone(link, f1));
  const std::vector<double> done = link.TakeGpuDone(f1);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.75, 1e-9);
  EXPECT_NEAR(done[1], 3.75, 1e-9);
  link.Leave(f1, done[1]);
}

// ---------------------------------------------------------------------------
// ClusterServer event loop (shared warm fixture: Engine construction is the
// expensive part).
// ---------------------------------------------------------------------------

struct EventLoopFixture {
  RequestTraceOptions trace_opts;
  std::shared_ptr<ShardedKVStore> store;
  std::unique_ptr<Engine> engine;

  EventLoopFixture() {
    trace_opts.num_contexts = 4;
    trace_opts.min_tokens = 900;
    trace_opts.max_tokens = 1800;
    trace_opts.slo_s = 4.0;
    trace_opts.seed = 0xE7u;

    Engine::Options eopts;
    eopts.model_name = "mistral-7b";
    eopts.calib_context_tokens = 600;
    eopts.calib_num_contexts = 4;
    store = std::make_shared<ShardedKVStore>(
        ShardedKVStore::Options{.num_shards = 4, .capacity_bytes = 0});
    engine = std::make_unique<Engine>(eopts, store);
  }
};

EventLoopFixture& WarmFixture() {
  static EventLoopFixture* fx = [] {
    auto* f = new EventLoopFixture();
    ClusterServer::Options copts;
    ClusterServer server(*f->engine, f->store, BandwidthTrace::Constant(2.0),
                         copts);
    server.Prestore(f->trace_opts);  // warm cache: every request hits
    return f;
  }();
  return *fx;
}

std::vector<RequestOutcome> RunEventLoad(EventLoopFixture& fx, double rate_hz,
                                         size_t num_requests, size_t workers) {
  RequestTraceOptions topts = fx.trace_opts;
  topts.num_requests = num_requests;
  topts.arrival_rate_hz = rate_hz;
  ClusterServer::Options copts;
  copts.num_workers = workers;
  copts.write_back_on_miss = false;  // keep virtual-only (everything hits)
  copts.assemble_kv = false;
  ClusterServer server(*fx.engine, fx.store, BandwidthTrace::Constant(2.0),
                       copts);
  return server.Serve(PoissonTrace(topts));
}

int CurrentThreadCount() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

// The tentpole's structural guarantee: serving N requests spawns at most
// num_workers pool threads, never a thread per request.
TEST(EventLoop, NoPerRequestThreads) {
  EventLoopFixture& fx = WarmFixture();
  constexpr size_t kRequests = 200;
  constexpr size_t kWorkers = 4;

  // One throwaway serve so every lazy singleton (calibration, codec thread
  // pool, metrics) exists before the baseline count is taken.
  RunEventLoad(fx, 8.0, 8, kWorkers);

  const int baseline = CurrentThreadCount();
  ASSERT_GT(baseline, 0);

  std::atomic<bool> stop{false};
  std::atomic<int> peak{0};
  std::thread sampler([&] {
    while (!stop.load()) {
      const int n = CurrentThreadCount();
      int cur = peak.load();
      while (n > cur && !peak.compare_exchange_weak(cur, n)) {
      }
      std::this_thread::yield();
    }
  });
  const auto outcomes = RunEventLoad(fx, 64.0, kRequests, kWorkers);
  stop.store(true);
  sampler.join();

  ASSERT_EQ(outcomes.size(), kRequests);
  // Baseline already includes the sampler; serving adds at most the fixed
  // pool. With one thread per request this would exceed the bound by ~50x.
  EXPECT_LE(peak.load(), baseline + 1 + static_cast<int>(kWorkers));
}

TEST(EventLoop, DeterministicAcrossRuns) {
  EventLoopFixture& fx = WarmFixture();
  const auto a = RunEventLoad(fx, 4.0, 24, 4);
  const auto b = RunEventLoad(fx, 4.0, 24, 4);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].request.id, b[i].request.id);
    // Bit-identical, not just close: virtual time is independent of OS
    // thread scheduling.
    EXPECT_DOUBLE_EQ(a[i].ttft_s, b[i].ttft_s);
    EXPECT_DOUBLE_EQ(a[i].finish_s, b[i].finish_s);
    EXPECT_DOUBLE_EQ(a[i].quality, b[i].quality);
    EXPECT_EQ(a[i].worker, b[i].worker);
  }
}

// ---------------------------------------------------------------------------
// Request lifecycle: the cluster.event instants ServeOne records on every
// request's virtual track.
// ---------------------------------------------------------------------------

class LifecycleTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::Instance().Clear();
    obs::Tracer::Instance().SetEnabled(true);
  }
  void TearDown() override {
    obs::Tracer::Instance().SetEnabled(false);
    obs::Tracer::Instance().Clear();
  }

  struct Instant {
    uint64_t ts_us;
    std::string name;
  };

  // Every virtual track's cluster.event instants in export order: by
  // timestamp, instants stamped at one timestamp in recording order.
  static std::map<uint64_t, std::vector<Instant>> Lifecycles() {
    EXPECT_EQ(obs::Tracer::Instance().DroppedEvents(), 0u);
    std::map<uint64_t, std::vector<Instant>> tracks;
    for (const obs::TraceEvent& ev : obs::Tracer::Instance().Snapshot()) {
      if (ev.clock == obs::TraceClock::kVirtual &&
          std::string(ev.cat) == "cluster.event") {
        tracks[ev.track].push_back({ev.ts_us, ev.name});
      }
    }
    return tracks;
  }

  // admit, then chunk_transfer_done per transfer with at most one enhance
  // after the first, then decode, decode_done, write_back_committed; the
  // timestamps never decrease. Returns whether the track has an enhance.
  static bool ExpectLegalLifecycle(uint64_t track,
                                   const std::vector<Instant>& seq) {
    SCOPED_TRACE("track " + std::to_string(track));
    std::vector<std::string> names;
    for (const Instant& i : seq) names.push_back(i.name);
    const auto count = [&](const char* name) {
      return std::count(names.begin(), names.end(), name);
    };
    EXPECT_GE(names.size(), 5u);
    if (names.size() < 5) return false;
    const size_t n = names.size();
    EXPECT_EQ(count("admit"), 1);
    EXPECT_EQ(names.front(), "admit");
    EXPECT_EQ(names[1], "chunk_transfer_done");
    EXPECT_LE(count("enhance"), 1);
    for (size_t i = 1; i + 3 < n; ++i) {
      EXPECT_TRUE(names[i] == "chunk_transfer_done" || names[i] == "enhance")
          << names[i] << " at " << i;
    }
    EXPECT_EQ(count("decode"), 1);
    EXPECT_EQ(count("decode_done"), 1);
    EXPECT_EQ(names[n - 3], "decode");
    EXPECT_EQ(names[n - 2], "decode_done");
    EXPECT_EQ(count("write_back_committed"), 1);
    EXPECT_EQ(names.back(), "write_back_committed");
    for (size_t i = 1; i < n; ++i) {
      EXPECT_LE(seq[i - 1].ts_us, seq[i].ts_us)
          << names[i - 1] << " -> " << names[i];
    }
    return count("enhance") > 0;
  }
};

TEST_F(LifecycleTrace, ProgressiveWarmServeOnFourWorkers) {
  EventLoopFixture& fx = WarmFixture();
  RequestTraceOptions topts = fx.trace_opts;
  topts.num_requests = 24;
  topts.arrival_rate_hz = 8.0;
  // Tight enough that base passes pick coarse levels, loose enough that the
  // link has slack left to upgrade them.
  topts.slo_s = 0.3;
  ClusterServer::Options copts;
  copts.num_workers = 4;
  copts.progressive = true;
  copts.write_back_on_miss = false;
  ClusterServer server(*fx.engine, fx.store, BandwidthTrace::Constant(2.0),
                       copts);
  const auto outcomes = server.Serve(PoissonTrace(topts));

  const auto tracks = Lifecycles();
  ASSERT_EQ(tracks.size(), outcomes.size());
  size_t enhanced = 0;
  for (const RequestOutcome& o : outcomes) {
    EXPECT_TRUE(o.cache_hit);
    const auto it = tracks.find(o.request.id + 1);
    ASSERT_NE(it, tracks.end()) << "request " << o.request.id;
    if (ExpectLegalLifecycle(it->first, it->second)) ++enhanced;
  }
  EXPECT_GT(enhanced, 0u);
}

TEST_F(LifecycleTrace, WriteBackServeOnOneWorker) {
  EventLoopFixture fx;  // fresh fixture: cold cache, misses write back
  RequestTraceOptions topts = fx.trace_opts;
  topts.num_requests = 12;
  topts.arrival_rate_hz = 4.0;
  ClusterServer::Options copts;
  copts.num_workers = 1;
  copts.write_back_on_miss = true;
  ClusterServer server(*fx.engine, fx.store, BandwidthTrace::Constant(2.0),
                       copts);
  const auto outcomes = server.Serve(PoissonTrace(topts));

  const auto tracks = Lifecycles();
  ASSERT_EQ(tracks.size(), outcomes.size());
  size_t written = 0;
  for (const RequestOutcome& o : outcomes) {
    if (o.write_back_done) ++written;
    const auto it = tracks.find(o.request.id + 1);
    ASSERT_NE(it, tracks.end()) << "request " << o.request.id;
    EXPECT_FALSE(ExpectLegalLifecycle(it->first, it->second));
  }
  EXPECT_GT(written, 0u);
}

// ---------------------------------------------------------------------------
// Causal lookups: a request looks up its context when virtual time reaches
// its admit instant, so it sees every write-back freed before that instant
// and none freed after it.
// ---------------------------------------------------------------------------

constexpr size_t kFamilyChunk = 256;

// Two workers over a prefix cache with write-back, on a fresh engine (so
// every run starts cold).
struct WriteBackFixture {
  std::shared_ptr<PrefixCache> pc;
  std::unique_ptr<Engine> engine;

  WriteBackFixture() {
    Engine::Options eopts;
    eopts.model_name = "mistral-7b";
    eopts.chunk_tokens = kFamilyChunk;
    eopts.calib_context_tokens = 400;
    eopts.calib_num_contexts = 2;
    eopts.layered_calib_tokens = 64;
    pc = std::make_shared<PrefixCache>(
        std::make_shared<ShardedKVStore>(
            ShardedKVStore::Options{.num_shards = 2, .capacity_bytes = 0}),
        PrefixCache::Options{.chunk_tokens = kFamilyChunk});
    engine = std::make_unique<Engine>(eopts, pc);
  }

  std::vector<RequestOutcome> Serve(std::vector<ClusterRequest> trace) {
    ClusterServer::Options copts;
    copts.num_workers = 2;
    copts.write_back_on_miss = true;
    ClusterServer server(*engine, pc, BandwidthTrace::Constant(2.0), copts);
    return server.Serve(std::move(trace));
  }
};

// A member of one prefix family: two shared chunks and a one-chunk suffix.
ClusterRequest FamilyMember(uint64_t id, double arrival_s, uint64_t suffix) {
  ClusterRequest rq;
  rq.id = id;
  rq.arrival_s = arrival_s;
  rq.context_id = "fam-sfx" + std::to_string(suffix);
  rq.spec = ContextSpec{0xFA00 + suffix, 3 * kFamilyChunk, 0xFA, 2 * kFamilyChunk};
  rq.slo_s = 4.0;
  return rq;
}

// A one-chunk context of its own: it misses and frees its worker first.
ClusterRequest ShortSolo(uint64_t id, double arrival_s) {
  ClusterRequest rq;
  rq.id = id;
  rq.arrival_s = arrival_s;
  rq.context_id = "solo";
  rq.spec = ContextSpec{0x50, kFamilyChunk, 0, 0};
  rq.slo_s = 4.0;
  return rq;
}

// A misses and writes its family member back at its free instant t_A; B,
// shorter, frees the other worker at t_B < t_A; C, of A's family, arrives
// after t_A and is admitted onto B's worker at t_B. C's lookup runs at its
// admit instant, after A's write-back, so it is a partial-prefix hit.
TEST(CausalLookup, AdmittedRequestSeesWriteBackFreedBeforeItsAdmitInstant) {
  WriteBackFixture fx;
  const auto out = fx.Serve({FamilyMember(0, 0.0, 0), ShortSolo(1, 0.0),
                             FamilyMember(2, 10.0, 1)});
  ASSERT_EQ(out.size(), 3u);
  const RequestOutcome& a = out[0];
  const RequestOutcome& b = out[1];
  const RequestOutcome& c = out[2];
  ASSERT_TRUE(a.forced_text);
  ASSERT_TRUE(a.write_back_done);
  ASSERT_LT(b.finish_s, a.finish_s);   // t_B < t_A
  ASSERT_EQ(c.worker, b.worker);       // admitted when B freed
  ASSERT_GT(c.admit_s, a.finish_s);    // looks up after t_A
  EXPECT_TRUE(c.prefix_hit);
  EXPECT_EQ(c.covered_tokens, 2 * kFamilyChunk);
}

// The converse: D, of A's family, is admitted onto B's worker at an instant
// before A's free instant, so it does not see A's write-back.
TEST(CausalLookup, AdmittedRequestDoesNotSeeWriteBackFreedAfterItsAdmitInstant) {
  double t_a = 0.0, t_b = 0.0;
  {
    WriteBackFixture fx;
    const auto out = fx.Serve({FamilyMember(0, 0.0, 0), ShortSolo(1, 0.0)});
    ASSERT_EQ(out.size(), 2u);
    t_a = out[0].finish_s;
    t_b = out[1].finish_s;
  }
  ASSERT_LT(t_b, t_a);
  WriteBackFixture fx;
  const auto out = fx.Serve({FamilyMember(0, 0.0, 0), ShortSolo(1, 0.0),
                             FamilyMember(2, 0.5 * (t_a + t_b), 1)});
  ASSERT_EQ(out.size(), 3u);
  const RequestOutcome& a = out[0];
  const RequestOutcome& d = out[2];
  ASSERT_EQ(d.worker, out[1].worker);
  ASSERT_TRUE(a.write_back_done);
  ASSERT_LT(d.admit_s, a.finish_s);
  EXPECT_FALSE(d.prefix_hit);
  EXPECT_EQ(d.covered_tokens, 0u);
  EXPECT_TRUE(d.forced_text);
}

// Probe for the CACHEGEN_THREADS determinism check below: serve a fixed
// trace WITH write-backs (the codec pool is what CACHEGEN_THREADS sizes) and
// print a summary line the parent compares across pool sizes.
TEST(EventLoopProbe, PrintSummary) {
  EventLoopFixture fx;  // fresh fixture: cold cache, write-backs happen
  RequestTraceOptions topts = fx.trace_opts;
  topts.num_requests = 12;
  topts.arrival_rate_hz = 4.0;
  ClusterServer::Options copts;
  copts.num_workers = 3;
  copts.write_back_on_miss = true;
  ClusterServer server(*fx.engine, fx.store, BandwidthTrace::Constant(2.0),
                       copts);
  const auto outcomes = server.Serve(PoissonTrace(topts));
  const ClusterSummary s = Summarize(outcomes);
  double sum_ttft = 0.0, sum_finish = 0.0;
  uint64_t worker_mix = 0;
  for (const RequestOutcome& o : outcomes) {
    sum_ttft += o.ttft_s;
    sum_finish += o.finish_s;
    worker_mix = worker_mix * 31 + o.worker + (o.cache_hit ? 7 : 0);
  }
  std::printf("CG_SUMMARY %.17g %.17g %.17g %llu %zu\n", sum_ttft, sum_finish,
              s.p95_ttft_s, static_cast<unsigned long long>(worker_mix),
              outcomes.size());
  std::fflush(stdout);
  SUCCEED();
}

// Outcomes must not depend on how many codec threads the host grants: the
// write-back encode fans out across the global pool, but virtual-time
// results are pool-size independent. Re-execs this binary under two pool
// sizes and compares the probe's summary bit-for-bit.
TEST(EventLoop, DeterministicAcrossCodecPoolSizes) {
  const std::string one =
      RunSelfWithThreads("1", "EventLoopProbe.PrintSummary", "CG_SUMMARY ");
  const std::string many =
      RunSelfWithThreads("8", "EventLoopProbe.PrintSummary", "CG_SUMMARY ");
  ASSERT_FALSE(one.empty()) << "probe run with CACHEGEN_THREADS=1 failed";
  ASSERT_FALSE(many.empty()) << "probe run with CACHEGEN_THREADS=8 failed";
  EXPECT_EQ(one, many);
}

}  // namespace
}  // namespace cachegen
