// The event-driven serving core: RequestFsm legality, per-event GPU-share
// accounting in SharedLink, and the fixed worker pool's guarantees (no
// per-request threads, deterministic outcomes independent of run count and
// of the codec thread-pool size).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cluster/cluster_metrics.h"
#include "cluster/cluster_server.h"
#include "cluster/request_fsm.h"
#include "cluster/shared_link.h"
#include "net/bandwidth_trace.h"
#include "serving/engine.h"
#include "storage/sharded_kv_store.h"

namespace cachegen {
namespace {

// ---------------------------------------------------------------------------
// RequestFsm: the transition table, exhaustively.
// ---------------------------------------------------------------------------

TEST(RequestFsm, ExhaustiveTransitionSweepMatchesTheDesign) {
  using S = RequestState;
  using E = RequestEvent;
  // The full set of legal (state, event) -> next transitions. Everything not
  // listed must be rejected.
  const std::set<std::tuple<S, E, S>> legal = {
      {S::kAdmitted, E::kAdmit, S::kKvStreaming},
      {S::kKvStreaming, E::kChunkTransferDone, S::kKvStreaming},
      {S::kKvStreaming, E::kEnhance, S::kEnhancing},
      {S::kKvStreaming, E::kDecode, S::kDecoding},
      {S::kEnhancing, E::kChunkTransferDone, S::kEnhancing},
      {S::kEnhancing, E::kDecode, S::kDecoding},
      {S::kDecoding, E::kDecodeDone, S::kWriteBack},
      {S::kWriteBack, E::kWriteBackCommitted, S::kDone},
  };
  size_t legal_seen = 0;
  for (size_t si = 0; si < kNumRequestStates; ++si) {
    for (size_t ei = 0; ei < kNumRequestEvents; ++ei) {
      const S s = static_cast<S>(si);
      const E e = static_cast<E>(ei);
      S next;
      const bool ok = LegalTransition(s, e, &next);
      bool expected = false;
      for (const auto& [ls, le, ln] : legal) {
        if (ls == s && le == e) {
          expected = true;
          EXPECT_TRUE(ok) << RequestStateName(s) << " + " << RequestEventName(e);
          if (ok) {
            EXPECT_EQ(next, ln)
                << RequestStateName(s) << " + " << RequestEventName(e);
          }
        }
      }
      if (!expected) {
        EXPECT_FALSE(ok) << RequestStateName(s) << " + " << RequestEventName(e)
                         << " should be illegal";
      }
      if (ok) ++legal_seen;
    }
  }
  EXPECT_EQ(legal_seen, legal.size());
}

TEST(RequestFsm, FeedWalksBothPathsThrowsOnIllegalAndClampsMonotone) {
  // Plain (non-progressive) path.
  RequestFsm plain(/*track=*/1);
  plain.Feed(RequestEvent::kAdmit, 0.5);
  plain.Feed(RequestEvent::kChunkTransferDone, 1.0);
  plain.Feed(RequestEvent::kChunkTransferDone, 0.25);  // rounding backwards
  EXPECT_GE(plain.last_event_s(), 1.0);                // clamped monotone
  plain.Feed(RequestEvent::kDecode, 1.0);
  plain.Feed(RequestEvent::kDecodeDone, 2.0);
  plain.Feed(RequestEvent::kWriteBackCommitted, 2.0);
  EXPECT_EQ(plain.state(), RequestState::kDone);

  // Progressive path through Enhancing.
  RequestFsm prog(/*track=*/2);
  prog.Feed(RequestEvent::kAdmit, 0.0);
  prog.Feed(RequestEvent::kChunkTransferDone, 0.5);
  prog.Feed(RequestEvent::kEnhance, 0.6);
  prog.Feed(RequestEvent::kChunkTransferDone, 0.9);
  prog.Feed(RequestEvent::kDecode, 0.9);
  prog.Feed(RequestEvent::kDecodeDone, 1.4);
  prog.Feed(RequestEvent::kWriteBackCommitted, 1.4);
  EXPECT_EQ(prog.state(), RequestState::kDone);

  // Mis-sequenced workers fail loudly.
  RequestFsm bad(/*track=*/3);
  EXPECT_THROW(bad.Feed(RequestEvent::kDecodeDone, 0.0), std::logic_error);
  bad.Feed(RequestEvent::kAdmit, 0.0);
  EXPECT_THROW(bad.Feed(RequestEvent::kWriteBackCommitted, 1.0),
               std::logic_error);
  RequestFsm done(/*track=*/4);
  done.Feed(RequestEvent::kAdmit, 0.0);
  done.Feed(RequestEvent::kDecode, 0.0);
  done.Feed(RequestEvent::kDecodeDone, 0.0);
  done.Feed(RequestEvent::kWriteBackCommitted, 0.0);
  EXPECT_THROW(done.Feed(RequestEvent::kAdmit, 1.0), std::logic_error);
}

// ---------------------------------------------------------------------------
// SharedLink GPU lanes: per-event share accounting.
// ---------------------------------------------------------------------------

// The ROADMAP scenario: a peer finishing early must raise every survivor's
// GPU share AT THAT INSTANT, not at the survivor's next admission. Two
// requests contend for 2 GPU slots; the peer frees at t=1 while the survivor
// still has 2.0 shared-seconds of work. Piecewise pricing: [0,1) at share
// 1/2 drains 0.5 s of it, the remaining 1.5 s drains at share 1 -> done at
// 2.5. A frozen admission share would have given 4.0 (stale 1/2 throughout);
// ignoring contention entirely would give 2.0.
TEST(SharedLinkGpu, PeerCompletionRaisesShareAtThatInstant) {
  SharedLink link(BandwidthTrace::Constant(1.0));
  link.SetGpuSlots(2);
  const auto h1 = link.HoldAdmission(0.0);
  const auto h2 = link.HoldAdmission(0.0);
  const auto f1 = link.Register(0.0);
  link.ReleaseHold(h1);
  const auto f2 = link.Register(0.0);
  link.ReleaseHold(h2);
  // Peer finishes at t=1: its -1 lands in the ledger atomically with a hold
  // at 1.0, so no lane segment past 1.0 is priced without it.
  link.CompleteFlow(f2, 1.0, /*payload=*/42);

  // Ledger introspection before any folding: share is 1/2 while both are in
  // flight and 1 after the peer frees.
  EXPECT_DOUBLE_EQ(link.GpuShareAt(0.5), 0.5);
  EXPECT_DOUBLE_EQ(link.GpuShareAt(1.5), 1.0);

  link.PostGpuWork(f1, /*arrival_s=*/0.0, /*const_s=*/0.0, /*shared_s=*/2.0);
  std::vector<double> done;
  std::thread drainer([&] { done = link.DrainGpu(f1); });

  const auto c = link.PopCompletion(/*in_flight=*/1);
  EXPECT_NEAR(c.free_s, 1.0, 1e-12);
  EXPECT_EQ(c.payload, 42u);
  link.ReleaseHold(c.hold);
  drainer.join();

  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 2.5, 1e-9);

  link.CompleteFlow(f1, done[0], 43);
  const auto c2 = link.PopCompletion(1);
  EXPECT_EQ(c2.payload, 43u);
  link.ReleaseHold(c2.hold);
}

// The mirror image: an admission mid-item LOWERS the share from its instant.
// One flow drains 3.0 shared-seconds from t=0; a peer is admitted at t=1.
// [0,1) alone at share 1 -> 1.0 s done; [1,..) shared 2 ways -> remaining
// 2.0 s at share 1/2 -> done at 5.0.
TEST(SharedLinkGpu, AdmissionMidItemLowersShareFromItsInstant) {
  SharedLink link(BandwidthTrace::Constant(1.0));
  link.SetGpuSlots(4);
  const auto h1 = link.HoldAdmission(0.0);
  const auto f1 = link.Register(0.0);
  link.ReleaseHold(h1);
  const auto h2 = link.HoldAdmission(1.0);  // the future peer's +1

  EXPECT_DOUBLE_EQ(link.GpuShareAt(0.5), 1.0);
  EXPECT_DOUBLE_EQ(link.GpuShareAt(1.5), 0.5);

  link.PostGpuWork(f1, 0.0, 0.0, 3.0);
  std::vector<double> done;
  std::thread drainer([&] { done = link.DrainGpu(f1); });
  // The drain parks at the admission hold; release it once reached (the
  // cluster coordinator does this after handing the admission to a worker).
  while (link.now() < 1.0 - 1e-9) std::this_thread::yield();
  link.ReleaseHold(h2);
  drainer.join();

  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 5.0, 1e-9);

  link.CompleteFlow(f1, done[0], 1);
  link.ReleaseHold(link.PopCompletion(1).hold);
}

// Lane mechanics: the constant part (decode-call overhead) drains at rate 1
// regardless of contention, items start no earlier than their arrival, and
// the lane is FIFO — item i+1 starts at max(arrival, item i's completion).
TEST(SharedLinkGpu, LaneIsFifoWithUnscaledConstPart) {
  SharedLink link(BandwidthTrace::Constant(1.0));
  link.SetGpuSlots(2);
  const auto h1 = link.HoldAdmission(0.0);
  const auto h2 = link.HoldAdmission(0.0);
  const auto f1 = link.Register(0.0);
  link.ReleaseHold(h1);
  const auto f2 = link.Register(0.0);
  link.ReleaseHold(h2);
  // Keep the peer in flight (share 1/2) through the whole window.
  link.CompleteFlow(f2, 10.0, 7);

  // Item A: arrives at 0.5, const 0.25 (rate 1) + shared 1.0 (rate 1/2)
  // -> runs [0.5, 0.5 + 0.25 + 2.0] = done at 2.75.
  // Item B: arrives at 1.0 but the lane is busy until 2.75; shared 0.5 at
  // share 1/2 -> done at 2.75 + 1.0 = 3.75.
  link.PostGpuWork(f1, 0.5, 0.25, 1.0);
  link.PostGpuWork(f1, 1.0, 0.0, 0.5);
  std::vector<double> done;
  std::thread drainer([&] { done = link.DrainGpu(f1); });
  drainer.join();

  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.75, 1e-9);
  EXPECT_NEAR(done[1], 3.75, 1e-9);

  link.CompleteFlow(f1, done[1], 8);
  link.ReleaseHold(link.PopCompletion(2).hold);
  link.ReleaseHold(link.PopCompletion(1).hold);
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
    // thread scheduling even with the fixed pool + continuation queue.
    EXPECT_DOUBLE_EQ(a[i].ttft_s, b[i].ttft_s);
    EXPECT_DOUBLE_EQ(a[i].finish_s, b[i].finish_s);
    EXPECT_DOUBLE_EQ(a[i].quality, b[i].quality);
    EXPECT_EQ(a[i].worker, b[i].worker);
  }
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

std::string RunProbeWithThreads(const char* threads) {
  // Resolve the symlink HERE: handed to the shell verbatim, /proc/self/exe
  // would resolve to the shell's own binary at exec time.
  char self[4096];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
  if (n <= 0) return {};
  self[n] = '\0';
  const std::string cmd =
      std::string("CACHEGEN_THREADS=") + threads + " '" + self +
      "' --gtest_filter=EventLoopProbe.PrintSummary 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  std::string out;
  char buf[512];
  while (fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  pclose(pipe);
  const size_t pos = out.find("CG_SUMMARY ");
  if (pos == std::string::npos) return {};
  return out.substr(pos, out.find('\n', pos) - pos);
}

// Outcomes must not depend on how many codec threads the host grants: the
// write-back encode fans out across the global pool, but virtual-time
// results are pool-size independent. Re-execs this binary under two pool
// sizes and compares the probe's summary bit-for-bit.
TEST(EventLoop, DeterministicAcrossCodecPoolSizes) {
  const std::string one = RunProbeWithThreads("1");
  const std::string many = RunProbeWithThreads("8");
  ASSERT_FALSE(one.empty()) << "probe run with CACHEGEN_THREADS=1 failed";
  ASSERT_FALSE(many.empty()) << "probe run with CACHEGEN_THREADS=8 failed";
  EXPECT_EQ(one, many);
}

}  // namespace
}  // namespace cachegen
