// Event-driven serving core gate (the claim behind the one-coordinator
// event loop):
//
//   1. Scale proof: a >=100k-request trace runs to completion without
//      growing the OS thread count; no thread is spawned per admission.
//      The serve (assemble_kv off) runs on the calling thread and starts no
//      thread; the bound allows num_workers more, the decode threads an
//      assembled serve may start. A sampler thread watches
//      /proc/self/status Threads and records the peak.
//   2. Determinism: two identical runs of a moderate-load trace produce
//      bit-equal outcomes, compared by a SHA-256 over every outcome field.
//
// --quick runs both gates and exits non-zero on failure (wired into Release
// CI); the full run adds a worker-count sweep table. Either mode writes
// BENCH_event_loop.json for ci/check_bench_regression.py (metric: requests/s
// of the scale run).
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster_server.h"
#include "common/sha256.h"
#include "obs/json_writer.h"
#include "storage/sharded_kv_store.h"

using namespace cachegen;

namespace {

// Current OS thread count of this process, from /proc/self/status.
int CurrentThreadCount() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return -1;
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::sscanf(line, "Threads: %d", &threads) == 1) break;
  }
  std::fclose(f);
  return threads;
}

// Samples the process thread count until stopped; records the peak.
class ThreadPeakSampler {
 public:
  ThreadPeakSampler() : sampler_([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      const int n = CurrentThreadCount();
      int prev = peak_.load(std::memory_order_relaxed);
      while (n > prev &&
             !peak_.compare_exchange_weak(prev, n, std::memory_order_relaxed)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }) {}
  int Stop() {
    stop_.store(true, std::memory_order_relaxed);
    sampler_.join();
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread sampler_;
};

RequestTraceOptions TraceOpts(size_t num_requests, double rate_hz) {
  RequestTraceOptions topts;
  topts.num_requests = num_requests;
  topts.arrival_rate_hz = rate_hz;
  topts.num_contexts = 4;
  topts.min_tokens = 900;
  topts.max_tokens = 1800;
  topts.zipf_exponent = 0.9;
  topts.slo_s = 3.0;
  topts.seed = 0xBEEF;
  return topts;
}

// SHA-256 over every RequestOutcome field (doubles by bit pattern), as in
// tests/test_outcome_digest.cpp.
std::string OutcomeDigest(const std::vector<RequestOutcome>& outcomes) {
  Sha256 h;
  const auto f64 = [&h](double v) { h.UpdateU64(std::bit_cast<uint64_t>(v)); };
  for (const RequestOutcome& o : outcomes) {
    const ClusterRequest& rq = o.request;
    h.UpdateU64(rq.id);
    f64(rq.arrival_s);
    h.UpdateU64(rq.context_id.size());
    h.Update(rq.context_id);
    h.UpdateU64(rq.spec.seed);
    h.UpdateU64(rq.spec.num_tokens);
    h.UpdateU64(rq.spec.prefix_seed);
    h.UpdateU64(rq.spec.prefix_tokens);
    f64(rq.slo_s);
    f64(1.0);  // retired link weight (always 1.0): the digests keep it

    h.UpdateU64(o.worker);
    f64(o.admit_s);
    f64(o.queue_delay_s);
    f64(o.load_finish_s);
    f64(o.ttft_s);
    f64(o.finish_s);
    h.UpdateU32((o.slo_violated ? 1u : 0u) | (o.cache_hit ? 2u : 0u) |
                (o.cold_hit ? 4u : 0u) | (o.remote_hit ? 8u : 0u) |
                (o.prefix_hit ? 16u : 0u));
    h.UpdateU64(o.covered_tokens);
    h.UpdateU32(o.forced_text ? 1u : 0u);
    f64(o.quality);
    f64(o.bytes_sent);
    h.UpdateU32((o.answer_correct ? 1u : 0u) | (o.write_back_done ? 2u : 0u) |
                (o.write_back_failed ? 4u : 0u));
    h.UpdateU64(static_cast<uint64_t>(static_cast<int64_t>(o.fabric_node)));
    f64(o.base_quality);
    f64(o.refine_delay_s);
    f64(o.base_token_fraction);
    f64(o.enhanced_token_fraction);
  }
  return Sha256Hex(h.Finish());
}

struct RunStats {
  std::string digest;
  double p95_ttft_s = 0.0;
  double wall_s = 0.0;
  size_t count = 0;
};

RunStats RunLoad(Engine& engine, std::shared_ptr<ShardedKVStore> store,
                 size_t workers, const RequestTraceOptions& topts) {
  ClusterServer::Options copts;
  copts.num_workers = workers;
  copts.write_back_on_miss = false;  // warm-hit load: stays hit-only
  ClusterServer server(engine, store, BandwidthTrace::Constant(3.0), copts);
  const auto t0 = std::chrono::steady_clock::now();
  const auto outcomes = server.Serve(PoissonTrace(topts));
  const auto t1 = std::chrono::steady_clock::now();
  RunStats s;
  s.wall_s = std::chrono::duration<double>(t1 - t0).count();
  s.count = outcomes.size();
  s.p95_ttft_s = Summarize(outcomes).p95_ttft_s;
  s.digest = OutcomeDigest(outcomes);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_event_loop.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  bench::PrintHeader(
      "Event-driven serving core: fixed thread count, deterministic outcomes",
      "Mistral-7B calibration, 3 Gbps shared path, warm cache, FIFO");

  auto store = std::make_shared<ShardedKVStore>(ShardedKVStore::Options{8, 0});
  Engine engine(bench::FastEngineOptions("mistral-7b"), store);

  constexpr size_t kWorkers = 4;
  const RequestTraceOptions warm = TraceOpts(8, 4.0);
  {
    ClusterServer::Options copts;
    copts.num_workers = kWorkers;
    ClusterServer warmup(engine, store, BandwidthTrace::Constant(3.0), copts);
    warmup.Prestore(warm);
    // One throwaway serve so lazily-created threads (codec pool) exist
    // before the baseline thread count is read.
    warmup.Serve(PoissonTrace(warm));
  }

  bool failed = false;

  // --- 1. scale proof: >=100k requests on a fixed thread count -------------
  const size_t kScaleRequests = 100000;
  const int baseline_threads = CurrentThreadCount();
  ThreadPeakSampler sampler;
  const RunStats scale =
      RunLoad(engine, store, kWorkers, TraceOpts(kScaleRequests, 16.0));
  const int peak_threads = sampler.Stop();
  // Baseline + the sampler + num_workers (an assembled serve's decode
  // threads; this one starts none).
  const int allowed_threads = baseline_threads + static_cast<int>(kWorkers) + 1;
  std::printf(
      "\n-- scale: %zu requests, %zu workers --\n"
      "wall %.2f s (%.0f req/s)  p95 TTFT %.3f s\n"
      "threads: baseline %d, peak %d, allowed %d\n",
      scale.count, kWorkers, scale.wall_s, scale.count / scale.wall_s,
      scale.p95_ttft_s, baseline_threads, peak_threads, allowed_threads);
  if (scale.count != kScaleRequests) {
    std::fprintf(stderr, "FAIL: scale run served %zu of %zu requests\n",
                 scale.count, kScaleRequests);
    failed = true;
  }
  if (peak_threads > allowed_threads) {
    std::fprintf(stderr,
                 "FAIL: thread count grew with the trace (peak %d > allowed "
                 "%d); the event loop must not spawn per-request threads\n",
                 peak_threads, allowed_threads);
    failed = true;
  }

  // --- 2. determinism: identical runs are bit-equal ------------------------
  const size_t kCompareRequests = quick ? 800 : 2000;
  const RequestTraceOptions cmp = TraceOpts(kCompareRequests, 16.0);
  const RunStats first = RunLoad(engine, store, kWorkers, cmp);
  const RunStats rerun = RunLoad(engine, store, kWorkers, cmp);
  const bool deterministic = rerun.digest == first.digest;
  std::printf(
      "\n-- determinism: %zu requests, rerun %s --\n"
      "outcome digest %s\np95 TTFT %.4f s, wall %.2f s\n",
      kCompareRequests, deterministic ? "bit-equal" : "DIVERGED",
      first.digest.c_str(), first.p95_ttft_s, first.wall_s);
  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: two identical runs diverged (outcome digest %s vs "
                 "%s)\n",
                 first.digest.c_str(), rerun.digest.c_str());
    failed = true;
  }

  // --- full mode: worker-count sweep ---------------------------------------
  if (!quick) {
    std::printf("\n-- event-loop worker sweep (%zu requests) --\n",
                kCompareRequests);
    TablePrinter t({"workers", "p95 TTFT (s)", "wall (s)", "req/s"});
    for (const size_t w : {2u, 4u, 8u}) {
      const RunStats r = RunLoad(engine, store, w, cmp);
      t.AddRow({std::to_string(w), TablePrinter::Fmt(r.p95_ttft_s, 4),
                TablePrinter::Fmt(r.wall_s, 2),
                TablePrinter::Fmt(r.count / r.wall_s, 0)});
    }
    std::printf("%s", t.Render().c_str());
  }

  // --- artifact ------------------------------------------------------------
  {
    obs::JsonWriter w;
    w.BeginObject();
    w.Field("bench", "event_loop");
    w.BeginArray("results");
    w.BeginObject();
    w.Field("level", "scale");
    w.Field("tokens", static_cast<uint64_t>(kScaleRequests));
    w.Field("threads", static_cast<uint64_t>(kWorkers));
    w.Field("req_per_s", scale.count / scale.wall_s);
    w.Field("wall_s", scale.wall_s);
    w.Field("p95_ttft_s", scale.p95_ttft_s);
    w.Field("peak_threads", static_cast<uint64_t>(peak_threads));
    w.Field("baseline_threads", static_cast<uint64_t>(baseline_threads));
    w.EndObject();
    w.BeginObject();
    w.Field("level", "determinism");
    w.Field("tokens", static_cast<uint64_t>(kCompareRequests));
    w.Field("threads", static_cast<uint64_t>(kWorkers));
    w.Field("p95_ttft_s", first.p95_ttft_s);
    w.Field("outcome_digest", first.digest);
    w.Field("deterministic", deterministic ? 1.0 : 0.0);
    w.EndObject();
    w.EndArray();
    w.EndObject();
    w.WriteFile(out_path);
    std::printf("\nwrote %s\n", out_path.c_str());
  }

  if (failed) return 1;
  std::printf(quick ? "quick gate: PASS\n" : "done\n");
  return 0;
}
