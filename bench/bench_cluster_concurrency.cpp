// Cluster concurrency study (the serving-cluster analogue of Fig. 12/13):
//
//   1. N in {1, 8, 32} concurrent requests sharing one 3 Gbps path and one
//      GPU pool -> p50/p95/p99 TTFT, SLO-violation rate, goodput, QoE all
//      degrade with load.
//   2. Scheduler policy face-off (FIFO vs shortest-load-first vs
//      SLO-deadline-first) under the same overload.
//   3. KV cache tier capacity sweep: shrinking the ShardedKVStore below the
//      working set produces misses (full re-prefill) and evictions.
#include <memory>

#include "bench_common.h"
#include "cluster/cluster_server.h"
#include "storage/sharded_kv_store.h"

using namespace cachegen;

namespace {

RequestTraceOptions TraceOpts() {
  RequestTraceOptions topts;
  topts.num_contexts = 6;
  topts.min_tokens = 2000;
  topts.max_tokens = 8000;
  topts.zipf_exponent = 0.9;
  topts.slo_s = 3.0;
  topts.seed = 0x715C;
  return topts;
}

}  // namespace

int main() {
  bench::PrintHeader("Cluster concurrency: shared link + worker pool + KV cache tier",
                     "Mistral-7B, 3 Gbps shared path, Poisson arrivals, SLO 3 s");

  // --- 1. concurrency sweep (warm cache: every request streams encoded KV) --
  {
    auto store = std::make_shared<ShardedKVStore>(ShardedKVStore::Options{8, 0});
    Engine engine(bench::FastEngineOptions("mistral-7b"), store);
    ClusterServer::Options copts;
    copts.write_back_on_miss = false;
    const auto topts = TraceOpts();
    {
      ClusterServer warmup(engine, store, BandwidthTrace::Constant(3.0), copts);
      warmup.Prestore(topts);
    }

    std::printf("\n-- p-tail TTFT vs concurrent requests (all arrive at once) --\n");
    TablePrinter t({"N", "p50 TTFT (s)", "p95 TTFT (s)", "SLO-viol %",
                    "goodput tok/s", "QoE (MOS)"});
    for (const size_t n : {1u, 8u, 32u}) {
      RequestTraceOptions sweep = topts;
      sweep.num_requests = n;
      sweep.arrival_rate_hz = 1e6;  // effectively simultaneous
      ClusterServer::Options o = copts;
      o.num_workers = n;  // all in flight together: pure contention
      ClusterServer server(engine, store, BandwidthTrace::Constant(3.0), o);
      const ClusterSummary s = Summarize(server.Serve(PoissonTrace(sweep)));
      t.AddRow({std::to_string(n), TablePrinter::Fmt(s.p50_ttft_s, 2),
                TablePrinter::Fmt(s.p95_ttft_s, 2),
                TablePrinter::Fmt(100.0 * s.slo_violation_rate, 0),
                TablePrinter::Fmt(s.goodput_tokens_per_s, 0),
                TablePrinter::Fmt(s.mean_qoe_mos, 2)});
    }
    std::printf("%s", t.Render().c_str());

    // --- 2. scheduler policies under sustained overload -----------------------
    std::printf("\n-- scheduler policy at 8x overload (48 requests, 4 workers) --\n");
    TablePrinter p({"policy", "mean TTFT (s)", "p95 TTFT (s)", "SLO-viol %",
                    "mean queue (s)"});
    for (const auto kind :
         {SchedulerPolicyKind::kFifo, SchedulerPolicyKind::kShortestLoadFirst,
          SchedulerPolicyKind::kSloDeadlineFirst}) {
      RequestTraceOptions load = topts;
      load.num_requests = 48;
      load.arrival_rate_hz = 8.0;
      ClusterServer::Options o = copts;
      o.num_workers = 4;
      o.policy = kind;
      ClusterServer server(engine, store, BandwidthTrace::Constant(3.0), o);
      const ClusterSummary s = Summarize(server.Serve(PoissonTrace(load)));
      p.AddRow({SchedulerPolicyName(kind), TablePrinter::Fmt(s.mean_ttft_s, 2),
                TablePrinter::Fmt(s.p95_ttft_s, 2),
                TablePrinter::Fmt(100.0 * s.slo_violation_rate, 0),
                TablePrinter::Fmt(s.mean_queue_delay_s, 2)});
    }
    std::printf("%s", p.Render().c_str());
  }

  // --- 3. cache tier capacity sweep ----------------------------------------
  std::printf("\n-- KV cache tier capacity vs working set (16 requests) --\n");
  TablePrinter c({"capacity", "hit %", "evictions", "p95 TTFT (s)", "SLO-viol %"});
  RequestTraceOptions topts = TraceOpts();
  topts.num_requests = 16;
  topts.arrival_rate_hz = 2.0;
  // Long contexts: a miss means a multi-second re-prefill, so cache-tier
  // pressure is visible in the latency tail, not just the counters.
  topts.num_contexts = 4;
  topts.min_tokens = 5000;
  topts.max_tokens = 9000;
  // Measure the working set once, then rerun with shrinking capacity.
  uint64_t working_set = 0;
  for (const double frac : {0.0, 0.75, 0.3}) {  // 0 = unbounded
    const uint64_t cap = frac == 0.0 ? 0 : static_cast<uint64_t>(working_set * frac);
    // One shard so "X% of the working set" is the actual LRU budget instead
    // of being quartered by placement.
    auto store = std::make_shared<ShardedKVStore>(
        ShardedKVStore::Options{1, cap});
    Engine engine(bench::FastEngineOptions("mistral-7b"), store);
    ClusterServer::Options o;
    o.num_workers = 4;
    o.write_back_on_miss = true;
    ClusterServer server(engine, store, BandwidthTrace::Constant(3.0), o);
    server.Prestore(topts);
    if (frac == 0.0) working_set = store->TotalBytes();
    const ClusterSummary s = Summarize(server.Serve(PoissonTrace(topts)));
    const auto stats = store->stats();
    c.AddRow({frac == 0.0 ? "unbounded"
                          : (TablePrinter::Fmt(100.0 * frac, 0) + "% of WS"),
              TablePrinter::Fmt(100.0 * s.cache_hit_rate, 0),
              std::to_string(stats.evictions), TablePrinter::Fmt(s.p95_ttft_s, 2),
              TablePrinter::Fmt(100.0 * s.slo_violation_rate, 0)});
  }
  std::printf("%s", c.Render().c_str());
  std::printf(
      "\nshape check: p95 TTFT and SLO violations rise with N (shared link +\n"
      "GPU pool); under-capacity cache tiers miss and evict, forcing full\n"
      "re-prefills that push the tail higher still.\n");
  return 0;
}
