// Tiered hot/cold KV storage vs evict-to-miss, swept over hot-tier capacity
// under a Zipf-popular context pool (the paper's dedicated-storage-server
// scenario grown a second tier).
//
// Both modes serve the same Poisson/Zipf trace through the same cluster at
// EQUAL hot capacity; the only difference is what eviction does:
//   evict  — ShardedKVStore erases the victim; the next request for it pays
//            a full text re-prefill (quality 1.0 but often SLO-dead).
//   tiered — TieredKVStore demotes the victim to a persistent cold tier and
//            promotes on hit; the request streams KV through the cold-read
//            model (ThrottledLink: read-bandwidth cap + seek).
//
// "Mean quality" is reported SLO-gated (a violating request scores 0): a
// lossless recompute that blows the deadline helps nobody, which is exactly
// the trade the cold tier wins. Raw mean quality is also emitted.
//
// Emits machine-readable JSON (default BENCH_tiered_storage.json) so CI can
// archive the trajectory.
//
// Flags:
//   --quick       small sweep + loud assertions (CI gate): at overflow
//                 capacity, tiered must strictly beat evict-to-miss on SLO
//                 violation rate AND SLO-gated mean quality, cold hits must
//                 never report forced_text, and demote/promote must fire.
//   --out PATH    JSON output path.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "cluster/cluster_server.h"
#include "obs/json_writer.h"
#include "storage/sharded_kv_store.h"
#include "storage/tiered_kv_store.h"

namespace cachegen {
namespace {

namespace fs = std::filesystem;

struct Row {
  double hot_frac = 0.0;
  std::string mode;
  ClusterSummary summary;
  double p95_ttft_s = 0.0;
  uint64_t demotions = 0, promotions = 0, cold_evictions = 0;
  uint64_t cold_bytes = 0;
  bool any_cold_forced_text = false;
};

RequestTraceOptions TraceOpts(bool quick) {
  RequestTraceOptions topts;
  topts.num_requests = quick ? 18 : 40;
  topts.arrival_rate_hz = 2.0;
  // Few long contexts: a miss is a multi-second re-prefill, so the
  // hot/cold/miss distinction shows up in the SLO column, not just counters.
  topts.num_contexts = 4;
  topts.min_tokens = 5000;
  topts.max_tokens = 9000;
  topts.zipf_exponent = 0.9;
  topts.slo_s = 3.0;
  topts.seed = 0x71E2ED;
  return topts;
}

Row RunMode(bool tiered, uint64_t hot_capacity, double hot_frac,
            const RequestTraceOptions& topts, const fs::path& cold_root) {
  ClusterServer::Options copts;
  copts.num_workers = 4;
  copts.write_back_on_miss = true;

  Row row;
  row.hot_frac = hot_frac;
  row.mode = tiered ? "tiered" : "evict";

  std::vector<RequestOutcome> outcomes;
  if (tiered) {
    fs::remove_all(cold_root);
    TieredKVStore::Options sopts;
    // One shard so the capacity fraction is the actual LRU budget.
    sopts.hot = {.num_shards = 1, .capacity_bytes = hot_capacity};
    sopts.cold_root = cold_root;
    sopts.cold_capacity_bytes = 0;  // the cheap tier holds the working set
    auto store = std::make_shared<TieredKVStore>(sopts);
    Engine engine(bench::FastEngineOptions("mistral-7b"), store);
    ClusterServer server(engine, store, BandwidthTrace::Constant(3.0), copts);
    server.Prestore(topts);
    outcomes = server.Serve(PoissonTrace(topts));
    store->Flush();
    const auto stats = store->stats();
    row.demotions = stats.demotions;
    row.promotions = stats.promotions;
    row.cold_evictions = stats.cold_evictions;
    row.cold_bytes = stats.cold_bytes;
  } else {
    auto store = std::make_shared<ShardedKVStore>(
        ShardedKVStore::Options{.num_shards = 1, .capacity_bytes = hot_capacity});
    Engine engine(bench::FastEngineOptions("mistral-7b"), store);
    ClusterServer server(engine, store, BandwidthTrace::Constant(3.0), copts);
    server.Prestore(topts);
    outcomes = server.Serve(PoissonTrace(topts));
  }
  for (const RequestOutcome& o : outcomes) {
    if (o.cold_hit && o.forced_text) row.any_cold_forced_text = true;
  }
  row.summary = Summarize(outcomes);
  row.p95_ttft_s = row.summary.p95_ttft_s;
  return row;
}

}  // namespace
}  // namespace cachegen

int main(int argc, char** argv) {
  using namespace cachegen;

  bool quick = false;
  std::string out_path = "BENCH_tiered_storage.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  bench::PrintHeader(
      "Tiered hot/cold KV storage vs evict-to-miss (equal hot capacity)",
      quick ? "quick sweep (CI gate)" : "full sweep");

  const RequestTraceOptions topts = TraceOpts(quick);
  const fs::path cold_root =
      fs::temp_directory_path() /
      ("cachegen_bench_tiered_" + std::to_string(::getpid()));

  // Working set of the context pool, measured once (deterministic in the
  // engine options + trace seed).
  uint64_t working_set = 0;
  {
    auto store = std::make_shared<ShardedKVStore>(ShardedKVStore::Options{1, 0});
    Engine engine(bench::FastEngineOptions("mistral-7b"), store);
    ClusterServer::Options copts;
    ClusterServer server(engine, store, BandwidthTrace::Constant(3.0), copts);
    server.Prestore(topts);
    working_set = store->TotalBytes();
  }
  std::printf("working set: %.1f MB encoded across %zu contexts\n",
              static_cast<double>(working_set) / 1e6, topts.num_contexts);

  const std::vector<double> fracs =
      quick ? std::vector<double>{0.45} : std::vector<double>{0.25, 0.45, 0.7};
  std::vector<Row> rows;
  for (const double frac : fracs) {
    const auto cap = static_cast<uint64_t>(static_cast<double>(working_set) * frac);
    rows.push_back(RunMode(false, cap, frac, topts, cold_root));
    rows.push_back(RunMode(true, cap, frac, topts, cold_root));
  }
  fs::remove_all(cold_root);

  // ---- human-readable summary -------------------------------------------
  TablePrinter table({"hot cap", "mode", "hot/cold/miss %", "SLO-viol %",
                      "qual(SLO)", "qual(raw)", "p95 TTFT", "QoE",
                      "dem/pro"});
  for (const Row& r : rows) {
    const ClusterSummary& s = r.summary;
    table.AddRow({TablePrinter::Fmt(100.0 * r.hot_frac, 0) + "% WS", r.mode,
                  TablePrinter::Fmt(100.0 * s.hot_hit_rate, 0) + "/" +
                      TablePrinter::Fmt(100.0 * s.cold_hit_rate, 0) + "/" +
                      TablePrinter::Fmt(100.0 * s.miss_rate, 0),
                  TablePrinter::Fmt(100.0 * s.slo_violation_rate, 0),
                  TablePrinter::Fmt(s.mean_effective_quality, 3),
                  TablePrinter::Fmt(s.mean_quality, 3),
                  TablePrinter::Fmt(r.p95_ttft_s, 2),
                  TablePrinter::Fmt(s.mean_qoe_mos, 2),
                  std::to_string(r.demotions) + "/" +
                      std::to_string(r.promotions)});
  }
  std::printf("%s", table.Render().c_str());

  // ---- machine-readable JSON --------------------------------------------
  {
    cachegen::obs::JsonWriter w;
    w.BeginObject();
    w.Field("bench", "tiered_storage");
    w.Field("quick", quick);
    w.Field("working_set_bytes", static_cast<uint64_t>(working_set));
    w.BeginArray("results");
    for (const Row& r : rows) {
      const ClusterSummary& s = r.summary;
      w.BeginObject();
      w.Field("hot_capacity_frac", r.hot_frac, 2);
      w.Field("mode", r.mode);
      w.Field("hot_hit_rate", s.hot_hit_rate, 4);
      w.Field("cold_hit_rate", s.cold_hit_rate, 4);
      w.Field("miss_rate", s.miss_rate, 4);
      w.Field("slo_violation_rate", s.slo_violation_rate, 4);
      w.Field("mean_effective_quality", s.mean_effective_quality, 5);
      w.Field("mean_quality", s.mean_quality, 5);
      w.Field("p95_ttft_s", r.p95_ttft_s, 3);
      w.Field("mean_qoe_mos", s.mean_qoe_mos, 3);
      w.Field("goodput_tokens_per_s", s.goodput_tokens_per_s, 1);
      w.Field("demotions", static_cast<uint64_t>(r.demotions));
      w.Field("promotions", static_cast<uint64_t>(r.promotions));
      w.Field("cold_evictions", static_cast<uint64_t>(r.cold_evictions));
      w.Field("cold_bytes", static_cast<uint64_t>(r.cold_bytes));
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    if (w.WriteFile(out_path)) {
      std::printf("wrote %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not open %s for writing\n",
                   out_path.c_str());
    }
  }

  // ---- regression gate (quick mode) -------------------------------------
  if (quick) {
    bool ok = true;
    for (size_t i = 0; i + 1 < rows.size(); i += 2) {
      const Row& evict = rows[i];
      const Row& tiered = rows[i + 1];
      if (evict.summary.miss_rate <= 0.0) {
        std::fprintf(stderr,
                     "FAIL: %s: evict mode saw no misses — the working set "
                     "did not overflow; the comparison is vacuous\n",
                     evict.mode.c_str());
        ok = false;
      }
      if (tiered.summary.slo_violation_rate >=
          evict.summary.slo_violation_rate) {
        std::fprintf(stderr,
                     "FAIL: tiered SLO-violation rate %.3f not strictly below "
                     "evict-to-miss %.3f\n",
                     tiered.summary.slo_violation_rate,
                     evict.summary.slo_violation_rate);
        ok = false;
      }
      if (tiered.summary.mean_effective_quality <=
          evict.summary.mean_effective_quality) {
        std::fprintf(stderr,
                     "FAIL: tiered SLO-gated mean quality %.4f not strictly "
                     "above evict-to-miss %.4f\n",
                     tiered.summary.mean_effective_quality,
                     evict.summary.mean_effective_quality);
        ok = false;
      }
      if (tiered.any_cold_forced_text) {
        std::fprintf(stderr, "FAIL: a cold hit reported forced_text\n");
        ok = false;
      }
      if (tiered.demotions == 0 || tiered.promotions == 0) {
        std::fprintf(stderr,
                     "FAIL: tier traffic missing (demotions %llu, "
                     "promotions %llu)\n",
                     static_cast<unsigned long long>(tiered.demotions),
                     static_cast<unsigned long long>(tiered.promotions));
        ok = false;
      }
    }
    if (!ok) return 1;
    std::printf("quick gate: OK (tiered strictly beats evict-to-miss on SLO "
                "violations and SLO-gated quality at equal hot capacity)\n");
  }
  return 0;
}
