// Shared-prefix KV reuse vs no-dedup, swept over the workload's
// prefix-share ratio at EQUAL cache capacity.
//
// Both modes serve the same shared-prefix trace (Zipf prefix families x
// per-request suffixes, SharedPrefixTrace) through the same cluster:
//   nodedup — a plain ShardedKVStore: every context id is an opaque blob, so
//             two family members store two full copies of the same prefix
//             and a fresh suffix is a full text-recompute miss.
//   prefix  — PrefixCache over the same sharded tier at the same byte
//             budget: chunks are content-addressed (SHA-256 of token span +
//             codec config) and refcount-dedup'd, and a fresh suffix whose
//             family prefix is cached becomes a PARTIAL hit that streams the
//             covered chunks as KV and pays GPU prefill only for the tail.
//
// The SLO sits in the regime the paper targets: tight enough that a full
// text re-prefill under GPU contention blows it, loose enough that KV
// streaming (full or prefix) meets it. Capacity amplification from dedup
// then shows up directly in the SLO-violation column.
//
// Emits machine-readable JSON (default BENCH_prefix_reuse.json) so CI can
// archive the trajectory.
//
// Flags:
//   --quick       small sweep + loud assertions (CI gate): at >=50% prefix
//                 share and equal capacity, the prefix mode must dedup bytes
//                 (> 0), its partial hits must beat full misses on mean
//                 TTFT, and it must strictly beat nodedup on SLO-violation
//                 rate.
//   --out PATH    JSON output path.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster_server.h"
#include "obs/json_writer.h"
#include "prefix/prefix_cache.h"
#include "storage/sharded_kv_store.h"
#include "workload/prefix_trace.h"

namespace cachegen {
namespace {

struct Row {
  double shared_fraction = 0.0;
  std::string mode;
  ClusterSummary summary;
  uint64_t deduped_bytes = 0;
  uint64_t unique_bytes = 0;
  uint64_t prefix_evictions = 0;
  size_t prefix_hits = 0;
  size_t full_misses = 0;
};

PrefixTraceOptions TraceOpts(bool quick, double shared_fraction) {
  PrefixTraceOptions topts;
  topts.num_requests = quick ? 18 : 36;
  topts.arrival_rate_hz = 2.0;
  topts.num_families = 2;
  topts.family_zipf = 0.9;
  // Two shared chunks + one private chunk per member: 2/3 of every shared
  // request's tokens are family boilerplate.
  topts.prefix_tokens = 3000;
  topts.suffix_min_tokens = 1500;
  topts.suffix_max_tokens = 1500;
  topts.suffixes_per_family = 3;
  topts.shared_fraction = shared_fraction;
  // Tight: a 4500-token text re-prefill at 1/4 GPU (~2.7 s) violates; KV
  // streaming (~0.4 s) and prefix+tail (~1.1 s) meet.
  topts.slo_s = 2.0;
  topts.seed = 0x9EF1;
  return topts;
}

Row RunMode(bool prefix_mode, uint64_t capacity, double shared_fraction,
            const PrefixTraceOptions& topts) {
  ClusterServer::Options copts;
  copts.num_workers = 4;
  copts.write_back_on_miss = true;
  copts.default_slo_s = topts.slo_s;

  Row row;
  row.shared_fraction = shared_fraction;
  row.mode = prefix_mode ? "prefix" : "nodedup";

  Engine::Options eopts = bench::FastEngineOptions("mistral-7b");
  std::vector<RequestOutcome> outcomes;
  const CacheTier* tier = nullptr;
  std::shared_ptr<PrefixCache> pc;
  std::shared_ptr<ShardedKVStore> sharded;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<ClusterServer> server;
  if (prefix_mode) {
    // The inner tier is unbounded: the prefix layer owns existence at the
    // SAME byte budget, counted over unique (dedup'd) chunk bytes.
    auto inner = std::make_shared<ShardedKVStore>(
        ShardedKVStore::Options{.num_shards = 1, .capacity_bytes = 0});
    PrefixCache::Options popts;
    popts.chunk_tokens = eopts.chunk_tokens;
    popts.capacity_bytes = capacity;
    pc = std::make_shared<PrefixCache>(inner, popts);
    engine = std::make_unique<Engine>(eopts, pc);
    server = std::make_unique<ClusterServer>(
        *engine, std::static_pointer_cast<CacheTier>(pc),
        BandwidthTrace::Constant(3.0), copts);
  } else {
    sharded = std::make_shared<ShardedKVStore>(
        ShardedKVStore::Options{.num_shards = 1, .capacity_bytes = capacity});
    engine = std::make_unique<Engine>(eopts, sharded);
    server = std::make_unique<ClusterServer>(*engine, sharded,
                                             BandwidthTrace::Constant(3.0),
                                             copts);
  }
  tier = &server->tier();
  outcomes = server->Serve(SharedPrefixTrace(topts));
  row.summary = Summarize(outcomes, tier);
  for (const RequestOutcome& o : outcomes) {
    if (o.prefix_hit) ++row.prefix_hits;
    if (o.forced_text) ++row.full_misses;
  }
  if (pc) {
    const auto stats = pc->stats();
    row.deduped_bytes = stats.deduped_bytes;
    row.unique_bytes = stats.unique_bytes;
    row.prefix_evictions = stats.evictions;
  }
  return row;
}

}  // namespace
}  // namespace cachegen

int main(int argc, char** argv) {
  using namespace cachegen;

  bool quick = false;
  std::string out_path = "BENCH_prefix_reuse.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  bench::PrintHeader(
      "Shared-prefix KV reuse (content-addressed dedup) vs no-dedup at equal "
      "capacity",
      quick ? "quick sweep (CI gate)" : "full sweep over prefix share");

  // Byte cost of one full family member at this codec config, measured once:
  // capacity is expressed in member-equivalents so the sweep is meaningful
  // whatever the ladder's absolute sizes are.
  uint64_t member_bytes = 0;
  {
    auto probe = std::make_shared<ShardedKVStore>(ShardedKVStore::Options{1, 0});
    Engine engine(bench::FastEngineOptions("mistral-7b"), probe);
    const PrefixTraceOptions topts = TraceOpts(quick, 0.5);
    engine.StoreKV("probe", PrefixFamilySpec(topts, 0, 0));
    member_bytes = probe->TotalBytes();
  }
  std::printf("one member: %.1f MB encoded across the ladder\n",
              static_cast<double>(member_bytes) / 1e6);
  // Fits ~3.3 member-equivalents: the dedup'd family pool (2 shared prefixes
  // + 6 suffixes ~ 3.3 members) squeezes in; the no-dedup pool (6 full
  // members + solo churn) cannot.
  const uint64_t capacity = member_bytes * 10 / 3;

  const std::vector<double> fracs =
      quick ? std::vector<double>{0.6} : std::vector<double>{0.0, 0.3, 0.6, 0.85};
  std::vector<Row> rows;
  for (const double frac : fracs) {
    const PrefixTraceOptions topts = TraceOpts(quick, frac);
    rows.push_back(RunMode(false, capacity, frac, topts));
    rows.push_back(RunMode(true, capacity, frac, topts));
  }

  // ---- human-readable summary -------------------------------------------
  TablePrinter table({"share", "mode", "hot/prefix/miss %", "SLO-viol %",
                      "mean TTFT", "prefix TTFT", "miss TTFT", "dedup MB",
                      "QoE"});
  for (const Row& r : rows) {
    const ClusterSummary& s = r.summary;
    table.AddRow({TablePrinter::Fmt(100.0 * r.shared_fraction, 0) + "%", r.mode,
                  TablePrinter::Fmt(100.0 * s.hot_hit_rate, 0) + "/" +
                      TablePrinter::Fmt(100.0 * s.prefix_hit_rate, 0) + "/" +
                      TablePrinter::Fmt(100.0 * s.miss_rate, 0),
                  TablePrinter::Fmt(100.0 * s.slo_violation_rate, 0),
                  TablePrinter::Fmt(s.mean_ttft_s, 2),
                  r.prefix_hits ? TablePrinter::Fmt(s.mean_prefix_ttft_s, 2) : "-",
                  r.full_misses ? TablePrinter::Fmt(s.mean_miss_ttft_s, 2) : "-",
                  TablePrinter::Fmt(static_cast<double>(r.deduped_bytes) / 1e6, 1),
                  TablePrinter::Fmt(s.mean_qoe_mos, 2)});
  }
  std::printf("%s", table.Render().c_str());

  // ---- machine-readable JSON --------------------------------------------
  {
    cachegen::obs::JsonWriter w;
    w.BeginObject();
    w.Field("bench", "prefix_reuse");
    w.Field("quick", quick);
    w.Field("member_bytes", static_cast<uint64_t>(member_bytes));
    w.Field("capacity_bytes", static_cast<uint64_t>(capacity));
    w.BeginArray("results");
    for (const Row& r : rows) {
      const ClusterSummary& s = r.summary;
      w.BeginObject();
      w.Field("shared_fraction", r.shared_fraction, 2);
      w.Field("mode", r.mode);
      w.Field("hot_hit_rate", s.hot_hit_rate, 4);
      w.Field("prefix_hit_rate", s.prefix_hit_rate, 4);
      w.Field("miss_rate", s.miss_rate, 4);
      w.Field("slo_violation_rate", s.slo_violation_rate, 4);
      w.Field("mean_ttft_s", s.mean_ttft_s, 3);
      w.Field("mean_prefix_ttft_s", s.mean_prefix_ttft_s, 3);
      w.Field("mean_miss_ttft_s", s.mean_miss_ttft_s, 3);
      w.Field("mean_covered_fraction", s.mean_covered_fraction, 3);
      w.Field("deduped_bytes", static_cast<uint64_t>(r.deduped_bytes));
      w.Field("unique_bytes", static_cast<uint64_t>(r.unique_bytes));
      w.Field("prefix_evictions", static_cast<uint64_t>(r.prefix_evictions));
      w.Field("mean_qoe_mos", s.mean_qoe_mos, 3);
      w.Field("goodput_tokens_per_s", s.goodput_tokens_per_s, 1);
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
      const Row& nodedup = rows[i];
      const Row& prefix = rows[i + 1];
      if (prefix.deduped_bytes == 0) {
        std::fprintf(stderr,
                     "FAIL: prefix mode dedup'd no bytes under a %.0f%% "
                     "shared-prefix trace\n",
                     100.0 * prefix.shared_fraction);
        ok = false;
      }
      if (prefix.prefix_hits == 0 || prefix.full_misses == 0) {
        std::fprintf(stderr,
                     "FAIL: gate needs both partial hits (%zu) and full "
                     "misses (%zu) to compare TTFTs\n",
                     prefix.prefix_hits, prefix.full_misses);
        ok = false;
      } else if (prefix.summary.mean_prefix_ttft_s >=
                 prefix.summary.mean_miss_ttft_s) {
        std::fprintf(stderr,
                     "FAIL: partial-prefix mean TTFT %.3f s not strictly "
                     "below full-miss mean TTFT %.3f s\n",
                     prefix.summary.mean_prefix_ttft_s,
                     prefix.summary.mean_miss_ttft_s);
        ok = false;
      }
      if (prefix.summary.slo_violation_rate >=
          nodedup.summary.slo_violation_rate) {
        std::fprintf(stderr,
                     "FAIL: prefix-mode SLO-violation rate %.3f not strictly "
                     "below no-dedup %.3f at equal capacity\n",
                     prefix.summary.slo_violation_rate,
                     nodedup.summary.slo_violation_rate);
        ok = false;
      }
    }
    if (!ok) return 1;
    std::printf(
        "quick gate: OK (dedup'd bytes > 0, partial hits beat misses on "
        "TTFT, prefix mode strictly beats no-dedup on SLO violations at "
        "equal capacity)\n");
  }
  return 0;
}
