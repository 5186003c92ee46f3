// Concurrent cluster serving: many user queries against a shared document
// pool, one storage-to-GPU path, a tiered hot/cold KV cache, and an
// SLO-aware scheduler — the full CacheGen serving story above the
// single-request substrate.
//
// A Poisson stream of queries hits a 4-worker cluster. Hot documents stream
// their encoded KV caches from RAM (decoded for real via Engine::AssembleKV);
// documents squeezed out of the hot tier are DEMOTED to a persistent cold
// tier instead of erased, and a later query promotes them back — streamed at
// KV quality through the cold-read model (seek + device bandwidth) instead
// of paying a full text re-prefill. Only a document absent from both tiers
// ships text, re-prefills, and gets written back.
//
// Flags:
//   --prefix              serve a shared-prefix workload through a
//                         PrefixCache over the tiered store: mixes hot full
//                         hits, cold promotions, partial-prefix hits (cached
//                         prefix as KV + text suffix + write-back), and full
//                         misses — the trace CI validates
//   --fabric              serve the shared-prefix workload through a 4-node
//                         CacheFabric (consistent-hash sharding, per-node
//                         prefix layers over tiered stores, peer chunk
//                         fetch): adds REMOTE hits priced through the
//                         interconnect model — the fabric trace CI validates
//   --trace PATH          enable the tracer and export a Chrome trace-event
//                         JSON (load in https://ui.perfetto.dev); the
//                         CACHEGEN_TRACE env var also enables recording
//   --metrics-json PATH   write the run summary + every registered metric
//   --serve-run DIR       deterministic continuous-telemetry run: a
//                         shared-prefix workload with an overload phase is
//                         served with the virtual-time sampler, burn-rate
//                         monitor, and flight recorder enabled; writes
//                         DIR/timeseries.json, DIR/alerts.json,
//                         DIR/incident_<i>.json, and DIR/metrics.prom, and
//                         fails loudly unless the violation rate rises in
//                         the overload window, an OK->WARN->PAGE sequence
//                         fired, and an incident was captured. Byte-identical
//                         across replays (the CI double-replay gate).
//   --serve-metrics PORT  serve live Prometheus exposition on
//                         http://127.0.0.1:PORT/metrics (plus /healthz)
//                         while the run executes; 0 picks an ephemeral port
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "cluster/cluster_server.h"
#include "fabric/cache_fabric.h"
#include "obs/export.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "prefix/prefix_cache.h"
#include "storage/tiered_kv_store.h"
#include "workload/prefix_trace.h"

using namespace cachegen;

namespace {

// The serving tier arrangement both modes build: a 4-node fabric or a
// prefix layer over one tiered store, plus the per-process cold root that
// concurrent invocations must not share.
struct TierSetup {
  std::shared_ptr<TieredKVStore> store;
  std::shared_ptr<PrefixCache> pc;
  std::shared_ptr<CacheFabric> fab;
  std::shared_ptr<CacheTier> tier;
  std::shared_ptr<KVStore> engine_store;
  std::filesystem::path cold_root;
};

TierSetup MakeTier(bool fabric_mode, bool prefix_mode,
                   const Engine::Options& eopts) {
  TierSetup t;
  // Per-process directory so concurrent invocations never share (or delete)
  // each other's cold tier.
  t.cold_root = std::filesystem::temp_directory_path() /
                ("cachegen_example_cold_tier_" + std::to_string(::getpid()));
  std::filesystem::remove_all(t.cold_root);

  if (fabric_mode) {
    // 4 simulated cache nodes behind one tier: every node owns a hot/cold
    // tiered slice (under cold_root/node<i>) with its own prefix layer;
    // content-addressed chunks stripe over the consistent-hash ring and are
    // peer-fetched across nodes. Per-node hot tiers are small enough that
    // the tail still demotes — cold promotions and remote fetches compose.
    CacheFabric::Options fopts;
    fopts.num_nodes = 4;
    fopts.chunk_replicas = 2;
    fopts.node_store = {.num_shards = 2, .capacity_bytes = 16ull << 20};
    fopts.cold_root = t.cold_root;
    fopts.prefix_opts.chunk_tokens = eopts.chunk_tokens;
    t.fab = std::make_shared<CacheFabric>(fopts);
    t.tier = t.fab;
    t.engine_store = t.fab;
    return t;
  }
  TieredKVStore::Options sopts;
  // A hot tier far below the pool's working set: the cold tier does real
  // work. The prefix workload's unique-chunk working set is much larger, so
  // its hot tier is bigger — big enough that recently shared families stay
  // hot (full hot hits) while the tail still demotes (cold promotions).
  sopts.hot = {.num_shards = 2,
               .capacity_bytes = prefix_mode ? 48ull << 20 : 8ull << 20};
  sopts.cold_root = t.cold_root;
  sopts.cold_capacity_bytes = 0;  // the cheap tier keeps everything
  t.store = std::make_shared<TieredKVStore>(sopts);

  // The prefix layer (when asked for) owns lookups above the tiered store:
  // full hits pin through it, fresh family suffixes become partial-prefix
  // hits against the shared chunks, and write-backs dedup into the content-
  // addressed store.
  t.tier = t.store;
  t.engine_store = t.store;
  if (prefix_mode) {
    PrefixCache::Options popts;
    popts.chunk_tokens = eopts.chunk_tokens;
    t.pc = std::make_shared<PrefixCache>(t.store, popts);
    t.tier = t.pc;
    t.engine_store = t.pc;
  }
  return t;
}

// Shared-prefix workload options used by --prefix/--fabric and --serve-run.
PrefixTraceOptions BasePrefixTrace() {
  PrefixTraceOptions ptopts;
  ptopts.num_requests = 24;
  ptopts.arrival_rate_hz = 3.0;
  ptopts.num_families = 2;
  ptopts.prefix_tokens = 3000;
  ptopts.suffix_min_tokens = 1500;
  ptopts.suffix_max_tokens = 1500;
  ptopts.suffixes_per_family = 4;
  ptopts.shared_fraction = 0.7;
  ptopts.slo_s = 2.5;
  ptopts.seed = 0xD0C5;
  return ptopts;
}

// --serve-run: a longer shared-prefix stream whose middle segment's arrival
// gaps are compressed, so admission backlog builds and the SLO-violation
// rate visibly rises, then drains. Pure function of nothing — the CI gate
// replays it twice and compares artifact bytes.
constexpr double kOverloadStartS = 10.0;
constexpr double kOverloadEndS = 20.0;    // in pre-compression arrival time
constexpr double kOverloadFactor = 10.0;  // arrival-rate multiplier

std::vector<ClusterRequest> OverloadTrace(PrefixTraceOptions ptopts) {
  ptopts.num_requests = 90;
  std::vector<ClusterRequest> trace = SharedPrefixTrace(ptopts);
  for (ClusterRequest& rq : trace) {
    const double t = rq.arrival_s;
    if (t < kOverloadStartS) continue;
    if (t < kOverloadEndS) {
      rq.arrival_s = kOverloadStartS + (t - kOverloadStartS) / kOverloadFactor;
    } else {
      rq.arrival_s = kOverloadStartS +
                     (kOverloadEndS - kOverloadStartS) / kOverloadFactor +
                     (t - kOverloadEndS);
    }
  }
  return trace;
}

int RunServeRun(const std::string& dir_arg, bool fabric_mode) {
  const std::filesystem::path dir(dir_arg);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);

  // Virtual-only artifacts must never lose events to ring wrap (which slot
  // a drop-oldest ring evicts depends on wall-clock thread interleaving).
  // Rings only reserve min(capacity, 1024) up front, so a large cap is free.
  obs::Tracer::Instance().SetRingCapacity(1u << 20);
  obs::Tracer::Instance().SetEnabled(true);

  Engine::Options eopts;
  eopts.model_name = "mistral-7b";
  TierSetup ts = MakeTier(fabric_mode, /*prefix_mode=*/true, eopts);
  Engine engine(eopts, ts.engine_store);

  PrefixTraceOptions ptopts = BasePrefixTrace();
  // An unqueued miss costs ~3.2 s TTFT on this path; a 4 s SLO keeps the
  // steady phase healthy so violations are the overload backlog's doing.
  ptopts.slo_s = 4.0;
  ClusterServer::Options copts;
  copts.num_workers = 4;
  copts.policy = SchedulerPolicyKind::kSloDeadlineFirst;
  copts.assemble_kv = false;  // keep the run light; pins release on completion
  copts.default_slo_s = ptopts.slo_s;
  copts.telemetry.sample_period_s = 0.5;
  copts.telemetry.slo.fast_windows = 4;    // 2 s
  copts.telemetry.slo.slow_windows = 12;   // 6 s
  copts.telemetry.slo.error_budget = 0.1;  // 10% violations allowed
  copts.telemetry.slo.warn_burn = 1.0;
  copts.telemetry.slo.page_burn = 2.5;
  copts.telemetry.slo.hold_windows = 4;
  copts.telemetry.recorder.before_s = 3.0;
  copts.telemetry.recorder.after_s = 1.0;
  ClusterServer cluster(engine, ts.tier, BandwidthTrace::Constant(3.0), copts);

  std::printf(
      "== serve-run (%s): overload phase at %.0fx arrival rate from t=%.0fs "
      "==\n",
      fabric_mode ? "fabric" : "prefix", kOverloadFactor, kOverloadStartS);
  std::vector<std::pair<std::string, ContextSpec>> seed;
  for (size_t f = 0; f < ptopts.num_families; ++f) {
    seed.emplace_back(PrefixFamilyContextId(f, 0),
                      PrefixFamilySpec(ptopts, f, 0));
  }
  cluster.Prestore(seed);

  const auto outcomes = cluster.Serve(OverloadTrace(ptopts));
  const ClusterSummary s = Summarize(outcomes, ts.tier.get());
  std::printf("%s\n", FormatSummary(s).c_str());

  const obs::TimeSeriesCollector* series = cluster.timeseries();
  const obs::SloMonitor* monitor = cluster.slo_monitor();
  const obs::FlightRecorder* recorder = cluster.flight_recorder();
  if (series == nullptr || monitor == nullptr || recorder == nullptr) {
    std::fprintf(stderr, "FAIL: telemetry was not enabled\n");
    return 1;
  }

  // (a) The per-window SLO-violation rate must visibly rise in the overload
  // window relative to the steady phase before it.
  const auto window_count = [](const obs::WindowRecord& win, const char* name) {
    const auto it = win.counters.find(name);
    return it == win.counters.end() ? uint64_t{0} : it->second;
  };
  uint64_t viol_before = 0;
  uint64_t viol_overload = 0;
  for (const obs::WindowRecord& win : series->windows()) {
    const uint64_t v = window_count(win, "cluster.slo_violations");
    if (win.end_s <= kOverloadStartS) {
      viol_before += v;
    } else if (win.start_s < kOverloadStartS + 6.0) {
      viol_overload += v;
    }
  }
  std::printf(
      "telemetry: %zu windows, violations %llu steady / %llu overload, "
      "%zu alert transitions, %zu incidents, final level %s\n",
      series->windows().size(),
      static_cast<unsigned long long>(viol_before),
      static_cast<unsigned long long>(viol_overload),
      monitor->alerts().size(), recorder->incidents().size(),
      obs::AlertLevelName(monitor->level()));
  if (viol_overload == 0 || viol_overload <= viol_before) {
    std::fprintf(stderr,
                 "FAIL: SLO-violation rate did not rise in the overload "
                 "window (steady %llu, overload %llu)\n",
                 static_cast<unsigned long long>(viol_before),
                 static_cast<unsigned long long>(viol_overload));
    return 1;
  }

  // (b) The alert log must show the full OK -> WARN -> PAGE escalation.
  bool saw_warn = false;
  bool saw_page = false;
  for (const obs::AlertRecord& a : monitor->alerts()) {
    if (a.from == obs::AlertLevel::kOk && a.to == obs::AlertLevel::kWarn) {
      saw_warn = true;
    }
    if (saw_warn && a.to == obs::AlertLevel::kPage) saw_page = true;
  }
  if (!saw_warn || !saw_page) {
    std::fprintf(stderr,
                 "FAIL: expected an OK->WARN->PAGE sequence "
                 "(saw_warn=%d saw_page=%d, %zu transitions)\n",
                 saw_warn, saw_page, monitor->alerts().size());
    return 1;
  }

  // (c) The PAGE must have produced an incident artifact.
  if (recorder->incidents().empty()) {
    std::fprintf(stderr, "FAIL: no incident captured on PAGE\n");
    return 1;
  }

  ts.tier->Flush();

  // Artifacts. The exposition omits wall-clock-measured series (codec
  // timings, tracer ring high-water), the worker-racy channel-depth gauges,
  // and the pool's submission count: each cold tier submits a demotion
  // drainer only when its previous one has already finished, which depends
  // on wall timing. Every remaining value is a pure function of the
  // workload, so the CI double-replay compares all four artifacts
  // byte-for-byte.
  bool ok = series->WriteJson(dir / "timeseries.json");
  ok = monitor->WriteJson(dir / "alerts.json") && ok;
  ok = recorder->WriteIncidents(dir) && ok;
  obs::ExpositionOptions eo;
  eo.exclude = {"codec.encode_us", "codec.decode_us",
                "obs.trace.ring_highwater_events",
                "cluster.queue.admission_depth",
                "cluster.queue.continuation_depth", "pool.submitted"};
  ok = obs::WritePrometheusText(dir / "metrics.prom", eo) && ok;
  if (!ok) {
    std::fprintf(stderr, "FAIL: could not write artifacts under %s\n",
                 dir_arg.c_str());
    return 1;
  }
  std::printf("wrote timeseries.json, alerts.json, %zu incident file(s), "
              "metrics.prom under %s\n",
              recorder->incidents().size(), dir_arg.c_str());

  std::filesystem::remove_all(ts.cold_root);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool prefix_mode = false;
  bool fabric_mode = false;
  std::string trace_path;
  std::string metrics_path;
  std::string serve_run_dir;
  int serve_metrics_port = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--prefix") == 0) {
      prefix_mode = true;
    } else if (std::strcmp(argv[i], "--fabric") == 0) {
      fabric_mode = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--serve-run") == 0 && i + 1 < argc) {
      serve_run_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--serve-metrics") == 0 && i + 1 < argc) {
      serve_metrics_port = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--prefix] [--fabric] [--trace PATH] "
                   "[--metrics-json PATH] [--serve-run DIR] "
                   "[--serve-metrics PORT]\n",
                   argv[0]);
      return 2;
    }
  }
  if (fabric_mode) prefix_mode = true;  // the fabric serves the prefix workload
  if (!trace_path.empty()) obs::Tracer::Instance().SetEnabled(true);

  // Live exposition endpoint, if asked for: scrape-compatible with a real
  // Prometheus, alive for the whole run.
  std::optional<obs::MetricsHttpServer> http;
  if (serve_metrics_port >= 0) {
    http.emplace(obs::ExpositionOptions{});
    if (!http->Start(static_cast<uint16_t>(serve_metrics_port))) {
      std::fprintf(stderr, "cannot bind 127.0.0.1:%d for --serve-metrics\n",
                   serve_metrics_port);
      return 1;
    }
    std::printf("serving http://127.0.0.1:%u/metrics (and /healthz)\n",
                static_cast<unsigned>(http->port()));
  }

  if (!serve_run_dir.empty()) {
    const int rc = RunServeRun(serve_run_dir, fabric_mode);
    if (http) http->Stop();
    return rc;
  }

  Engine::Options eopts;
  eopts.model_name = "mistral-7b";
  TierSetup ts = MakeTier(fabric_mode, prefix_mode, eopts);
  const std::shared_ptr<TieredKVStore>& store = ts.store;
  const std::shared_ptr<PrefixCache>& pc = ts.pc;
  const std::shared_ptr<CacheFabric>& fab = ts.fab;
  const std::shared_ptr<CacheTier>& tier = ts.tier;
  Engine engine(eopts, ts.engine_store);

  ClusterServer::Options copts;
  copts.num_workers = 4;
  copts.policy = SchedulerPolicyKind::kSloDeadlineFirst;
  copts.assemble_kv = true;      // actually decode the delivered bitstreams
  copts.cold_read_gbps = 1.25;   // the cold device's per-stream read rate
  copts.cold_seek_s = 0.015;
  ClusterServer cluster(engine, tier, BandwidthTrace::Constant(3.0), copts);

  std::vector<ClusterRequest> trace;
  double slo_s = 0.0;
  if (prefix_mode) {
    PrefixTraceOptions ptopts = BasePrefixTrace();
    slo_s = ptopts.slo_s;
    copts.default_slo_s = ptopts.slo_s;

    std::printf(
        "== CacheGen cluster (%s mode): 4 workers, 3 Gbps shared path, "
        "SLO %.1f s ==\n",
        fabric_mode ? "fabric" : "prefix", slo_s);
    // Seed one member per family: repeats of these become full hits, fresh
    // suffixes of the same families become partial-prefix hits, and solo
    // contexts can only miss. The tight hot tier demotes, so some covered
    // chunks later stream cold.
    std::vector<std::pair<std::string, ContextSpec>> seed;
    for (size_t f = 0; f < ptopts.num_families; ++f) {
      seed.emplace_back(PrefixFamilyContextId(f, 0),
                        PrefixFamilySpec(ptopts, f, 0));
    }
    if (fabric_mode) {
      std::printf("pre-storing %zu family members across %zu nodes...\n",
                  seed.size(), fab->num_nodes());
    } else {
      std::printf("pre-storing %zu family members (hot tier %.0f MB)...\n",
                  seed.size(),
                  static_cast<double>(store->hot().capacity_bytes()) / 1e6);
    }
    cluster.Prestore(seed);
    trace = SharedPrefixTrace(ptopts);
  } else {
    RequestTraceOptions topts;
    topts.num_requests = 16;
    topts.arrival_rate_hz = 3.0;
    topts.num_contexts = 5;
    topts.min_tokens = 1500;
    topts.max_tokens = 5000;
    topts.slo_s = 2.5;
    topts.seed = 0xD0C5;
    slo_s = topts.slo_s;

    std::printf(
        "== CacheGen cluster: 4 workers, 3 Gbps shared path, SLO %.1f s ==\n",
        slo_s);
    std::printf("pre-storing %zu documents (hot tier %.0f MB)...\n",
                topts.num_contexts,
                static_cast<double>(store->hot().capacity_bytes()) / 1e6);
    cluster.Prestore(topts);
    trace = PoissonTrace(topts);
  }
  if (store) {
    const auto stats = store->stats();
    std::printf("after pre-store: %.1f MB hot, %.1f MB cold (%llu demotions)\n\n",
                static_cast<double>(stats.hot_bytes) / 1e6,
                static_cast<double>(stats.cold_bytes) / 1e6,
                static_cast<unsigned long long>(stats.demotions));
  } else {
    std::printf("after pre-store: %.1f MB across %zu node stores\n\n",
                static_cast<double>(fab->TotalBytes()) / 1e6,
                fab->num_nodes());
  }

  const auto outcomes = cluster.Serve(std::move(trace));

  std::printf("%4s %9s %12s %6s %9s %9s %9s %5s\n", "req", "arrive", "doc",
              "tier", "queue(s)", "TTFT(s)", "quality", "SLO");
  for (const RequestOutcome& o : outcomes) {
    std::string tier_name = o.prefix_hit
                                ? "pfx"
                                : (o.cold_hit ? "cold"
                                              : (o.cache_hit ? "hot" : "miss"));
    if (o.remote_hit) tier_name = "r" + tier_name;  // bytes crossed the fabric
    std::printf("%4llu %9.2f %12s %6s %9.2f %9.2f %9.3f %5s\n",
                static_cast<unsigned long long>(o.request.id),
                o.request.arrival_s, o.request.context_id.c_str(),
                tier_name.c_str(), o.queue_delay_s, o.ttft_s, o.quality,
                o.slo_violated ? "VIOL" : "ok");
  }

  const ClusterSummary s = Summarize(outcomes, tier.get());
  std::printf("\n%s\n", FormatSummary(s).c_str());
  if (store) {
    const auto stats = store->stats();
    std::printf(
        "cache tier: %llu hot hits, %llu cold hits, %llu misses; "
        "%llu demotions, %llu promotions\n",
        static_cast<unsigned long long>(stats.hot_hits),
        static_cast<unsigned long long>(stats.cold_hits),
        static_cast<unsigned long long>(stats.misses),
        static_cast<unsigned long long>(stats.demotions),
        static_cast<unsigned long long>(stats.promotions));
  }
  if (fab) {
    const auto fs = fab->stats();
    std::printf(
        "fabric: %llu local / %llu remote / %llu prefix / %llu miss; "
        "%llu peer fetches (%.1f MB), %llu xnode dedup, max read share %.2f\n",
        static_cast<unsigned long long>(fs.local_hits),
        static_cast<unsigned long long>(fs.remote_hits),
        static_cast<unsigned long long>(fs.prefix_hits),
        static_cast<unsigned long long>(fs.misses),
        static_cast<unsigned long long>(fs.remote_chunk_fetches),
        static_cast<double>(fs.remote_chunk_bytes) / 1e6,
        static_cast<unsigned long long>(fs.xnode_dedup_chunks),
        fs.max_read_share());
  }
  if (pc) {
    const auto ps = pc->stats();
    std::printf("prefix layer: %llu full, %llu partial, %llu miss; "
                "%.1f MB dedup'd, %.1f MB unique\n",
                static_cast<unsigned long long>(ps.full_hits),
                static_cast<unsigned long long>(ps.prefix_hits),
                static_cast<unsigned long long>(ps.misses),
                static_cast<double>(ps.deduped_bytes) / 1e6,
                static_cast<double>(ps.unique_bytes) / 1e6);
  }

  tier->Flush();

  if (!metrics_path.empty()) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Field("schema", "cachegen-metrics-v1");
    w.Field("example", fabric_mode ? "cluster_serving_fabric"
                                   : (prefix_mode ? "cluster_serving_prefix"
                                                  : "cluster_serving"));
    SummaryToJson(s, w);
    obs::AppendMetricsJson(w, obs::MetricsRegistry::Instance().SnapshotAll());
    w.EndObject();
    if (w.WriteFile(metrics_path)) {
      std::printf("wrote metrics to %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n",
                   metrics_path.c_str());
      return 1;
    }
  }
  if (!trace_path.empty()) {
    if (obs::WriteChromeTrace(trace_path)) {
      std::printf("wrote trace to %s (load in ui.perfetto.dev)\n",
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", trace_path.c_str());
      return 1;
    }
  }

  if (http) http->Stop();
  std::filesystem::remove_all(ts.cold_root);
  return 0;
}
