// Observability overhead: what does the obs layer cost the serving path?
//
// Three measurements:
//   * macro path  — ns/site micro-benchmarks of the always-on metric macros
//     (counter add, histogram record) and of a CG_TRACE_* site with the
//     tracer runtime-disabled (one relaxed atomic load + branch). These are
//     the costs every request pays whether or not anyone is tracing.
//   * cluster     — wall time of the same ClusterServer::Serve run (real
//     codec encode/decode via assemble_kv + write-backs) with tracing
//     disabled vs enabled, interleaved min-of-k so machine noise cancels.
//   * telemetry   — the same run with the continuous-telemetry stack on
//     (virtual-time sampler + burn-rate monitor, tracing off): its overhead
//     shares the 3% budget, and its time-series JSON must be byte-identical
//     across two fresh runs (the sampler is a pure function of the workload).
//
// Emits machine-readable JSON (default BENCH_obs_overhead.json) so CI can
// archive the trajectory.
//
// Flags:
//   --quick       small run + loud assertions (CI gate): enabled-tracing and
//                 enabled-telemetry cluster overheads must each stay under
//                 3%, the sampler must be bit-deterministic, and the
//                 disabled macro path under a per-site ns budget (~0% in any
//                 real request's time).
//   --out PATH    JSON output path.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster_server.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/sharded_kv_store.h"

namespace cachegen {
namespace {

// Per-site budgets for the always-on / runtime-disabled paths. Generous next
// to the ~2-6 ns these measure on an idle machine, tight next to the ~µs+ a
// real instrumented operation (codec chunk, storage op) takes.
constexpr double kMacroBudgetNs = 25.0;
constexpr double kHistBudgetNs = 50.0;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ns per iteration of `body` over `iters` runs.
template <typename Fn>
double MicroNs(size_t iters, Fn&& body) {
  const double t0 = NowS();
  for (size_t i = 0; i < iters; ++i) body(i);
  return (NowS() - t0) * 1e9 / static_cast<double>(iters);
}

RequestTraceOptions TraceOpts(bool quick) {
  RequestTraceOptions topts;
  topts.num_requests = quick ? 12 : 32;
  topts.arrival_rate_hz = 4.0;
  topts.num_contexts = 4;
  topts.min_tokens = 1500;
  topts.max_tokens = 3000;
  topts.slo_s = 2.5;
  topts.seed = 0x0B5E;
  return topts;
}

// One full cluster run (fresh store so every rep does identical work);
// returns the wall seconds spent inside Serve(). With `telemetry`, the
// virtual-time sampler + SLO monitor run (tracing stays as asked) and the
// resulting time-series JSON is appended to *timeseries_json when non-null.
double TimedServe(const RequestTraceOptions& topts, bool tracing,
                  bool telemetry = false,
                  std::string* timeseries_json = nullptr) {
  auto store = std::make_shared<ShardedKVStore>(
      ShardedKVStore::Options{.num_shards = 2, .capacity_bytes = 0});
  Engine engine(bench::FastEngineOptions("mistral-7b"), store);
  ClusterServer::Options copts;
  copts.num_workers = 4;
  copts.assemble_kv = true;  // hits really decode their delivered bitstreams
  copts.write_back_on_miss = true;
  if (telemetry) copts.telemetry.sample_period_s = 0.25;
  ClusterServer server(engine, store, BandwidthTrace::Constant(3.0), copts);
  server.Prestore(topts);

  obs::Tracer::Instance().Clear();
  obs::MetricsRegistry::Instance().ResetAll();
  obs::Tracer::Instance().SetEnabled(tracing);
  const double t0 = NowS();
  const auto outcomes = server.Serve(PoissonTrace(topts));
  const double elapsed = NowS() - t0;
  obs::Tracer::Instance().SetEnabled(false);
  if (outcomes.size() != topts.num_requests) {
    std::fprintf(stderr, "FAIL: served %zu of %zu requests\n", outcomes.size(),
                 topts.num_requests);
    std::exit(1);
  }
  // Sanity: the switch actually switched.
#ifndef CACHEGEN_OBS_DISABLED
  const size_t events = obs::Tracer::Instance().Snapshot().size();
  if (tracing && events == 0) {
    std::fprintf(stderr, "FAIL: tracing enabled but no events recorded\n");
    std::exit(1);
  }
  if (!tracing && events != 0) {
    std::fprintf(stderr, "FAIL: tracing disabled but %zu events recorded\n",
                 events);
    std::exit(1);
  }
#endif
  if (telemetry) {
    const obs::TimeSeriesCollector* series = server.timeseries();
    if (series == nullptr || series->windows().empty()) {
      std::fprintf(stderr, "FAIL: telemetry enabled but no windows sampled\n");
      std::exit(1);
    }
    if (timeseries_json != nullptr) {
      obs::JsonWriter w;
      w.BeginObject();
      series->ToJson(w);
      w.EndObject();
      *timeseries_json = w.str();
    }
  }
  return elapsed;
}

}  // namespace
}  // namespace cachegen

int main(int argc, char** argv) {
  using namespace cachegen;

  bool quick = false;
  std::string out_path = "BENCH_obs_overhead.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  bench::PrintHeader(
      "Observability overhead: disabled macro path + tracing on/off cluster",
      quick ? "quick run (CI gate)" : "full run");

  // ---- macro-path micro-benchmarks (tracer runtime-disabled) -------------
  obs::Tracer::Instance().SetEnabled(false);
  const size_t iters = quick ? (1u << 21) : (1u << 23);
  // Warm up the per-site static registrations outside the timed loops.
  CG_METRIC_COUNT("bench.obs.micro_count", 0);
  CG_METRIC_HIST("bench.obs.micro_hist", 1);
  CG_TRACE_INSTANT("bench", "micro_off");

  const double counter_ns =
      MicroNs(iters, [](size_t) { CG_METRIC_COUNT("bench.obs.micro_count", 1); });
  const double hist_ns = MicroNs(iters, []([[maybe_unused]] size_t i) {
    CG_METRIC_HIST("bench.obs.micro_hist", i);
  });
  const double trace_off_ns =
      MicroNs(iters, [](size_t) { CG_TRACE_INSTANT("bench", "micro_off"); });

  std::printf("macro path (%zu iters/site):\n", iters);
  std::printf("  counter add            %6.2f ns/site\n", counter_ns);
  std::printf("  histogram record       %6.2f ns/site\n", hist_ns);
  std::printf("  trace site (disabled)  %6.2f ns/site\n", trace_off_ns);

  // ---- cluster serve, tracing off vs on, interleaved min-of-k ------------
  const RequestTraceOptions topts = TraceOpts(quick);
  const size_t reps = quick ? 5 : 7;
  // Untimed warm-up: first serve pays one-time costs (thread-pool spin-up,
  // allocator warm, calibration caches) that would otherwise land on
  // whichever mode runs first.
  TimedServe(topts, /*tracing=*/false);
  std::vector<double> off_s, on_s, telem_s;
  for (size_t r = 0; r < reps; ++r) {
    off_s.push_back(TimedServe(topts, /*tracing=*/false));
    on_s.push_back(TimedServe(topts, /*tracing=*/true));
    telem_s.push_back(
        TimedServe(topts, /*tracing=*/false, /*telemetry=*/true));
  }
  const double off_min = *std::min_element(off_s.begin(), off_s.end());
  const double on_min = *std::min_element(on_s.begin(), on_s.end());
  const double telem_min = *std::min_element(telem_s.begin(), telem_s.end());
  const double overhead = on_min / off_min - 1.0;
  const double telem_overhead = telem_min / off_min - 1.0;

  std::printf("\ncluster serve (%zu requests, min of %zu):\n",
              topts.num_requests, reps);
  std::printf("  tracing off    %.3f s\n", off_min);
  std::printf("  tracing on     %.3f s  (%+.2f%%)\n", on_min,
              100.0 * overhead);
  std::printf("  telemetry on   %.3f s  (%+.2f%%)\n", telem_min,
              100.0 * telem_overhead);

  // ---- sampler determinism: two fresh runs, byte-identical series --------
  std::string series_a, series_b;
  TimedServe(topts, /*tracing=*/false, /*telemetry=*/true, &series_a);
  TimedServe(topts, /*tracing=*/false, /*telemetry=*/true, &series_b);
  const bool series_deterministic = !series_a.empty() && series_a == series_b;
  std::printf("  time-series JSON: %zu bytes, replay %s\n", series_a.size(),
              series_deterministic ? "byte-identical" : "DIVERGED");

  // ---- machine-readable JSON --------------------------------------------
  {
    obs::JsonWriter w;
    w.BeginObject();
    w.Field("bench", "obs_overhead");
    w.Field("quick", quick);
    w.Field("micro_iters", static_cast<uint64_t>(iters));
    w.Field("counter_ns_per_site", counter_ns, 3);
    w.Field("histogram_ns_per_site", hist_ns, 3);
    w.Field("trace_disabled_ns_per_site", trace_off_ns, 3);
    w.Field("serve_requests", static_cast<uint64_t>(topts.num_requests));
    w.Field("serve_reps", static_cast<uint64_t>(reps));
    w.BeginArray("serve_off_s");
    for (double v : off_s) w.Value(v, 4);
    w.EndArray();
    w.BeginArray("serve_on_s");
    for (double v : on_s) w.Value(v, 4);
    w.EndArray();
    w.BeginArray("serve_telemetry_s");
    for (double v : telem_s) w.Value(v, 4);
    w.EndArray();
    w.Field("serve_off_min_s", off_min, 4);
    w.Field("serve_on_min_s", on_min, 4);
    w.Field("serve_telemetry_min_s", telem_min, 4);
    w.Field("tracing_overhead_frac", overhead, 5);
    w.Field("telemetry_overhead_frac", telem_overhead, 5);
    w.Field("timeseries_bytes", static_cast<uint64_t>(series_a.size()));
    w.Field("timeseries_deterministic", series_deterministic);
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
    if (counter_ns > kMacroBudgetNs) {
      std::fprintf(stderr, "FAIL: counter add %.2f ns/site > %.0f ns budget\n",
                   counter_ns, kMacroBudgetNs);
      ok = false;
    }
    if (hist_ns > kHistBudgetNs) {
      std::fprintf(stderr,
                   "FAIL: histogram record %.2f ns/site > %.0f ns budget\n",
                   hist_ns, kHistBudgetNs);
      ok = false;
    }
    if (trace_off_ns > kMacroBudgetNs) {
      std::fprintf(stderr,
                   "FAIL: disabled trace site %.2f ns/site > %.0f ns budget\n",
                   trace_off_ns, kMacroBudgetNs);
      ok = false;
    }
    if (overhead > 0.03) {
      std::fprintf(stderr,
                   "FAIL: tracing-enabled cluster overhead %.2f%% > 3%%\n",
                   100.0 * overhead);
      ok = false;
    }
    if (telem_overhead > 0.03) {
      std::fprintf(stderr,
                   "FAIL: telemetry-enabled cluster overhead %.2f%% > 3%%\n",
                   100.0 * telem_overhead);
      ok = false;
    }
    if (!series_deterministic) {
      std::fprintf(stderr,
                   "FAIL: time-series JSON diverged across replays "
                   "(%zu vs %zu bytes)\n",
                   series_a.size(), series_b.size());
      ok = false;
    }
    if (!ok) return 1;
    std::printf("quick gate: OK (tracing %+.2f%%, telemetry %+.2f%%, "
                "sampler deterministic, macro sites %.1f/%.1f/%.1f ns)\n",
                100.0 * overhead, 100.0 * telem_overhead, counter_ns, hist_ns,
                trace_off_ns);
  }
  return 0;
}
