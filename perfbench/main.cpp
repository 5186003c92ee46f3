// cachegen_bench: one workload of the shared benchmark, end to end.
//
//   cachegen_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --scratch DIR
//
// --trace 0 (end-to-end): repeat {set up a fresh serving stack, serve the
// workload's trace} until --seconds have passed (at least 3 times), and
// report the end-to-end metrics: medians of the wall-clock ones, the
// virtual-time ones of the trace (identical on every repetition — checked).
//
// --trace 1 (per-layer): alternate untraced and traced repetitions; the
// traced one records every storage call through the TracingTier and is
// followed once by the probe phase. Reports the per-layer metrics.
//
// Every run checks its outputs: every request served, a SHA-256 outcome
// digest equal across repetitions (and between traced and untraced serves),
// hot-decode's virtual-time outcomes equal to a decode-free serve of the same
// trace, stored chunks readable after the serve, and each probe's output.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "probes.h"
#include "workloads.h"

namespace cachegen::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 25;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// A "<key>: <value> kB" line of /proc/self/status, or -1.
long ProcStatus(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return -1;
  char line[256];
  long value = -1;
  const size_t klen = std::strlen(key);
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, key, klen) == 0 && line[klen] == ':') {
      value = std::strtol(line + klen + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

// Samples the process thread count until stopped; keeps the peak.
class ThreadPeakSampler {
 public:
  ThreadPeakSampler()
      : thread_([this] {
          while (!stop_.load(std::memory_order_relaxed)) {
            peak_ = std::max(peak_.load(), ProcStatus("Threads"));
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }) {}
  ThreadPeakSampler(const ThreadPeakSampler&) = delete;
  ThreadPeakSampler& operator=(const ThreadPeakSampler&) = delete;
  ~ThreadPeakSampler() { Stop(); }
  long Stop() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_relaxed);
      thread_.join();
    }
    return peak_.load();
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<long> peak_{0};
  std::thread thread_;
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path scratch;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc % 2 == 0) return false;  // flags come in --name value pairs
  bool have_workload = false, have_seed = false, have_scratch = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--scratch") {
      a->scratch = v;
      have_scratch = true;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_scratch && a->seconds > 0.0;
}

// One repetition: fresh stack, one serve of the trace, its checks.
struct Rep {
  bool traced = false;
  double setup_s = 0.0;
  double serve_s = 0.0;
  std::vector<RequestOutcome> outcomes;
  std::string digest;
  size_t failed = 0;
  uint64_t stored_bytes = 0;
  std::optional<CacheFabric::Stats> fabric;
  std::array<OpStats, static_cast<size_t>(StorageOp::kCount)> ops{};
  double covered_frac = 0.0;
  CodecCalibration calibration;
  std::optional<ProbeResult> probes;
  std::string failure;  // first failed check, empty when all passed
};

Rep RunRep(const WorkloadSpec& w, const std::vector<ClusterRequest>& trace,
           const std::filesystem::path& dir, bool traced, bool probes) {
  Rep rep;
  rep.traced = traced;
  std::filesystem::create_directories(dir);
  {
    Deployment d(w, dir / "cold", traced);
    rep.setup_s = d.setup_s();
    const auto t0 = Clock::now();
    rep.outcomes = d.server().Serve(trace);
    rep.serve_s = std::chrono::duration<double>(Clock::now() - t0).count();
    rep.stored_bytes = d.tier().TotalBytes();
    if (d.fabric()) rep.fabric = d.fabric()->stats();
    rep.digest = OutcomeDigest(rep.outcomes);
    rep.failed = FailedRequests(trace, rep.outcomes);
    rep.failure = ReadBackCheck(d, trace);
    d.tier().set_recording(false);
    if (traced) {
      for (size_t i = 0; i < rep.ops.size(); ++i) {
        rep.ops[i] = d.tier().Stats(static_cast<StorageOp>(i));
      }
      rep.covered_frac = d.tier().PreStoreCoveredFrac();
      rep.calibration = d.engine().calibration();
    }
    if (w.kind == WorkloadKind::kHotDecode) {
      const auto plain = d.MakeVirtualOnlyServer()->Serve(trace);
      if (OutcomeDigest(plain) != rep.digest && rep.failure.empty()) {
        rep.failure = "hot-decode outcomes differ from a decode-free serve";
      }
    }
    if (probes) {
      const auto p0 = Clock::now();
      rep.probes = RunProbes(d, trace, rep.outcomes, dir);
      std::printf("probe phase: %.3f s\n",
                  std::chrono::duration<double>(Clock::now() - p0).count());
      if (!rep.probes->failure.empty() && rep.failure.empty()) {
        rep.failure = "probe: " + rep.probes->failure;
      }
    }
  }
  std::filesystem::remove_all(dir);
  return rep;
}

void PrintJson(bool correct, size_t attempted, size_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: cachegen_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --scratch DIR\n");
    return 2;
  }
  const std::optional<WorkloadSpec> spec =
      MakeWorkload(args.workload, args.seed);
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s' (hot-stream, hot-decode, "
                 "prefix-writeback)\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& w = *spec;
  // Before anything creates the process-wide codec pool.
  setenv("CACHEGEN_THREADS", std::to_string(w.codec_threads).c_str(), 1);
  std::printf("workload %s: seed %llu, %zu requests per serve, %zu cluster "
              "workers, CACHEGEN_THREADS=%u, tail percentile p%g, trace %d\n",
              w.name.c_str(), static_cast<unsigned long long>(w.seed),
              w.requests, w.workers, w.codec_threads, w.tail_pct,
              args.trace ? 1 : 0);

  ThreadPeakSampler threads;
  const auto start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const std::vector<ClusterRequest> trace = MakeTrace(w);

  std::vector<Rep> reps;
  while (reps.size() < kMaxReps) {
    const bool traced = args.trace && reps.size() % 2 == 1;
    const bool probes = traced && reps.size() == 1;
    reps.push_back(RunRep(w, trace, args.scratch / ("rep" + std::to_string(reps.size())),
                          traced, probes));
    const Rep& r = reps.back();
    std::printf("rep %zu%s: setup %.3f s, serve %.3f s (%.1f req/s), digest "
                "%.16s, failed %zu%s%s\n",
                reps.size() - 1, r.traced ? " (traced)" : "", r.setup_s,
                r.serve_s, static_cast<double>(trace.size()) / r.serve_s,
                r.digest.c_str(), r.failed, r.failure.empty() ? "" : ", FAIL: ",
                r.failure.c_str());
    const size_t min_reps = args.trace ? 2 : kMinReps;
    const bool pair_done = !args.trace || reps.size() % 2 == 0;
    if (reps.size() >= min_reps && pair_done && elapsed() >= args.seconds) break;
  }
  const long peak_threads = threads.Stop();
  const double peak_rss_mb = static_cast<double>(ProcStatus("VmHWM")) / 1024.0;

  // --- checks -----------------------------------------------------------------
  std::string failure;
  size_t attempted = 0, failed = 0;
  for (const Rep& r : reps) {
    attempted += trace.size();
    failed += r.failed;
    if (failure.empty() && !r.failure.empty()) failure = r.failure;
    if (failure.empty() && r.digest != reps.front().digest) {
      failure = "outcome digest differs between repetitions (traced vs "
                "untraced, or run to run)";
    }
  }
  const VirtualMetrics vm =
      ComputeVirtual(w, reps.front().outcomes, trace.size(), reps.front().failed);
  if (failure.empty() && failed > 0) failure = "requests not served";
  if (failure.empty()) {
    if (w.kind == WorkloadKind::kPrefixWriteback) {
      if (!(vm.miss_frac > 0.0 && vm.hit_frac + vm.prefix_frac > 0.0)) {
        failure = "prefix-writeback saw no misses or no hits";
      }
    } else if (vm.hit_frac != 1.0) {
      failure = "a hot-workload request missed the prestored cache";
    }
  }
  if (!failure.empty()) std::printf("CHECK FAILED: %s\n", failure.c_str());

  // --- metrics ----------------------------------------------------------------
  std::vector<double> setup, rps, rps_traced, stored;
  for (const Rep& r : reps) {
    setup.push_back(r.setup_s);
    stored.push_back(static_cast<double>(r.stored_bytes) / 1e6);
    (r.traced ? rps_traced : rps)
        .push_back(static_cast<double>(trace.size()) / r.serve_s);
  }
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup), "s"},
        {"req_per_s", Median(rps), "1/s"},
        {"ttft_p50_s", vm.ttft_p50_s, "s"},
        {"ttft_tail_s", vm.ttft_tail_s, "s"},
        {"slo_violation_rate", vm.slo_violation_rate, "frac"},
        {"mean_quality", vm.mean_quality, "frac"},
        {"wire_mb_per_req", vm.wire_mb_per_req, "MB"},
        {"stored_mb", Median(stored), "MB"},
        {"served_frac",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted), "frac"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    std::printf("ttft_tail_s is p%g with %zu of %zu samples beyond it\n",
                w.tail_pct, vm.tail_beyond, trace.size());
  } else {
    const Rep& t = reps[1];
    metrics = {
        {"cluster.queue_delay_p50_s", vm.queue_delay_p50_s, "s"},
        {"cluster.load_p50_s", vm.load_p50_s, "s"},
        {"cluster.hit_frac", vm.hit_frac, "frac"},
        {"cluster.prefix_frac", vm.prefix_frac, "frac"},
        {"cluster.cold_frac", vm.cold_frac, "frac"},
        {"cluster.remote_frac", vm.remote_frac, "frac"},
        {"cluster.miss_frac", vm.miss_frac, "frac"},
    };
    const char* op_names[] = {"storage.lookup", "storage.get", "storage.put_batch",
                              "storage.unpin"};
    for (size_t i = 0; i < t.ops.size(); ++i) {
      const OpStats& s = t.ops[i];
      const std::string n = op_names[i];
      metrics.push_back({n + ".calls", static_cast<double>(s.calls), "count"});
      metrics.push_back({n + ".busy_s", s.busy_s, "s"});
      metrics.push_back({n + ".p99_us", s.p99_us, "us"});
      const auto op = static_cast<StorageOp>(i);
      if (op == StorageOp::kGet || op == StorageOp::kPutBatch) {
        metrics.push_back({n + ".mb", static_cast<double>(s.bytes) / 1e6, "MB"});
      }
    }
    metrics.push_back({"storage.precoverage_covered_frac", t.covered_frac, "frac"});
    const CacheFabric::Stats fs = t.fabric.value_or(CacheFabric::Stats{});
    metrics.push_back({"fabric.remote_chunk_fetches",
                       static_cast<double>(fs.remote_chunk_fetches), "count"});
    metrics.push_back({"fabric.xnode_dedup_chunks",
                       static_cast<double>(fs.xnode_dedup_chunks), "count"});
    metrics.push_back({"fabric.max_read_share", fs.max_read_share(), "frac"});
    if (t.probes) {
      for (const Metric& m : t.probes->metrics) metrics.push_back(m);
    }
    const CodecCalibration& c = t.calibration;
    for (size_t i = 0; i < c.bytes_per_token_per_level.size(); ++i) {
      metrics.push_back({"codec.bytes_per_token.l" + std::to_string(i),
                         c.bytes_per_token_per_level[i], "B"});
      metrics.push_back({"codec.quality.l" + std::to_string(i),
                         c.quality_per_level[i], "frac"});
    }
    metrics.push_back({"trace_overhead_frac", 1.0 - Median(rps_traced) / Median(rps),
                       "frac"});
    metrics.push_back({"process.peak_threads", static_cast<double>(peak_threads),
                       "count"});
  }
  for (const Metric& m : metrics) {
    std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!std::isfinite(m.value) && failure.empty()) {
      failure = m.name + " is not a finite number";
    }
  }
  PrintJson(failure.empty(), attempted, failed, metrics);
  return failure.empty() ? 0 : 1;
}

}  // namespace
}  // namespace cachegen::perfbench

int main(int argc, char** argv) {
  try {
    return cachegen::perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cachegen_bench: %s\n", e.what());
    return 1;
  }
}
