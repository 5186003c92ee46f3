// The benchmark's three serving workloads and the freshly set-up serving
// stack ("deployment") one repetition of a workload runs on.
//
//   hot-stream        Poisson arrivals over 4 prestored Zipf contexts; every
//                     request is a hot hit and only the control plane works
//                     (event loop, SharedLink, streamer, scheduler).
//   hot-decode        the same trace shape with assemble_kv on: every hit
//                     fetches, parses and decodes its chunk bitstreams.
//   prefix-writeback  shared-prefix families through a 4-node CacheFabric of
//                     PrefixCache-over-TieredKVStore nodes, write-back on:
//                     misses pay Engine::StoreKV, hits pay radix lookup, cold
//                     promotion and peer chunk fetch.
//
// Arrivals are open-loop in virtual time; the whole trace is handed to
// ClusterServer::Serve at once, so TTFT counts from each request's scheduled
// arrival and any backlog shows up as queue delay.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_server.h"
#include "fabric/cache_fabric.h"
#include "serving/engine.h"
#include "tracing_tier.h"

namespace cachegen::perfbench {

enum class WorkloadKind { kHotStream, kHotDecode, kPrefixWriteback };

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kHotStream;
  std::string name;
  size_t requests = 0;  // per Serve
  uint64_t seed = 0;    // trace seed (the --seed argument)
  // Cluster workers and codec-pool executors (CACHEGEN_THREADS), chosen so
  // workers + pool - 1 <= 4 threads are ever runnable (the pool's calling
  // thread is a worker).
  size_t workers = 4;
  unsigned codec_threads = 1;
  // Percentile reported as ttft_tail_s: the highest of p99.9/p99/p95/p90
  // that leaves at least 10 samples beyond it at `requests` (fixed per
  // workload because `requests` is).
  double tail_pct = 0.0;
};

// nullopt for an unknown name.
std::optional<WorkloadSpec> MakeWorkload(const std::string& name, uint64_t seed);

// Capacity of the shared storage-to-GPU link, every workload.
constexpr double kLinkGbps = 3.0;

// The workload's request trace (a pure function of the spec).
std::vector<ClusterRequest> MakeTrace(const WorkloadSpec& w);

// One serving stack built from scratch: tier arrangement wrapped in a
// TracingTier, an Engine on the decorator, the ClusterServer, and the
// prestored working set of the hot workloads. Construction is the set-up the
// benchmark times. `cold_root` must be a fresh directory (prefix-writeback
// puts the fabric's cold tiers under it).
class Deployment {
 public:
  Deployment(const WorkloadSpec& w, const std::filesystem::path& cold_root,
             bool record);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const WorkloadSpec& spec() const { return spec_; }
  double setup_s() const { return setup_s_; }
  Engine& engine() { return *engine_; }
  TracingTier& tier() { return *tier_; }
  ClusterServer& server() { return *server_; }
  // Null unless the arrangement is a CacheFabric.
  const CacheFabric* fabric() const { return fabric_.get(); }

  // A second server on the same engine and tier with assemble_kv off — the
  // hot-decode check that decoding leaves every virtual-time outcome alone.
  std::unique_ptr<ClusterServer> MakeVirtualOnlyServer();

 private:
  ClusterServer::Options ServerOptions() const;

  WorkloadSpec spec_;
  std::shared_ptr<CacheFabric> fabric_;
  std::shared_ptr<TracingTier> tier_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<ClusterServer> server_;
  double setup_s_ = 0.0;
};

// SHA-256 over every outcome's (id, ttft, finish, scenario flags, covered
// tokens, quality, bytes), hex.
std::string OutcomeDigest(const std::vector<RequestOutcome>& outcomes);

// Requests of `trace` that did not come back served: missing or duplicated
// outcome ids, or a failed write-back.
size_t FailedRequests(const std::vector<ClusterRequest>& trace,
                      const std::vector<RequestOutcome>& outcomes);

// Virtual-time end-to-end numbers of one Serve.
struct VirtualMetrics {
  double ttft_p50_s = 0.0;
  double ttft_tail_s = 0.0;
  size_t tail_beyond = 0;  // samples above the tail percentile
  double slo_violation_rate = 0.0;  // failed requests count as violations
  double mean_quality = 0.0;
  double wire_mb_per_req = 0.0;
  double queue_delay_p50_s = 0.0;
  double load_p50_s = 0.0;
  // Scenario shares over served requests.
  double hit_frac = 0.0, prefix_frac = 0.0, cold_frac = 0.0,
         remote_frac = 0.0, miss_frac = 0.0;
};
VirtualMetrics ComputeVirtual(const WorkloadSpec& w,
                              const std::vector<RequestOutcome>& outcomes,
                              size_t attempted, size_t failed);

// Read-back check after a serve: chunk 0 of the first few distinct stored
// contexts of the trace parses at every level through Engine::GetKV.
// Returns an empty string on success, else what failed.
std::string ReadBackCheck(Deployment& d, const std::vector<ClusterRequest>& trace);

}  // namespace cachegen::perfbench
