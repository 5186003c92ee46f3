// Cluster request model and admission queue.
//
// A ClusterRequest is one user query against a stored context: it arrives at
// a wall-clock instant, names the context whose KV cache it needs, and
// carries its own SLO on the KV loading delay (TTFT minus the final prompt
// pass, paper footnote 4). Traces are either replayed verbatim or sampled:
// Poisson arrivals over a Zipf-popular context pool — the canonical serving
// workload (hot documents get most queries, which is what makes a bounded
// KV cache tier effective at all).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "llm/synthetic_model.h"

namespace cachegen {

struct ClusterRequest {
  uint64_t id = 0;            // dense index, assigned by the trace
  double arrival_s = 0.0;
  std::string context_id;
  ContextSpec spec;           // seed + token count of the referenced context
  double slo_s = 0.0;         // KV-load SLO; <= 0 means "use the server default"
};

struct RequestTraceOptions {
  size_t num_requests = 32;
  double arrival_rate_hz = 2.0;   // Poisson arrival intensity
  size_t num_contexts = 8;        // distinct contexts in the pool
  double zipf_exponent = 0.9;     // popularity skew across the pool
  size_t min_tokens = 1500;
  size_t max_tokens = 6000;
  double slo_s = 2.0;
  uint64_t seed = 0x715C;
};

// The context a pool index maps to (shared by trace generation and callers
// that want to pre-store the working set).
ContextSpec PoolContextSpec(const RequestTraceOptions& opts, size_t pool_index);
std::string PoolContextId(size_t pool_index);

// Poisson arrivals, Zipf context popularity; deterministic in opts.seed.
// Requests come back sorted by arrival with dense ids 0..n-1.
std::vector<ClusterRequest> PoissonTrace(const RequestTraceOptions& opts);

enum class SchedulerPolicyKind;

// Pending-request pool the coordinator admits from: requests become eligible
// once their arrival instant has been reached; the scheduler policy's
// ordering picks among eligible ones.
class RequestQueue {
 public:
  explicit RequestQueue(std::vector<ClusterRequest> trace);

  bool Empty() const { return remaining_ == 0; }

  // Earliest arrival among unadmitted requests. Only valid when !Empty().
  double NextArrival() const;

  // Remove and return the request `kind` admits first (AdmitsBefore) among
  // requests with arrival <= t_s (guaranteed non-empty when
  // t_s >= NextArrival()).
  ClusterRequest PopReady(SchedulerPolicyKind kind, double t_s);

 private:
  std::vector<ClusterRequest> requests_;  // sorted by (arrival, id)
  std::vector<bool> admitted_;
  size_t remaining_ = 0;
  size_t first_unadmitted_ = 0;  // index lower bound for scanning
};

}  // namespace cachegen
