#include "cluster/request_queue.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cluster/scheduler.h"
#include "common/rng.h"

namespace cachegen {

ContextSpec PoolContextSpec(const RequestTraceOptions& opts, size_t pool_index) {
  // Context identity (seed) and length are functions of the pool index and
  // trace seed only, so pre-storing the pool and replaying the trace agree.
  SplitMix64 mix(opts.seed ^ (0xC0DE5EEDULL + pool_index * 0x9E3779B97F4A7C15ULL));
  ContextSpec spec;
  spec.seed = mix.Next();
  const uint64_t span = opts.max_tokens > opts.min_tokens
                            ? opts.max_tokens - opts.min_tokens + 1
                            : 1;
  spec.num_tokens = opts.min_tokens + static_cast<size_t>(mix.Next() % span);
  return spec;
}

std::string PoolContextId(size_t pool_index) {
  return "ctx-" + std::to_string(pool_index);
}

std::vector<ClusterRequest> PoissonTrace(const RequestTraceOptions& opts) {
  if (opts.num_requests == 0 || opts.num_contexts == 0 ||
      opts.arrival_rate_hz <= 0.0) {
    throw std::invalid_argument("PoissonTrace: degenerate options");
  }
  Rng rng(opts.seed);

  // Zipf CDF over the context pool.
  std::vector<double> cdf(opts.num_contexts);
  double mass = 0.0;
  for (size_t i = 0; i < opts.num_contexts; ++i) {
    mass += 1.0 / std::pow(static_cast<double>(i + 1), opts.zipf_exponent);
    cdf[i] = mass;
  }
  for (double& c : cdf) c /= mass;

  std::vector<ClusterRequest> trace;
  trace.reserve(opts.num_requests);
  double t = 0.0;
  for (size_t i = 0; i < opts.num_requests; ++i) {
    // Exponential inter-arrival.
    t += -std::log(1.0 - rng.NextDouble()) / opts.arrival_rate_hz;
    const double u = rng.NextDouble();
    const size_t pool = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    ClusterRequest rq;
    rq.id = i;
    rq.arrival_s = t;
    rq.context_id = PoolContextId(pool);
    rq.spec = PoolContextSpec(opts, pool);
    rq.slo_s = opts.slo_s;
    trace.push_back(std::move(rq));
  }
  return trace;
}

RequestQueue::RequestQueue(std::vector<ClusterRequest> trace)
    : requests_(std::move(trace)) {
  std::sort(requests_.begin(), requests_.end(),
            [](const ClusterRequest& a, const ClusterRequest& b) {
              return std::make_pair(a.arrival_s, a.id) <
                     std::make_pair(b.arrival_s, b.id);
            });
  admitted_.assign(requests_.size(), false);
  remaining_ = requests_.size();
}

double RequestQueue::NextArrival() const {
  for (size_t i = first_unadmitted_; i < requests_.size(); ++i) {
    if (!admitted_[i]) return requests_[i].arrival_s;
  }
  throw std::logic_error("RequestQueue::NextArrival on empty queue");
}

ClusterRequest RequestQueue::PopReady(SchedulerPolicyKind kind, double t_s) {
  size_t pick = requests_.size();
  for (size_t i = first_unadmitted_; i < requests_.size(); ++i) {
    if (admitted_[i]) continue;
    if (requests_[i].arrival_s > t_s) break;  // sorted by arrival
    if (pick == requests_.size() ||
        AdmitsBefore(kind, requests_[i], requests_[pick])) {
      pick = i;
    }
  }
  if (pick == requests_.size()) {
    throw std::logic_error("RequestQueue::PopReady: no eligible request");
  }
  admitted_[pick] = true;
  --remaining_;
  while (first_unadmitted_ < requests_.size() && admitted_[first_unadmitted_]) {
    ++first_unadmitted_;
  }
  return requests_[pick];
}

}  // namespace cachegen
