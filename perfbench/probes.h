// The traced run's probe phase: after the traced serve, replay the
// workload's own inputs (its contexts, request ids, token sequences and
// served byte counts) through each module's public functions and time them
// in isolation — the per-layer wall costs the serve itself cannot separate.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "workloads.h"

namespace cachegen::perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct ProbeResult {
  std::vector<Metric> metrics;
  std::string failure;  // empty when every probe's output checked out
};

// `scratch` is a private directory the FileKVStore probe may write under.
ProbeResult RunProbes(Deployment& d, const std::vector<ClusterRequest>& trace,
                      const std::vector<RequestOutcome>& outcomes,
                      const std::filesystem::path& scratch);

}  // namespace cachegen::perfbench
