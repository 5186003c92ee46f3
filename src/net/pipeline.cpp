#include "net/pipeline.h"

#include <algorithm>
#include <stdexcept>

namespace cachegen {

std::vector<double> PipelineTimeline(std::span<const double> ready_s,
                                     std::span<const double> work_s,
                                     double start_s) {
  if (ready_s.size() != work_s.size()) {
    throw std::invalid_argument("PipelineTimeline: length mismatch");
  }
  std::vector<double> done(ready_s.size());
  double prev = start_s;
  for (size_t i = 0; i < ready_s.size(); ++i) {
    prev = std::max(ready_s[i], prev) + work_s[i];
    done[i] = prev;
  }
  return done;
}

}  // namespace cachegen
