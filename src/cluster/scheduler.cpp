#include "cluster/scheduler.h"

#include <stdexcept>
#include <tuple>

namespace cachegen {

bool AdmitsBefore(SchedulerPolicyKind kind, const ClusterRequest& a,
                  const ClusterRequest& b) {
  switch (kind) {
    case SchedulerPolicyKind::kFifo:
      return std::make_tuple(a.arrival_s, a.id) <
             std::make_tuple(b.arrival_s, b.id);
    case SchedulerPolicyKind::kShortestLoadFirst:
      return std::make_tuple(a.spec.num_tokens, a.arrival_s, a.id) <
             std::make_tuple(b.spec.num_tokens, b.arrival_s, b.id);
    case SchedulerPolicyKind::kSloDeadlineFirst:
      return std::make_tuple(a.arrival_s + a.slo_s, a.id) <
             std::make_tuple(b.arrival_s + b.slo_s, b.id);
  }
  throw std::invalid_argument("unknown scheduler policy");
}

std::string SchedulerPolicyName(SchedulerPolicyKind kind) {
  switch (kind) {
    case SchedulerPolicyKind::kFifo:
      return "fifo";
    case SchedulerPolicyKind::kShortestLoadFirst:
      return "shortest-load-first";
    case SchedulerPolicyKind::kSloDeadlineFirst:
      return "slo-deadline-first";
  }
  throw std::invalid_argument("unknown scheduler policy");
}

}  // namespace cachegen
