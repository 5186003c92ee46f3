// SLO-aware admission policies for the cluster coordinator.
//
// When a worker frees up, the coordinator has a set of queued requests whose
// arrival instants have passed; the policy's ordering decides which one is
// admitted (RequestQueue::PopReady). Three classics, each optimizing a
// different aggregate:
//
//   FIFO                 — fairness / worst-case queueing delay.
//   ShortestLoadFirst    — mean TTFT: admit the request with the least KV
//                          bytes to move (SJF on estimated link work).
//   SloDeadlineFirst     — SLO-violation rate: earliest deadline first on
//                          arrival + SLO budget.
#pragma once

#include <string>

#include "cluster/request_queue.h"

namespace cachegen {

enum class SchedulerPolicyKind {
  kFifo,
  kShortestLoadFirst,
  kSloDeadlineFirst,
};

// Whether `kind` admits `a` before `b`. Every policy's key ends in the
// request id, so this is a strict total order over a trace.
bool AdmitsBefore(SchedulerPolicyKind kind, const ClusterRequest& a,
                  const ClusterRequest& b);

std::string SchedulerPolicyName(SchedulerPolicyKind kind);

}  // namespace cachegen
