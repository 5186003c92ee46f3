// SharedLink: one physical path, many concurrent KV streams.
//
// The single-request substrate models the network as a private Link whose
// clock only this request advances. A serving cluster breaks that: N
// in-flight requests share the storage-to-GPU path, and each one's chunk
// transfers slow down by exactly the bandwidth the others are using (the
// paper's Fig. 12/13 regime). SharedLink simulates that contention as a
// fluid max-min flow model in *virtual time*, while the per-request code —
// the unmodified KVStreamer — runs on real worker threads:
//
//   * Each request registers a Flow; its ClientLink (a Link subclass) turns
//     KVStreamer's Send() calls into Transfer() calls on the arbiter.
//   * Aggregate capacity comes from a BandwidthTrace; at any virtual instant
//     each of the n flows with a pending transfer receives capacity / n
//     (max-min fair sharing: every flow has the same claim on the path).
//   * Virtual time advances only when every registered flow is parked in
//     Transfer()/WaitUntil()/DrainGpu() — a conservative barrier that makes
//     the simulation deterministic regardless of OS thread scheduling.
//   * Admission holds cap virtual time so the cluster coordinator can admit
//     a request at virtual instant t before other flows stream past t.
//
// The completion channel (CompleteFlow / PopCompletion) closes the loop with
// the coordinator: a finishing worker atomically {queues its completion,
// holds time at its finish instant, removes its flow}, and PopCompletion
// releases completions in virtual-time order — so scheduling decisions
// depend only on simulated timestamps, never on thread races.
//
// GPU accounting (per-event shares). The GPU is modelled like the link: a
// shared resource whose per-request share changes at every admission and
// completion instant, not a constant frozen at admission. The arbiter keeps
//   * a ledger of in-flight deltas (+1 at each HoldAdmission instant, -1 at
//     each CompleteFlow instant), and
//   * one FIFO *lane* of GPU work items per flow (PostGpuWork). An item has
//     a constant part (per-call overhead, drains at rate 1) and a shared
//     part (compute, drains at rate share(t) = 1 / max(1, in_flight(t))).
// The cluster's worker count never caps the share: a worker slot holds at
// most one request between its admission instant and its free instant, so
// in_flight(t) never exceeds the number of workers.
// Lanes drain inside AdvanceLocked as virtual time advances, so a work item
// spanning a peer's completion is priced piecewise: the stale-snapshot
// mispricing the old per-admission share had is gone. Determinism holds
// because every ledger event is recorded under a hold at its own instant
// (admissions by the coordinator, completions by CompleteFlow itself), so
// by the time AdvanceLocked walks a segment the ledger over that segment is
// complete. DrainGpu parks the flow until its lane is empty and hands back
// the per-item completion instants.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <vector>

#include "common/thread_annotations.h"
#include "net/bandwidth_trace.h"
#include "net/link.h"

namespace cachegen {

class SharedLink {
 public:
  using FlowId = uint64_t;
  using HoldId = uint64_t;

  explicit SharedLink(BandwidthTrace capacity);

  // --- admission holds and GPU accounting ----------------------------------
  // Cap virtual time at `t_s` (virtual time never advances past the
  // earliest outstanding hold) and record a ledger entry: one more request
  // contends for the GPU from `t_s` on. Pair every HoldAdmission with
  // exactly one later CompleteFlow (which records the matching -1 at its
  // free instant).
  HoldId HoldAdmission(double t_s);
  void ReleaseHold(HoldId id);
  // Append a work item to the flow's GPU lane. `const_s` drains at rate 1
  // (per-call overhead); `shared_s` drains at rate share(t). The item starts
  // at max(arrival_s, previous item's completion). Non-blocking; the lane
  // drains as virtual time advances.
  void PostGpuWork(FlowId id, double arrival_s, double const_s, double shared_s);
  // Park the calling worker until the flow's lane is empty; returns the
  // completion instant of every item posted since Register, in post order.
  std::vector<double> DrainGpu(FlowId id);

  // --- flows ----------------------------------------------------------------
  // Register a flow whose first transfer may start at `start_s` (>= now()).
  // The flow counts against the barrier immediately: until it parks (or
  // leaves through CompleteFlow) virtual time is frozen.
  FlowId Register(double start_s);

  // Move `bytes` over the shared path; blocks the calling worker thread
  // until the fluid simulation completes the transfer. Returns the record in
  // virtual time (start = the flow's clock when posted).
  TransferRecord Transfer(FlowId id, double bytes);

  // Park the flow until virtual time `t_s` without consuming bandwidth.
  void WaitUntil(FlowId id, double t_s);

  double FlowClock(FlowId id) const;

  // --- completion channel ---------------------------------------------------
  struct Completion {
    double free_s = 0.0;    // virtual instant the worker becomes free
    uint64_t payload = 0;   // caller-defined (e.g. request index)
    HoldId hold = 0;        // release after processing to let time pass free_s
  };

  // Atomically: hold virtual time at `free_s`, remove the flow, queue the
  // completion. Called by the finishing worker thread.
  void CompleteFlow(FlowId id, double free_s, uint64_t payload);

  // Block until the earliest queued completion is safe to hand out: either
  // its free_s has been reached, or all `in_flight` requests' completions
  // are queued (so nothing earlier can still arrive). Ties broken by
  // payload, making coordinator decisions deterministic.
  Completion PopCompletion(size_t in_flight);

  // --- introspection --------------------------------------------------------
  double now() const;
  double CapacityGbpsAt(double t_s) const { return capacity_.GbpsAt(t_s); }

 private:
  struct GpuItem {
    double arrival_s = 0.0;   // earliest start (the chunk's transfer end)
    double const_rem = 0.0;   // seconds left of the rate-1 overhead part
    double shared_rem = 0.0;  // seconds left of the share-priced part
  };

  struct Flow {
    double clock = 0.0;      // flow-local time: end of last finished transfer
    bool parked = false;     // thread blocked in Transfer/WaitUntil/DrainGpu
    bool done = false;       // pending op finished; thread may resume
    bool draining = false;   // parked in DrainGpu until the lane empties
    double remaining = 0.0;  // bytes left of the pending transfer
    double wake_at = -1.0;   // WaitUntil target (when remaining == 0)
    double t_start = 0.0;    // pending transfer start
    double end_s = 0.0;      // pending op completion time
    std::deque<GpuItem> lane;       // FIFO GPU work queue
    double lane_ready = 0.0;        // completion instant of the popped head
    std::vector<double> gpu_done;   // per-item completion instants, post order
  };

  // Advance virtual time while every flow is parked, holds permit, and no
  // completion has been produced. Caller holds mu_.
  void AdvanceLocked() CG_REQUIRES(mu_);
  // Reads only the immutable capacity trace; no lock needed.
  double NextSegmentBoundaryAfter(double t_s) const;
  double MinHoldLocked() const CG_REQUIRES(mu_);
  // Share in effect at now_s_ (call after FoldGpuLedgerLocked).
  double GpuShareLocked() const CG_REQUIRES(mu_);
  // Absorb ledger events at instants <= now_s_ into the base count.
  void FoldGpuLedgerLocked() CG_REQUIRES(mu_);

  // One lock arbitrates the whole fluid simulation: every piece of
  // virtual-time state below moves together under mu_ (capacity_ alone is
  // immutable after construction).
  mutable Mutex mu_;
  mutable CondVar cv_;
  BandwidthTrace capacity_;
  double now_s_ CG_GUARDED_BY(mu_) = 0.0;
  std::map<FlowId, Flow> flows_ CG_GUARDED_BY(mu_);
  std::map<HoldId, double> holds_ CG_GUARDED_BY(mu_);
  std::vector<Completion> completions_ CG_GUARDED_BY(mu_);
  FlowId next_flow_ CG_GUARDED_BY(mu_) = 1;
  HoldId next_hold_ CG_GUARDED_BY(mu_) = 1;
  // In-flight count settled through now_s_.
  int gpu_base_inflight_ CG_GUARDED_BY(mu_) = 0;
  // Future ledger deltas, instant -> net.
  std::map<double, int> gpu_events_ CG_GUARDED_BY(mu_);
};

// Adapter presenting one SharedLink flow through the Link interface, so the
// single-request KVStreamer streams over a contended path unmodified.
class ClientLink final : public Link {
 public:
  ClientLink(SharedLink& shared, SharedLink::FlowId flow);

  TransferRecord Send(double bytes) override;
  void AdvanceTo(double t_s) override;
  double now() const override { return now_s_; }

 private:
  SharedLink& shared_;
  SharedLink::FlowId flow_;
};

}  // namespace cachegen
