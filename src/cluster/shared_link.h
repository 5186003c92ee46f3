// SharedLink: one physical path, many concurrent KV streams.
//
// The single-request substrate models the network as a private Link whose
// clock only this request advances. A serving cluster breaks that: N
// in-flight requests share the storage-to-GPU path, and each one's chunk
// transfers slow down by exactly the bandwidth the others are using (the
// paper's Fig. 12/13 regime). SharedLink simulates that contention as a
// fluid max-min flow model in *virtual time*. It is a single-threaded
// simulator owned by the cluster coordinator; no thread ever waits on it:
//
//   * Each request registers a Flow; its ClientLink (a Link subclass) turns
//     KVStreamer's link operations into Start* calls on the simulator and
//     parks the stream (a coroutine) until the operation completes.
//   * Aggregate capacity comes from a BandwidthTrace; at any virtual instant
//     each of the n flows with a pending transfer receives capacity / n
//     (max-min fair sharing: every flow has the same claim on the path).
//   * Step() advances virtual time to the next event and reports the flows
//     whose operation completed there, in flow-id order. The next event is
//     the earliest of: a transfer end at the current shares, a wait
//     instant, a capacity-segment boundary, a GPU lane item's start or
//     finish, a ledger instant, and the caller's own next instant (`limit`:
//     the coordinator's next admission or free instant). The coordinator
//     resumes each reported stream until it starts its next operation (or
//     leaves), then steps again, so every flow has an operation pending
//     whenever time advances, and outcomes depend only on (trace, options).
//
// GPU accounting (per-event shares). The GPU is modelled like the link: a
// shared resource whose per-request share changes at every admission and
// completion instant, not a constant frozen at admission. The simulator
// keeps
//   * a ledger of in-flight deltas (+1 at each Admit instant, -1 at each
//     Leave instant), and
//   * one FIFO *lane* of GPU work items per flow (PostGpuWork). An item has
//     a constant part (per-call overhead, drains at rate 1) and a shared
//     part (compute, drains at rate share(t) = 1 / max(1, in_flight(t))).
// The cluster's worker count never caps the share: a worker slot holds at
// most one request between its admission instant and its free instant, so
// in_flight(t) never exceeds the number of workers.
// Lanes drain inside Step as virtual time advances, so a work item spanning
// a peer's completion is priced piecewise. The coordinator records every
// ledger entry before time reaches its instant (an admission when it is
// decided, a free instant when its stream ends), so by the time Step walks
// a segment the ledger over that segment is complete. StartDrain parks the
// flow until its lane is empty; TakeGpuDone hands back the per-item
// completion instants.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "net/bandwidth_trace.h"
#include "net/link.h"

namespace cachegen {

class SharedLink {
 public:
  using FlowId = uint64_t;

  explicit SharedLink(BandwidthTrace capacity);

  // --- GPU ledger -------------------------------------------------------------
  // One more request contends for the GPU from `t_s` (>= now()) on. Pair
  // every Admit with exactly one later Leave.
  void Admit(double t_s);
  // Append a work item to the flow's GPU lane. `const_s` drains at rate 1
  // (per-call overhead); `shared_s` drains at rate share(t). The item starts
  // at max(arrival_s, previous item's completion); the lane drains as
  // virtual time advances.
  void PostGpuWork(FlowId id, double arrival_s, double const_s, double shared_s);

  // --- flows ----------------------------------------------------------------
  // Register a flow whose first transfer may start at `start_s` (>= now()).
  FlowId Register(double start_s);
  // The flow leaves, and the ledger gets its -1 at its free instant: the
  // later of `free_s` and now(), which is returned.
  double Leave(FlowId id, double free_s);

  // Start the flow's next operation. Each returns true when the operation
  // completed at once (an empty transfer, a wait for an instant already
  // passed, a drain of an empty lane); otherwise Step reports the flow when
  // it completes. A flow has at most one operation pending.
  // Move `bytes` over the shared path, from max(flow clock, now()).
  bool StartTransfer(FlowId id, double bytes);
  // Idle until virtual time `t_s` without consuming bandwidth.
  bool StartWait(FlowId id, double t_s);
  // Wait until the flow's GPU lane is empty.
  bool StartDrain(FlowId id);

  // Advance virtual time to the next event, never past `limit_s`, and
  // return the flows whose operation completed there (in flow-id order;
  // empty when time moved without completing one, or when `limit_s` has
  // been reached). Every registered flow must have an operation pending.
  const std::vector<FlowId>& Step(double limit_s);
  // True once virtual time has reached `t_s`, within the tolerance Step
  // stops at a limit with.
  bool Reached(double t_s) const;

  // The end of the flow's last completed operation; for a transfer, its
  // start is TransferStart.
  double FlowClock(FlowId id) const { return flows_.at(id).clock; }
  double TransferStart(FlowId id) const { return flows_.at(id).t_start; }
  // Completion instant of every lane item posted since the last call, in
  // post order.
  std::vector<double> TakeGpuDone(FlowId id);

  double now() const { return now_s_; }
  double CapacityGbpsAt(double t_s) const { return capacity_.GbpsAt(t_s); }

  // --- single-flow API -----------------------------------------------------
  // Used only by perfbench's cluster.shared_link_transfer_us probe, which
  // drives one flow at a time from one thread: Transfer runs the simulation
  // until that flow's transfer ends, CompleteFlow leaves and queues a
  // completion, PopCompletion returns the earliest queued one (by free_s,
  // then payload), and ReleaseHold does nothing, since no hold caps virtual
  // time. Retire with the probe.
  using HoldId = uint64_t;
  struct Completion {
    double free_s = 0.0;
    uint64_t payload = 0;
    HoldId hold = 0;
  };
  TransferRecord Transfer(FlowId id, double bytes);
  void CompleteFlow(FlowId id, double free_s, uint64_t payload);
  Completion PopCompletion(size_t in_flight);
  void ReleaseHold(HoldId) {}

 private:
  struct GpuItem {
    double arrival_s = 0.0;   // earliest start (the chunk's transfer end)
    double const_rem = 0.0;   // seconds left of the rate-1 overhead part
    double shared_rem = 0.0;  // seconds left of the share-priced part
  };

  struct Flow {
    double clock = 0.0;      // flow-local time: end of last finished operation
    bool pending = false;    // an operation is in progress
    bool draining = false;   // the pending operation is a drain
    double remaining = 0.0;  // bytes left of the pending transfer
    double wake_at = -1.0;   // wait target (when remaining == 0)
    double t_start = 0.0;    // pending (or last) transfer start
    std::deque<GpuItem> lane;       // FIFO GPU work queue
    double lane_ready = 0.0;        // completion instant of the popped head
    std::vector<double> gpu_done;   // per-item completion instants, post order
  };

  // The pending operation of `f` completed at `end_s`.
  void Finish(FlowId id, Flow& f, double end_s);
  double NextSegmentBoundaryAfter(double t_s) const;
  // Share in effect at now_s_ (call after FoldGpuLedger).
  double GpuShare() const;
  // Absorb ledger events at instants <= now_s_ into the base count.
  void FoldGpuLedger();

  BandwidthTrace capacity_;
  double now_s_ = 0.0;
  std::map<FlowId, Flow> flows_;
  FlowId next_flow_ = 1;
  // In-flight count settled through now_s_.
  int gpu_base_inflight_ = 0;
  // Future ledger deltas, instant -> net.
  std::map<double, int> gpu_events_;
  // Step's result, and buffers it reuses from step to step.
  std::vector<FlowId> done_;
  std::vector<std::pair<FlowId, Flow*>> active_;
  std::vector<std::pair<Flow*, double>> gpu_heads_;
  std::vector<double> finish_;
  std::vector<Completion> completions_;  // single-flow API only
};

// Adapter presenting one SharedLink flow through the Link interface, so the
// single-request KVStreamer streams over a contended path unmodified. Its
// operations park the stream; the coordinator calls Resume() once Step has
// reported the flow.
class ClientLink final : public Link {
 public:
  ClientLink(SharedLink& shared, SharedLink::FlowId flow);

  Task<TransferRecord> SendOp(double bytes) override;
  Task<double> AdvanceOp(double t_s) override;

  // The flow's GPU lane, for StreamHooks.
  void PostGpuWork(double arrival_s, double const_s, double shared_s) {
    shared_.PostGpuWork(flow_, arrival_s, const_s, shared_s);
  }
  Task<std::vector<double>> DrainGpu();

  // Deliver the completed operation's result and resume the parked stream
  // (on the caller's thread, until it parks again or finishes).
  void Resume();

 private:
  enum class Pending { kNone, kSend, kWait, kDrain };
  void FinishSend();

  SharedLink& shared_;
  SharedLink::FlowId flow_;
  Pending pending_ = Pending::kNone;
  std::coroutine_handle<> waiter_;
  // Result slots of the parked operation.
  TransferRecord sent_;
  double waited_ = 0.0;
  std::vector<double> drained_;
};

}  // namespace cachegen
