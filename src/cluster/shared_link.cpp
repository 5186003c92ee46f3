#include "cluster/shared_link.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cachegen {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kByteEps = 1e-6;   // transfers within a byte-millionth are done
constexpr double kTimeEps = 1e-12;
}  // namespace

SharedLink::SharedLink(BandwidthTrace capacity) : capacity_(std::move(capacity)) {}

void SharedLink::Admit(double t_s) { gpu_events_[std::max(t_s, now_s_)] += 1; }

void SharedLink::PostGpuWork(FlowId id, double arrival_s, double const_s,
                             double shared_s) {
  Flow& f = flows_.at(id);
  GpuItem item;
  item.arrival_s = std::max(arrival_s, 0.0);
  item.const_rem = std::max(const_s, 0.0);
  item.shared_rem = std::max(shared_s, 0.0);
  if (item.const_rem <= 0.0 && item.shared_rem <= 0.0) {
    // Degenerate item: completes the instant it becomes head.
    item.const_rem = 0.0;
    item.shared_rem = 0.0;
  }
  f.lane.push_back(item);
}

SharedLink::FlowId SharedLink::Register(double start_s) {
  const FlowId id = next_flow_++;
  Flow f;
  f.clock = std::max(start_s, now_s_);
  flows_.emplace(id, std::move(f));
  return id;
}

double SharedLink::Leave(FlowId id, double free_s) {
  flows_.erase(id);
  // Every surviving lane is priced at the higher share from this instant on.
  const double t = std::max(free_s, now_s_);
  gpu_events_[t] -= 1;
  return t;
}

bool SharedLink::StartTransfer(FlowId id, double bytes) {
  Flow& f = flows_.at(id);
  f.t_start = std::max(f.clock, now_s_);
  f.remaining = std::max(bytes, 0.0);
  f.wake_at = -1.0;
  if (f.remaining <= kByteEps) {
    f.remaining = 0.0;
    f.clock = f.t_start;
    return true;
  }
  f.pending = true;
  return false;
}

bool SharedLink::StartWait(FlowId id, double t_s) {
  Flow& f = flows_.at(id);
  if (t_s <= f.clock + kTimeEps) return true;
  f.t_start = f.clock;
  f.remaining = 0.0;
  f.wake_at = t_s;
  f.pending = true;
  return false;
}

bool SharedLink::StartDrain(FlowId id) {
  Flow& f = flows_.at(id);
  if (f.lane.empty()) return true;
  f.t_start = f.clock;
  f.remaining = 0.0;
  f.wake_at = -1.0;
  f.draining = true;
  f.pending = true;
  return false;
}

std::vector<double> SharedLink::TakeGpuDone(FlowId id) {
  Flow& f = flows_.at(id);
  std::vector<double> out = std::move(f.gpu_done);
  f.gpu_done.clear();
  return out;
}

void SharedLink::Finish(FlowId id, Flow& f, double end_s) {
  f.pending = false;
  f.draining = false;
  f.clock = end_s;
  done_.push_back(id);
}

bool SharedLink::Reached(double t_s) const { return t_s <= now_s_ + kTimeEps; }

double SharedLink::GpuShare() const {
  return 1.0 / static_cast<double>(std::max(1, gpu_base_inflight_));
}

void SharedLink::FoldGpuLedger() {
  while (!gpu_events_.empty() &&
         gpu_events_.begin()->first <= now_s_ + kTimeEps) {
    gpu_base_inflight_ += gpu_events_.begin()->second;
    gpu_events_.erase(gpu_events_.begin());
  }
}

double SharedLink::NextSegmentBoundaryAfter(double t_s) const {
  for (const auto& seg : capacity_.segments()) {
    if (seg.start_s > t_s + kTimeEps) return seg.start_s;
  }
  return kInf;
}

const std::vector<SharedLink::FlowId>& SharedLink::Step(double limit_s) {
  done_.clear();
  // Every ledger event at or before now is settled; fold it into the base
  // count so share lookups are O(1) and the event map stays small.
  FoldGpuLedger();

  // Complete waits whose instant has been reached and drains whose lane has
  // emptied, without advancing time.
  double dormant_t = kInf, wake_t = kInf;
  active_.clear();
  for (auto& [id, f] : flows_) {
    if (!f.pending) {
      throw std::logic_error("SharedLink::Step: a flow has no operation pending");
    }
    if (f.remaining > 0.0) {
      if (f.clock > now_s_ + kTimeEps) {
        dormant_t = std::min(dormant_t, f.clock);  // admitted in the future
      } else {
        active_.emplace_back(id, &f);
      }
    } else if (f.draining) {
      // Otherwise the wake event is the lane's last item finishing, priced
      // in the GPU scan below.
      if (f.lane.empty()) Finish(id, f, std::max(f.clock, now_s_));
    } else if (f.wake_at <= now_s_ + kTimeEps) {
      Finish(id, f, std::max(f.wake_at, f.t_start));
    } else {
      wake_t = std::min(wake_t, f.wake_at);
    }
  }
  if (!done_.empty()) return done_;
  if (limit_s <= now_s_ + kTimeEps) return done_;  // the caller's instant

  double t_next = std::min({limit_s, dormant_t, wake_t});
  t_next = std::min(t_next, NextSegmentBoundaryAfter(now_s_));
  // The GPU share changes at the next ledger instant; no lane segment may
  // integrate across it.
  if (!gpu_events_.empty()) {
    t_next = std::min(t_next, gpu_events_.begin()->first);
  }

  // GPU lane heads: project each startable head's completion at the
  // current share; future starts are boundaries of their own.
  const double share = GpuShare();
  gpu_heads_.clear();
  double min_gpu_finish = kInf;
  for (auto& [id, f] : flows_) {
    if (f.lane.empty()) continue;
    const GpuItem& head = f.lane.front();
    const double start = std::max(head.arrival_s, f.lane_ready);
    if (start > now_s_ + kTimeEps) {
      t_next = std::min(t_next, start);
      continue;
    }
    const double fin = now_s_ + head.const_rem + head.shared_rem / share;
    gpu_heads_.emplace_back(&f, fin);
    min_gpu_finish = std::min(min_gpu_finish, fin);
  }

  // Max-min fair share: every active transfer drains at capacity / n.
  const double cap_bps = capacity_.BytesPerSecAt(now_s_);
  const double rate =
      active_.empty() ? 0.0 : cap_bps / static_cast<double>(active_.size());
  finish_.assign(active_.size(), kInf);
  double min_bw_finish = kInf;
  if (cap_bps > 0.0) {
    for (size_t i = 0; i < active_.size(); ++i) {
      finish_[i] = now_s_ + active_[i].second->remaining / rate;
      min_bw_finish = std::min(min_bw_finish, finish_[i]);
    }
  }
  // else dead air: transfers drain nothing until the next capacity segment.

  // If the binding event is a transfer or lane-item finish, complete it by
  // construction: `remaining -= rate * dt` cannot be trusted to reach zero
  // once now_s_ is large enough that rate * ulp(now_s_) rivals the epsilon.
  const double min_finish = std::min(min_bw_finish, min_gpu_finish);
  const bool finish_event = min_finish <= t_next;
  if (finish_event) t_next = min_finish;
  if (!std::isfinite(t_next)) {
    throw std::logic_error("SharedLink::Step: no pending event can ever fire");
  }
  const double finish_tol =
      t_next + 4.0 * std::numeric_limits<double>::epsilon() * std::max(1.0, t_next);

  const double dt = t_next - now_s_;
  if (cap_bps > 0.0) {
    for (size_t i = 0; i < active_.size(); ++i) {
      Flow* f = active_[i].second;
      if (finish_event && finish_[i] <= finish_tol) {
        f->remaining = 0.0;
        Finish(active_[i].first, *f, t_next);
      } else {
        f->remaining = std::max(0.0, f->remaining - rate * dt);
      }
    }
  }
  for (auto& [f, fin] : gpu_heads_) {
    GpuItem& head = f->lane.front();
    if (finish_event && fin <= finish_tol) {
      f->gpu_done.push_back(t_next);
      f->lane_ready = t_next;
      f->lane.pop_front();
      // A drained flow (lane now empty) completes at the top of the next
      // step; a mid-stream lane pop completes nothing.
    } else {
      const double c = std::min(head.const_rem, dt);
      head.const_rem -= c;
      head.shared_rem = std::max(0.0, head.shared_rem - (dt - c) * share);
    }
  }
  now_s_ = t_next;
  return done_;
}

// --- single-flow API -------------------------------------------------------

TransferRecord SharedLink::Transfer(FlowId id, double bytes) {
  if (!StartTransfer(id, bytes)) {
    for (;;) {
      const std::vector<FlowId>& done = Step(kInf);
      if (std::find(done.begin(), done.end(), id) != done.end()) break;
    }
  }
  TransferRecord rec;
  rec.start_s = TransferStart(id);
  rec.end_s = FlowClock(id);
  rec.bytes = bytes;
  return rec;
}

void SharedLink::CompleteFlow(FlowId id, double free_s, uint64_t payload) {
  Completion c;
  c.free_s = Leave(id, free_s);
  c.payload = payload;
  completions_.push_back(c);
}

SharedLink::Completion SharedLink::PopCompletion(size_t in_flight) {
  (void)in_flight;
  if (completions_.empty()) {
    throw std::logic_error("SharedLink::PopCompletion: nothing completed");
  }
  const auto best = std::min_element(
      completions_.begin(), completions_.end(),
      [](const Completion& a, const Completion& b) {
        return a.free_s < b.free_s || (a.free_s == b.free_s && a.payload < b.payload);
      });
  const Completion c = *best;
  completions_.erase(best);
  return c;
}

// --- ClientLink ---------------------------------------------------------------

ClientLink::ClientLink(SharedLink& shared, SharedLink::FlowId flow)
    : shared_(shared), flow_(flow) {
  now_s_ = shared_.FlowClock(flow_);
}

Task<TransferRecord> ClientLink::SendOp(double bytes) {
  sent_.bytes = bytes;
  if (shared_.StartTransfer(flow_, bytes)) {
    FinishSend();
    return Task<TransferRecord>::Ready(sent_);
  }
  pending_ = Pending::kSend;
  return Task<TransferRecord>::Parked(&waiter_, &sent_);
}

void ClientLink::FinishSend() {
  sent_.start_s = shared_.TransferStart(flow_);
  sent_.end_s = shared_.FlowClock(flow_);
  now_s_ = sent_.end_s;
  // The grant instant lands on the stream's request track: the simulator
  // granted this flow `bytes` of max-min fair share by end_s.
  CG_METRIC_COUNT("net.grants", 1);
  CG_METRIC_COUNT("net.granted_bytes", static_cast<uint64_t>(sent_.bytes));
  CG_TRACE_VINSTANT("net", "grant", obs::ScopedRequestId::Current(),
                    sent_.end_s, "bytes", sent_.bytes);
}

Task<double> ClientLink::AdvanceOp(double t_s) {
  waited_ = std::max(now_s_, t_s);
  if (shared_.StartWait(flow_, t_s)) {
    now_s_ = waited_;
    return Task<double>::Ready(now_s_);
  }
  pending_ = Pending::kWait;
  return Task<double>::Parked(&waiter_, &waited_);
}

Task<std::vector<double>> ClientLink::DrainGpu() {
  if (shared_.StartDrain(flow_)) {
    return Task<std::vector<double>>::Ready(shared_.TakeGpuDone(flow_));
  }
  pending_ = Pending::kDrain;
  return Task<std::vector<double>>::Parked(&waiter_, &drained_);
}

void ClientLink::Resume() {
  switch (std::exchange(pending_, Pending::kNone)) {
    case Pending::kSend:
      FinishSend();
      break;
    case Pending::kWait:
      now_s_ = waited_;
      break;
    case Pending::kDrain:
      drained_ = shared_.TakeGpuDone(flow_);
      break;
    case Pending::kNone:
      throw std::logic_error("ClientLink::Resume: no operation pending");
  }
  std::exchange(waiter_, {}).resume();
}

}  // namespace cachegen
