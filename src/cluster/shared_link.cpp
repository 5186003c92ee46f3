#include "cluster/shared_link.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cachegen {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kByteEps = 1e-6;   // transfers within a byte-millionth are done
constexpr double kTimeEps = 1e-12;
}  // namespace

SharedLink::SharedLink(BandwidthTrace capacity) : capacity_(std::move(capacity)) {}

void SharedLink::ReleaseHold(HoldId id) {
  MutexLock lk(mu_);
  holds_.erase(id);
  AdvanceLocked();
  cv_.NotifyAll();
}

SharedLink::HoldId SharedLink::HoldAdmission(double t_s) {
  MutexLock lk(mu_);
  const HoldId id = next_hold_++;
  const double t = std::max(t_s, now_s_);
  holds_[id] = t;
  // The +1 rides under this hold: time cannot pass the admission instant
  // until the caller releases it, so no lane segment beyond t is ever priced
  // without this entry.
  gpu_events_[t] += 1;
  return id;
}

void SharedLink::PostGpuWork(FlowId id, double arrival_s, double const_s,
                             double shared_s) {
  MutexLock lk(mu_);
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
  // No AdvanceLocked: the posting worker is unparked, so time is frozen; the
  // lane drains on the next advance.
}

std::vector<double> SharedLink::DrainGpu(FlowId id) {
  MutexLock lk(mu_);
  Flow& f = flows_.at(id);
  if (!f.lane.empty()) {
    f.t_start = f.clock;
    f.remaining = 0.0;
    f.wake_at = -1.0;
    f.done = false;
    f.parked = true;
    f.draining = true;
    AdvanceLocked();
    cv_.NotifyAll();
    while (!f.done) cv_.Wait(mu_);
    f.done = false;
    f.draining = false;
    f.clock = f.end_s;
  }
  std::vector<double> out = std::move(f.gpu_done);
  f.gpu_done.clear();
  return out;
}

SharedLink::FlowId SharedLink::Register(double start_s) {
  MutexLock lk(mu_);
  const FlowId id = next_flow_++;
  Flow f;
  f.clock = std::max(start_s, now_s_);
  flows_[id] = f;
  // No AdvanceLocked: the new flow is unparked, so time is frozen until it
  // parks (or completes).
  return id;
}

TransferRecord SharedLink::Transfer(FlowId id, double bytes) {
  MutexLock lk(mu_);
  Flow& f = flows_.at(id);
  f.t_start = std::max(f.clock, now_s_);
  f.remaining = std::max(bytes, 0.0);
  f.wake_at = -1.0;
  f.done = false;
  if (f.remaining <= kByteEps) {
    f.remaining = 0.0;
    f.end_s = f.t_start;
    f.done = true;
  } else {
    f.parked = true;
    AdvanceLocked();
  }
  cv_.NotifyAll();
  while (!f.done) cv_.Wait(mu_);
  f.done = false;
  f.clock = f.end_s;
  TransferRecord rec;
  rec.start_s = f.t_start;
  rec.end_s = f.end_s;
  rec.bytes = bytes;
  // The grant instant lands on the calling thread's request track: the
  // arbiter granted this flow `bytes` of max-min fair share by rec.end_s.
  CG_METRIC_COUNT("net.grants", 1);
  CG_METRIC_COUNT("net.granted_bytes", static_cast<uint64_t>(bytes));
  CG_TRACE_VINSTANT("net", "grant", obs::ScopedRequestId::Current(), rec.end_s,
                    "bytes", bytes);
  return rec;
}

void SharedLink::WaitUntil(FlowId id, double t_s) {
  MutexLock lk(mu_);
  Flow& f = flows_.at(id);
  if (t_s <= f.clock + kTimeEps) return;
  f.t_start = f.clock;
  f.remaining = 0.0;
  f.wake_at = t_s;
  f.done = false;
  f.parked = true;
  AdvanceLocked();
  cv_.NotifyAll();
  while (!f.done) cv_.Wait(mu_);
  f.done = false;
  f.clock = f.end_s;
}

double SharedLink::FlowClock(FlowId id) const {
  MutexLock lk(mu_);
  return flows_.at(id).clock;
}

void SharedLink::CompleteFlow(FlowId id, double free_s, uint64_t payload) {
  MutexLock lk(mu_);
  flows_.erase(id);
  Completion c;
  c.free_s = std::max(free_s, now_s_);
  c.payload = payload;
  c.hold = next_hold_++;
  holds_[c.hold] = c.free_s;
  // Ledger -1 at the free instant, atomic with the hold: every surviving
  // lane is priced at the higher share from this instant onward.
  gpu_events_[c.free_s] -= 1;
  completions_.push_back(c);
  AdvanceLocked();
  cv_.NotifyAll();
}

SharedLink::Completion SharedLink::PopCompletion(size_t in_flight) {
  MutexLock lk(mu_);
  size_t best = 0;
  for (;;) {
    bool ready = false;
    if (!completions_.empty()) {
      best = 0;
      for (size_t i = 1; i < completions_.size(); ++i) {
        const Completion& a = completions_[i];
        const Completion& b = completions_[best];
        if (a.free_s < b.free_s ||
            (a.free_s == b.free_s && a.payload < b.payload)) {
          best = i;
        }
      }
      // Safe to release: nothing still in flight can complete earlier. Any
      // in-flight request not yet queued here either holds time at its
      // admission instant or has a registered flow, so its eventual free
      // instant lies strictly beyond now().
      ready = completions_.size() >= in_flight ||
              completions_[best].free_s <= now_s_ + 1e-9;
    }
    if (ready) break;
    cv_.Wait(mu_);
  }
  Completion c = completions_[best];
  completions_.erase(completions_.begin() +
                     static_cast<std::ptrdiff_t>(best));
  return c;
}

double SharedLink::now() const {
  MutexLock lk(mu_);
  return now_s_;
}

double SharedLink::MinHoldLocked() const {
  double t = kInf;
  for (const auto& [id, hold_t] : holds_) t = std::min(t, hold_t);
  return t;
}

double SharedLink::GpuShareLocked() const {
  return 1.0 / static_cast<double>(std::max(1, gpu_base_inflight_));
}

void SharedLink::FoldGpuLedgerLocked() {
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

void SharedLink::AdvanceLocked() {
  for (;;) {
    if (flows_.empty()) return;
    for (const auto& [id, f] : flows_) {
      if (!f.parked) return;  // a worker thread is mid-computation: freeze
    }

    // Every ledger event at or before now is settled; fold it into the base
    // count so share lookups are O(1) and the event map stays small.
    FoldGpuLedgerLocked();

    // Wake waiters whose instant has been reached (even under a hold).
    bool completed = false;
    double dormant_t = kInf, wake_t = kInf;
    std::vector<Flow*> active;
    for (auto& [id, f] : flows_) {
      if (f.remaining > 0.0) {
        if (f.clock > now_s_ + kTimeEps) {
          dormant_t = std::min(dormant_t, f.clock);  // admitted in the future
        } else {
          active.push_back(&f);
        }
      } else if (f.draining) {
        if (f.lane.empty()) {
          f.parked = false;
          f.done = true;
          f.end_s = std::max(f.clock, now_s_);
          completed = true;
        }
        // else: the wake event is the lane's last item finishing, priced in
        // the GPU scan below.
      } else if (f.wake_at <= now_s_ + kTimeEps) {
        f.parked = false;
        f.done = true;
        f.end_s = std::max(f.wake_at, f.t_start);
        completed = true;
      } else {
        wake_t = std::min(wake_t, f.wake_at);
      }
    }
    if (completed) return;

    const double hold_cap = MinHoldLocked();
    if (hold_cap <= now_s_ + kTimeEps) return;  // parked at a hold

    double t_next = std::min({hold_cap, dormant_t, wake_t});
    t_next = std::min(t_next, NextSegmentBoundaryAfter(now_s_));
    // The GPU share changes at the next ledger instant; no lane segment may
    // integrate across it.
    if (!gpu_events_.empty()) {
      t_next = std::min(t_next, gpu_events_.begin()->first);
    }

    // GPU lane heads: project each startable head's completion at the
    // current share; future starts are boundaries of their own.
    const double share = GpuShareLocked();
    std::vector<std::pair<Flow*, double>> gpu_heads;  // flow -> projected fin
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
      gpu_heads.emplace_back(&f, fin);
      min_gpu_finish = std::min(min_gpu_finish, fin);
    }

    // Max-min fair share: every active transfer drains at capacity / n.
    const double cap_bps = capacity_.BytesPerSecAt(now_s_);
    const double rate =
        active.empty() ? 0.0 : cap_bps / static_cast<double>(active.size());
    std::vector<double> finish(active.size(), kInf);
    double min_bw_finish = kInf;
    if (cap_bps > 0.0) {
      for (size_t i = 0; i < active.size(); ++i) {
        finish[i] = now_s_ + active[i]->remaining / rate;
        min_bw_finish = std::min(min_bw_finish, finish[i]);
      }
    }
    // else dead air: transfers drain nothing until the next capacity segment.

    // If the binding event is a transfer or lane-item finish, complete it by
    // construction: `remaining -= rate * dt` cannot be trusted to reach zero
    // once now_s_ is large enough that rate * ulp(now_s_) rivals the epsilon.
    const double min_finish = std::min(min_bw_finish, min_gpu_finish);
    const bool finish_event = min_finish <= t_next;
    if (finish_event) t_next = min_finish;
    if (!std::isfinite(t_next)) return;  // nothing pending can ever fire
    const double finish_tol =
        t_next + 4.0 * std::numeric_limits<double>::epsilon() * std::max(1.0, t_next);

    const double dt = t_next - now_s_;
    if (cap_bps > 0.0) {
      for (size_t i = 0; i < active.size(); ++i) {
        Flow* f = active[i];
        if (finish_event && finish[i] <= finish_tol) {
          f->remaining = 0.0;
          f->parked = false;
          f->done = true;
          f->end_s = t_next;
          completed = true;
        } else {
          f->remaining = std::max(0.0, f->remaining - rate * dt);
        }
      }
    }
    for (auto& [f, fin] : gpu_heads) {
      GpuItem& head = f->lane.front();
      if (finish_event && fin <= finish_tol) {
        f->gpu_done.push_back(t_next);
        f->lane_ready = t_next;
        f->lane.pop_front();
        // Waking a drained flow (lane now empty) happens at the top of the
        // next iteration; a mid-stream lane pop wakes nobody.
      } else {
        const double c = std::min(head.const_rem, dt);
        head.const_rem -= c;
        head.shared_rem = std::max(0.0, head.shared_rem - (dt - c) * share);
      }
    }
    now_s_ = t_next;
    if (completed) return;
  }
}

ClientLink::ClientLink(SharedLink& shared, SharedLink::FlowId flow)
    : shared_(shared), flow_(flow) {
  now_s_ = shared_.FlowClock(flow_);
}

TransferRecord ClientLink::Send(double bytes) {
  const TransferRecord rec = shared_.Transfer(flow_, bytes);
  now_s_ = rec.end_s;
  return rec;
}

void ClientLink::AdvanceTo(double t_s) {
  shared_.WaitUntil(flow_, t_s);
  now_s_ = std::max(now_s_, t_s);
}

}  // namespace cachegen
