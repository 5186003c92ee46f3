// Link: a simulated network connection between the storage server holding
// encoded KV chunks and the inference server (Fig. 1). Transfers are
// sequential (one connection) and advance the link clock; the streamer reads
// back the throughput observed for the previous chunk to drive adaptation
// (§5.3: "estimates the bandwidth by measuring the throughput of the
// previous chunk").
//
// The interface is virtual so one request's streamer is agnostic to whether
// it owns the whole path (Link over a BandwidthTrace) or shares it with
// other in-flight requests (cluster ClientLink, whose transfer times come
// from SharedLink's fair-share simulation over the aggregate capacity).
// Each operation has a resumable form (SendOp, AdvanceOp) that the streamer
// co_awaits: a private link completes it at once, a shared link's client
// parks the stream until the cluster's virtual time reaches its end. Send
// and AdvanceTo complete the same operations synchronously, for callers
// that own the link.
#pragma once

#include "common/task.h"
#include "net/bandwidth_trace.h"

namespace cachegen {

struct TransferRecord {
  double start_s = 0.0;
  double end_s = 0.0;
  double bytes = 0.0;

  double Seconds() const { return end_s - start_s; }
};

class Link {
 public:
  explicit Link(BandwidthTrace trace, double start_time_s = 0.0)
      : trace_(std::move(trace)), now_s_(start_time_s) {}
  virtual ~Link() = default;

  // Send `bytes` starting at the current link time; advances the clock and
  // returns the transfer record.
  TransferRecord Send(double bytes) { return SendOp(bytes).Get(); }

  // Advance the clock without sending (e.g. while the GPU recomputes a text
  // chunk and the link idles).
  void AdvanceTo(double t_s) { AdvanceOp(t_s).Get(); }

  // Resumable forms of Send and AdvanceTo; AdvanceOp yields the link time
  // it reached.
  virtual Task<TransferRecord> SendOp(double bytes);
  virtual Task<double> AdvanceOp(double t_s);

  virtual double now() const { return now_s_; }

 protected:
  // For subclasses (e.g. SharedLink clients) whose timing does not come from
  // a private trace; the placeholder trace is never consulted by them.
  Link() : trace_(BandwidthTrace::Constant(1.0)), now_s_(0.0) {}

  BandwidthTrace trace_;
  double now_s_;
};

// ThrottledLink: a read-bandwidth-bounded source feeding an inner link — the
// cold-storage read path of a tiered KV store. Each Send's completion is the
// later of the network transfer (inner link, fair-shared under contention)
// and a modeled device read at `read_gbps`; the first Send additionally
// waits `first_byte_delay_s` (seek / open). Because the streamer measures
// throughput from the returned records, adaptation automatically sees
// min(network share, cold read rate) and picks coarser levels on cold hits.
// The first-byte wait, the transfer and the read-rate tail are three
// operations on the inner link; over a shared link each is its own
// suspension and its own instant of the fluid simulation.
class ThrottledLink final : public Link {
 public:
  ThrottledLink(Link& inner, double read_gbps, double first_byte_delay_s = 0.0);

  Task<TransferRecord> SendOp(double bytes) override;
  Task<double> AdvanceOp(double t_s) override { return inner_.AdvanceOp(t_s); }
  double now() const override { return inner_.now(); }

 private:
  Link& inner_;
  double read_gbps_;
  double first_byte_delay_s_;
  bool first_send_done_ = false;
};

}  // namespace cachegen
