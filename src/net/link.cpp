#include "net/link.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cachegen {

Task<TransferRecord> Link::SendOp(double bytes) {
  TransferRecord rec;
  rec.start_s = now_s_;
  rec.bytes = bytes;
  rec.end_s = now_s_ + trace_.TransferSeconds(bytes, now_s_);
  now_s_ = rec.end_s;
  return Task<TransferRecord>::Ready(rec);
}

Task<double> Link::AdvanceOp(double t_s) {
  now_s_ = std::max(now_s_, t_s);
  return Task<double>::Ready(now_s_);
}

ThrottledLink::ThrottledLink(Link& inner, double read_gbps,
                             double first_byte_delay_s)
    : inner_(inner),
      read_gbps_(read_gbps),
      first_byte_delay_s_(std::max(0.0, first_byte_delay_s)) {
  if (!(read_gbps > 0.0)) {
    throw std::invalid_argument("ThrottledLink: read_gbps must be > 0");
  }
}

Task<TransferRecord> ThrottledLink::SendOp(double bytes) {
  if (!first_send_done_) {
    first_send_done_ = true;
    if (first_byte_delay_s_ > 0.0) {
      co_await inner_.AdvanceOp(inner_.now() + first_byte_delay_s_);
    }
  }
  TransferRecord rec = co_await inner_.SendOp(bytes);
  // The device read pipelines with the network transfer from the same start
  // instant; the chunk is usable when the slower of the two finishes. The
  // idle tail is burned on the inner link so a shared path charges this
  // flow's wall-clock correctly.
  const double read_end_s = rec.start_s + bytes * 8.0 / 1e9 / read_gbps_;
  if (read_end_s > rec.end_s) {
    co_await inner_.AdvanceOp(read_end_s);
    rec.end_s = read_end_s;
  }
  CG_METRIC_COUNT("net.cold_reads", 1);
  CG_METRIC_COUNT("net.cold_read_bytes", static_cast<uint64_t>(bytes));
  CG_TRACE_VSPAN("net", "cold_read", obs::ScopedRequestId::Current(),
                 rec.start_s, rec.end_s, "bytes", bytes);
  co_return rec;
}

}  // namespace cachegen
