// Tracer: low-overhead request-lifecycle span/event recording for the
// serving stack, exported as Chrome trace-event JSON (obs/export.h) loadable
// in Perfetto or chrome://tracing.
//
// Two clock domains, exported as two Perfetto "processes":
//   * kWall (pid 1)    — monotonic wall time since the process trace epoch;
//     tracks are OS threads. Real CPU work lives here: codec encode/decode,
//     thread-pool tasks, write-back persistence, KV assembly.
//   * kVirtual (pid 2) — the cluster's simulated virtual time; tracks are
//     REQUEST ids, so one track shows one request's whole lifecycle:
//     queue_wait -> admit -> kv_stream (per-chunk tx/gpu spans) ->
//     write_back. This is the paper-semantics timeline ("where did this p99
//     request spend its time?").
//
// Recording: per-thread ring buffers (drop-oldest on overflow, counted), a
// mutex per ring taken only by its owner thread and by Snapshot() — writers
// never contend with each other. Event name/category strings must be string
// LITERALS (stored as pointers; nothing is copied on the hot path).
//
// Request-id propagation: ClusterServer's coordinator scopes the request id
// thread-locally (ScopedRequestId) around each resumption of a request, and
// each assembly decode thread around each job it decodes; everything
// recorded on that thread in the scope — including streamer and net events
// that never see the request struct — lands on the right virtual track and
// carries the id in its args.
//
// Cost when disabled: every CG_TRACE_* macro starts with one relaxed atomic
// load (a few ns — bench_obs_overhead gates it). The switch is
// Tracer::SetEnabled or the CACHEGEN_TRACE environment variable (any value
// but "0"), read once at first use.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"

namespace cachegen::obs {

// Bumped whenever the exported trace-event schema changes shape (event
// names, categories, pid/tid assignment, args). Written into the export
// header ("otherData") and checked by ci/check_trace.py.
inline constexpr int kTraceSchemaVersion = 1;

enum class TraceClock : uint8_t {
  kWall = 1,     // µs since process trace epoch; track = thread index
  kVirtual = 2,  // µs of cluster virtual time;   track = request id
};

struct TraceEvent {
  const char* name = nullptr;  // string literal
  const char* cat = nullptr;   // subsystem: cluster/streamer/codec/storage/...
  char phase = 'X';            // 'X' complete, 'i' instant, 'C' counter
  TraceClock clock = TraceClock::kWall;
  uint64_t ts_us = 0;
  uint64_t dur_us = 0;         // 'X' only
  uint64_t track = 0;          // thread index (wall) or request id (virtual)
  uint64_t request_id = 0;     // exported in args when nonzero
  const char* arg_name = nullptr;  // optional numeric arg (literal)
  double arg_value = 0.0;
};

class Tracer {
 public:
  // Never destroyed: codec pool workers may record during process teardown.
  static Tracer& Instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Monotonic wall clock in µs since the process trace epoch.
  static uint64_t NowUs();

  // Append to the calling thread's ring (fills in the wall track id when the
  // event is wall-clocked). Call only when enabled() — the CG_TRACE_ macros
  // and helpers below take care of that.
  void Record(TraceEvent ev);

  // Merge every thread's ring, sorted by (clock, track, ts); events of one
  // ring with equal keys keep their recording order. Events recorded
  // concurrently with the snapshot may or may not be included.
  std::vector<TraceEvent> Snapshot() const;

  void Clear();                 // drop all recorded events (keeps rings)
  uint64_t DroppedEvents() const;

  // Ring capacity (events) for threads that have not recorded yet; existing
  // rings keep their size. Default 16384 per thread.
  void SetRingCapacity(size_t events);

  // Stable small integer for the calling thread (wall-track id).
  static uint64_t ThreadTrack();

 private:
  struct Ring {
    // Taken only by the owning thread (Record) and by Snapshot/Clear —
    // writers never contend with each other.
    cachegen::Mutex mu;
    std::vector<TraceEvent> events CG_GUARDED_BY(mu);  // circular once full
    size_t capacity CG_GUARDED_BY(mu) = 0;
    size_t head CG_GUARDED_BY(mu) = 0;  // next write position
    size_t size CG_GUARDED_BY(mu) = 0;  // min(#recorded, capacity)
    uint64_t dropped CG_GUARDED_BY(mu) = 0;
    uint64_t track CG_GUARDED_BY(mu) = 0;  // owning thread's wall-track id
  };

  Tracer();
  Ring& LocalRing();

  std::atomic<bool> enabled_{false};
  std::atomic<size_t> ring_capacity_{16384};
  // Lock order: registry_mu_ -> Ring::mu (Snapshot/Clear copy the ring list
  // under the registry lock, then lock each ring).
  mutable cachegen::Mutex registry_mu_;
  std::vector<std::shared_ptr<Ring>> rings_ CG_GUARDED_BY(registry_mu_);
};

// Thread-local request-id scope; nests (the previous id is restored).
class ScopedRequestId {
 public:
  explicit ScopedRequestId(uint64_t id);
  ~ScopedRequestId();
  static uint64_t Current();

  ScopedRequestId(const ScopedRequestId&) = delete;
  ScopedRequestId& operator=(const ScopedRequestId&) = delete;

 private:
  uint64_t prev_;
};

// --- recording helpers (check enabled() first; no-ops when tracing is off) ---

// Wall-clock complete event over [start_us, NowUs()].
void TraceWallSpan(const char* cat, const char* name, uint64_t start_us,
                   const char* arg_name = nullptr, double arg_value = 0.0);
// Wall-clock instant.
void TraceInstant(const char* cat, const char* name,
                  const char* arg_name = nullptr, double arg_value = 0.0);
// Wall-clock counter sample (renders as a stacked counter track).
void TraceCounterSample(const char* cat, const char* name, double value);
// Virtual-time span on `track` (a request id); times in virtual SECONDS.
void TraceVirtualSpan(const char* cat, const char* name, uint64_t track,
                      double start_s, double end_s,
                      const char* arg_name = nullptr, double arg_value = 0.0);
// Virtual-time instant on `track`.
void TraceVirtualInstant(const char* cat, const char* name, uint64_t track,
                         double t_s, const char* arg_name = nullptr,
                         double arg_value = 0.0);

// RAII wall-clock span: records cat/name over the guard's lifetime when
// tracing was enabled at construction.
class SpanGuard {
 public:
  SpanGuard(const char* cat, const char* name)
      : cat_(cat), name_(name),
        start_us_(Tracer::Instance().enabled() ? Tracer::NowUs() : kInactive) {}
  ~SpanGuard() {
    if (start_us_ != kInactive) TraceWallSpan(cat_, name_, start_us_);
  }

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  static constexpr uint64_t kInactive = ~uint64_t{0};
  const char* cat_;
  const char* name_;
  uint64_t start_us_;
};

}  // namespace cachegen::obs

#define CG_OBS_CONCAT_IMPL(a, b) a##b
#define CG_OBS_CONCAT(a, b) CG_OBS_CONCAT_IMPL(a, b)

// RAII span covering the rest of the enclosing scope.
#define CG_TRACE_SPAN(cat, name) \
  ::cachegen::obs::SpanGuard CG_OBS_CONCAT(cg_obs_span_, __LINE__)(cat, name)
#define CG_TRACE_INSTANT(...) ::cachegen::obs::TraceInstant(__VA_ARGS__)
#define CG_TRACE_COUNTER(cat, name, v) \
  ::cachegen::obs::TraceCounterSample(cat, name, v)
#define CG_TRACE_VSPAN(...) ::cachegen::obs::TraceVirtualSpan(__VA_ARGS__)
#define CG_TRACE_VINSTANT(...) ::cachegen::obs::TraceVirtualInstant(__VA_ARGS__)
