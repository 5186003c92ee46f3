#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "obs/metrics.h"

namespace cachegen::obs {

namespace {

// Virtual seconds -> µs, clamped at 0 (defensive: a negative virtual instant
// would violate the exporter's sorted-ts invariant).
uint64_t VirtualUs(double t_s) {
  if (!(t_s > 0.0)) return 0;
  return static_cast<uint64_t>(std::llround(t_s * 1e6));
}

thread_local uint64_t t_request_id = 0;

}  // namespace

Tracer::Tracer() {
  if (const char* env = std::getenv("CACHEGEN_TRACE")) {
    enabled_.store(env[0] != '\0' && !(env[0] == '0' && env[1] == '\0'),
                   std::memory_order_relaxed);
  }
}

Tracer& Tracer::Instance() {
  static Tracer* instance = new Tracer();  // never destroyed
  return *instance;
}

uint64_t Tracer::NowUs() {
  using namespace std::chrono;
  static const steady_clock::time_point epoch = steady_clock::now();
  return static_cast<uint64_t>(
      duration_cast<microseconds>(steady_clock::now() - epoch).count());
}

uint64_t Tracer::ThreadTrack() {
  static std::atomic<uint64_t> next{1};
  thread_local const uint64_t track =
      next.fetch_add(1, std::memory_order_relaxed);
  return track;
}

Tracer::Ring& Tracer::LocalRing() {
  // The shared_ptr is held both thread-locally and by the registry, so a
  // Snapshot() after the owning thread exited still sees its events.
  thread_local std::shared_ptr<Ring> ring = [this] {
    auto r = std::make_shared<Ring>();
    {
      // Uncontended (the ring is not yet published); taken so the guarded
      // writes are visible to the thread-safety analysis.
      MutexLock ring_lock(r->mu);
      r->capacity = ring_capacity_.load(std::memory_order_relaxed);
      r->events.reserve(std::min<size_t>(r->capacity, 1024));
      r->track = ThreadTrack();
    }
    MutexLock lock(registry_mu_);
    rings_.push_back(r);
    return r;
  }();
  return *ring;
}

void Tracer::Record(TraceEvent ev) {
  Ring& ring = LocalRing();
  if (ev.request_id == 0) ev.request_id = ScopedRequestId::Current();
  bool overflowed = false;
  size_t new_size = 0;
  {
    MutexLock lock(ring.mu);
    if (ev.clock == TraceClock::kWall) ev.track = ring.track;
    if (ring.events.size() < ring.capacity) {
      ring.events.push_back(ev);
      ring.head = ring.events.size() % ring.capacity;
      ring.size = ring.events.size();
      new_size = ring.size;
    } else {
      // Full: overwrite the oldest slot.
      ring.events[ring.head] = ev;
      ring.head = (ring.head + 1) % ring.capacity;
      ++ring.dropped;
      overflowed = true;
    }
  }
  // Silent trace loss must itself be observable: ring overflow counts as a
  // metric, ring fill as a high-water gauge. Recorded outside ring.mu — the
  // registry mutex each macro takes on first use must never nest inside a
  // ring lock.
  if (overflowed) {
    CG_METRIC_COUNT("obs.trace.dropped_events", 1);
  } else {
    CG_METRIC_GAUGE_MAX("obs.trace.ring_highwater_events", new_size);
  }
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    MutexLock lock(registry_mu_);
    rings = rings_;
  }
  std::vector<TraceEvent> out;
  for (const auto& ring : rings) {
    MutexLock lock(ring->mu);
    // Oldest-first: [head, size) then [0, head) once the ring has wrapped.
    if (ring->size == ring->capacity && ring->dropped > 0) {
      out.insert(out.end(), ring->events.begin() + ring->head,
                 ring->events.end());
      out.insert(out.end(), ring->events.begin(),
                 ring->events.begin() + ring->head);
    } else {
      out.insert(out.end(), ring->events.begin(), ring->events.end());
    }
  }
  // Stable: events with equal (clock, track, ts) keep their recording order,
  // so instants one thread stamps at one timestamp export in sequence.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.clock != b.clock) return a.clock < b.clock;
                     if (a.track != b.track) return a.track < b.track;
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

void Tracer::Clear() {
  MutexLock lock(registry_mu_);
  for (const auto& ring : rings_) {
    MutexLock rl(ring->mu);
    ring->events.clear();
    ring->head = 0;
    ring->size = 0;
    ring->dropped = 0;
  }
}

uint64_t Tracer::DroppedEvents() const {
  MutexLock lock(registry_mu_);
  uint64_t n = 0;
  for (const auto& ring : rings_) {
    MutexLock rl(ring->mu);
    n += ring->dropped;
  }
  return n;
}

void Tracer::SetRingCapacity(size_t events) {
  ring_capacity_.store(std::max<size_t>(events, 16),
                       std::memory_order_relaxed);
}

// --- ScopedRequestId ---------------------------------------------------------

ScopedRequestId::ScopedRequestId(uint64_t id) : prev_(t_request_id) {
  t_request_id = id;
}

ScopedRequestId::~ScopedRequestId() { t_request_id = prev_; }

uint64_t ScopedRequestId::Current() { return t_request_id; }

// --- recording helpers -------------------------------------------------------

void TraceWallSpan(const char* cat, const char* name, uint64_t start_us,
                   const char* arg_name, double arg_value) {
  Tracer& t = Tracer::Instance();
  if (!t.enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.phase = 'X';
  ev.clock = TraceClock::kWall;
  ev.ts_us = start_us;
  const uint64_t now = Tracer::NowUs();
  ev.dur_us = now > start_us ? now - start_us : 0;
  ev.arg_name = arg_name;
  ev.arg_value = arg_value;
  t.Record(ev);
}

void TraceInstant(const char* cat, const char* name, const char* arg_name,
                  double arg_value) {
  Tracer& t = Tracer::Instance();
  if (!t.enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.phase = 'i';
  ev.clock = TraceClock::kWall;
  ev.ts_us = Tracer::NowUs();
  ev.arg_name = arg_name;
  ev.arg_value = arg_value;
  t.Record(ev);
}

void TraceCounterSample(const char* cat, const char* name, double value) {
  Tracer& t = Tracer::Instance();
  if (!t.enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.phase = 'C';
  ev.clock = TraceClock::kWall;
  ev.ts_us = Tracer::NowUs();
  ev.arg_name = "value";
  ev.arg_value = value;
  t.Record(ev);
}

void TraceVirtualSpan(const char* cat, const char* name, uint64_t track,
                      double start_s, double end_s, const char* arg_name,
                      double arg_value) {
  Tracer& t = Tracer::Instance();
  if (!t.enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.phase = 'X';
  ev.clock = TraceClock::kVirtual;
  ev.track = track;
  ev.ts_us = VirtualUs(start_s);
  const uint64_t end_us = VirtualUs(end_s);
  ev.dur_us = end_us > ev.ts_us ? end_us - ev.ts_us : 0;
  ev.arg_name = arg_name;
  ev.arg_value = arg_value;
  t.Record(ev);
}

void TraceVirtualInstant(const char* cat, const char* name, uint64_t track,
                         double t_s, const char* arg_name, double arg_value) {
  Tracer& t = Tracer::Instance();
  if (!t.enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.phase = 'i';
  ev.clock = TraceClock::kVirtual;
  ev.track = track;
  ev.ts_us = VirtualUs(t_s);
  ev.arg_name = arg_name;
  ev.arg_value = arg_value;
  t.Record(ev);
}

}  // namespace cachegen::obs
