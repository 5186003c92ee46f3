// FlightRecorder: on a PAGE alert, cut a standalone Chrome-trace "incident"
// artifact out of the live tracer — the offending request's full
// virtual-time track plus every completed request whose track
// overlaps the surrounding virtual-time window, plus the cluster-alert
// track. The artifact is a self-contained trace document (validated by
// ci/check_trace.py) small enough to attach to an alert, instead of the
// whole-run trace.
//
// Determinism: an incident must be byte-identical across replays, but the
// tracer's rings also hold wall-clock events (their timestamps, and which
// decode-thread spans exist at capture time, differ from run to run) and
// partial tracks of requests still in flight. The capture therefore keeps
// ONLY cluster-virtual events, and only from tracks the caller's predicate
// admits — the ClusterServer passes "request already completed", a set that
// is fixed at the completion instant that triggered the capture. A
// completed request's virtual events are all recorded before its completion
// is popped, so the filtered event set is a pure function of the workload.
//
// Track selection: the offending track and track 0 (cluster alerts) are
// always included; any other admitted track is included when at least one of
// its events overlaps [t_s - before_s, t_s + after_s]. Included request
// tracks contribute their COMPLETE track (check_trace's FSM contract —
// admit first, write_back_committed last — holds per track); track 0 is
// window-filtered.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

namespace cachegen::obs {

class FlightRecorder {
 public:
  struct Options {
    double before_s = 2.0;     // window reach before the trigger instant
    double after_s = 1.0;      // window reach after it
    size_t max_incidents = 4;  // further triggers are dropped (counted)
  };

  struct Incident {
    uint64_t offending_track = 0;
    double t_s = 0.0;
    double window_start_s = 0.0;
    double window_end_s = 0.0;
    std::string reason;
    size_t num_events = 0;
    size_t num_tracks = 0;
    std::string trace_json;  // complete Chrome-trace document
  };

  explicit FlightRecorder(Options opts);

  // Capture an incident around virtual instant t_s. `track_allowed` admits
  // pid-2 tracks beyond the offending one and track 0; it must be a
  // deterministic predicate (ClusterServer: completed requests only).
  // Returns false when the incident cap is reached (trigger counted).
  bool Capture(uint64_t offending_track, double t_s, std::string reason,
               const std::function<bool(uint64_t)>& track_allowed);

  const std::vector<Incident>& incidents() const { return incidents_; }
  uint64_t dropped_triggers() const { return dropped_triggers_; }

  // Write each incident to dir/incident_<i>.json. Returns false on I/O
  // failure.
  bool WriteIncidents(const std::filesystem::path& dir) const;

 private:
  Options opts_;
  std::vector<Incident> incidents_;
  uint64_t dropped_triggers_ = 0;
};

}  // namespace cachegen::obs
