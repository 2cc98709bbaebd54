// Flight recorder: a bounded ring of structured fault/recovery events.
//
// Chaos-soak failures are only debuggable post-hoc if the seconds *before*
// the failure are on record.  The recorder keeps the newest `capacity`
// events — recovery-ladder steps, breaker trips, write replay, service
// restarts, grace-period transitions, WARN+ log lines — each stamped with
// the simulated time and a monotonic sequence number, and dumps them as one
// JSON document on fault injection, oracle mismatch, or on demand
// (`simulate --flight-out=FILE`).
//
// Every field is a pure function of the simulation (sim time, node and
// component names, deterministic counters), so two runs with the same seed
// produce byte-identical dumps — a failing dump *is* its reproduction.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

namespace dpnfs::obs {

struct FlightEvent {
  uint64_t seq = 0;      ///< monotonic, 1-based recording order
  int64_t time_ns = 0;   ///< simulated time (-1: no clock available)
  std::string node;      ///< simulated machine ("" when not attributable)
  std::string component; ///< subsystem that reported it ("nfs.client", ...)
  std::string kind;      ///< event class ("restart", "breaker.open", ...)
  std::string detail;    ///< human-readable specifics
};

class FlightRecorder {
 public:
  /// Every deployment's recorder keeps the default 4096 events.
  explicit FlightRecorder(size_t capacity = 4096)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void record(int64_t time_ns, std::string_view node,
              std::string_view component, std::string_view kind,
              std::string_view detail);

  const std::deque<FlightEvent>& events() const noexcept { return events_; }
  size_t capacity() const noexcept { return capacity_; }
  uint64_t events_recorded() const noexcept { return recorded_; }
  /// Oldest events pushed out of the ring (recorded - resident).
  uint64_t events_dropped() const noexcept { return dropped_; }

  /// {"capacity": .., "events_recorded": .., "events_dropped": ..,
  ///  "events": [{"seq", "time_ns", "node", "component", "kind",
  ///              "detail"}, ...]}   (oldest resident event first)
  std::string to_json() const;

 private:
  size_t capacity_;
  std::deque<FlightEvent> events_;
  uint64_t recorded_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace dpnfs::obs
