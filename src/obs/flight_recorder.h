// Pressure flight recorder (DESIGN.md §15.3).
//
// An always-on, bounded post-mortem capture: every Cluster registers its
// tracer here, and when something terminal happens — an OME escalation that
// drains a node, a node declared dead, a job abort — the triggering site calls
// Trigger(reason), which dumps the last N seconds of events from every
// registered tracer into a bundle directory, one Chrome trace per tracer plus
// a MANIFEST. The cost model is the tracer's existing per-thread rings, so
// "always on" adds no new steady-state work; the recorder only pays at dump
// time.
//
// Knobs (env, read once by the singleton; strict common/env.h parsing):
//   ITASK_FLIGHT_RECORDER=1          arm the recorder (default: disarmed —
//                                    Trigger() is then a cheap no-op)
//   ITASK_FLIGHT_RECORDER_DIR=path   bundle root (default ./flight_recorder)
// A bundle keeps the last 5 s before its trigger, and a process writes at
// most 4 bundles.
#ifndef ITASK_OBS_FLIGHT_RECORDER_H_
#define ITASK_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/tracer.h"

namespace itask::obs {

class FlightRecorder {
 public:
  // Process-wide singleton: triggers fired from the coordinator of one job
  // must capture every cluster in the process (a daemon can host several).
  static FlightRecorder& Instance();

  bool armed() const { return armed_; }

  // Registers a tracer as a capture source. When the recorder is armed the
  // tracer is enabled on registration, so captures have data even if no other
  // subsystem asked for tracing. |label| names the dump file (sanitized).
  void Register(Tracer* tracer, const std::string& label);
  void Unregister(Tracer* tracer);

  // Dumps the trailing window from every registered tracer into a fresh
  // bundle directory and returns its path; returns "" when disarmed, over the
  // bundle cap, or on I/O failure. Safe to call from any thread, including
  // concurrently with emitters (tracer snapshots tolerate that).
  std::string Trigger(const std::string& reason);

  // Triggers fired so far (including ones dropped by the bundle cap).
  std::uint64_t trigger_count() const;

 private:
  FlightRecorder();

  struct Source {
    Tracer* tracer = nullptr;
    std::string label;
  };

  const bool armed_;
  const std::string dir_;

  mutable std::mutex mu_;
  std::vector<Source> sources_;
  std::uint64_t triggers_ = 0;
  std::uint64_t bundles_written_ = 0;
};

}  // namespace itask::obs

#endif  // ITASK_OBS_FLIGHT_RECORDER_H_
