#include "obs/flight_recorder.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/env.h"
#include "obs/trace_export.h"

namespace itask::obs {

namespace {

// Capture window kept before a trigger.
constexpr std::uint64_t kWindowMs = 5000;
// Bundles per process; later triggers are counted but dropped, so a crash
// loop cannot fill the disk.
constexpr std::uint64_t kMaxBundles = 4;

std::string Sanitize(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out += ok ? c : '_';
  }
  return out.empty() ? std::string("unnamed") : out;
}

}  // namespace

FlightRecorder& FlightRecorder::Instance() {
  static FlightRecorder* instance = new FlightRecorder();
  return *instance;
}

FlightRecorder::FlightRecorder()
    : armed_(common::EnvBool("ITASK_FLIGHT_RECORDER", false)),
      dir_(common::EnvString("ITASK_FLIGHT_RECORDER_DIR", "flight_recorder")) {}

void FlightRecorder::Register(Tracer* tracer, const std::string& label) {
  if (tracer == nullptr) {
    return;
  }
  if (armed_) {
    tracer->set_enabled(true);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const Source& source : sources_) {
    if (source.tracer == tracer) {
      return;
    }
  }
  sources_.push_back(Source{tracer, Sanitize(label)});
}

void FlightRecorder::Unregister(Tracer* tracer) {
  std::lock_guard<std::mutex> lock(mu_);
  sources_.erase(std::remove_if(sources_.begin(), sources_.end(),
                                [tracer](const Source& source) {
                                  return source.tracer == tracer;
                                }),
                 sources_.end());
}

std::uint64_t FlightRecorder::trigger_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return triggers_;
}

std::string FlightRecorder::Trigger(const std::string& reason) {
  if (!armed_) {
    return "";
  }
  std::vector<Source> sources;
  std::uint64_t bundle_index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++triggers_;
    if (bundles_written_ >= kMaxBundles) {
      return "";
    }
    bundle_index = bundles_written_++;
    sources = sources_;
  }
  const std::string bundle_dir =
      dir_ + "/" + std::to_string(bundle_index) + "-" + Sanitize(reason);
  std::error_code ec;
  std::filesystem::create_directories(bundle_dir, ec);
  if (ec) {
    return "";
  }

  std::ofstream manifest(bundle_dir + "/MANIFEST.txt");
  manifest << "reason: " << reason << "\n"
           << "window_ms: " << kWindowMs << "\n"
           << "sources: " << sources.size() << "\n";
  const std::uint64_t window_ns = kWindowMs * 1'000'000ULL;
  std::size_t file_index = 0;
  for (const Source& source : sources) {
    const std::uint64_t now_ns = source.tracer->NowNs();
    const std::uint64_t cutoff_ns = now_ns > window_ns ? now_ns - window_ns : 0;
    std::vector<Event> events = source.tracer->Snapshot();
    events.erase(std::remove_if(events.begin(), events.end(),
                                [cutoff_ns](const Event& event) {
                                  return event.t_ns < cutoff_ns;
                                }),
                 events.end());
    const TracerStats stats = source.tracer->stats();
    TraceProcessMeta meta;
    meta.name = source.label;
    meta.epoch_us = source.tracer->EpochSteadyNs() / 1000;
    meta.events_dropped = stats.dropped;
    const std::string file_name =
        std::to_string(file_index++) + "-" + source.label + ".trace.json";
    std::ofstream os(bundle_dir + "/" + file_name);
    WriteChromeTrace(os, events, meta);
    manifest << "  " << file_name << ": events=" << events.size()
             << " dropped=" << stats.dropped << "\n";
  }
  return bundle_dir;
}

}  // namespace itask::obs
