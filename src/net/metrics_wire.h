// Wire codec for RunMetrics snapshots (telemetry shipping, DESIGN.md §15.2).
//
// A node daemon serializes its live job-level RunMetrics with
// EncodeRunMetrics and ships it inside a kMetrics message on the heartbeat
// cadence; the ctrl server decodes and folds the latest snapshot per peer
// into a cluster rollup with RunMetrics::Merge. Snapshots are absolute
// (cumulative since job start), not deltas — the server keeps only the
// newest one per (peer, job), so a lost or reordered ship costs staleness,
// never double-counting.
//
// The layout is RunMetrics' field list in order (common/metrics.h): bools as
// one byte, counters as varints, doubles as 8 bytes, histograms as their
// bounds, bucket counts, count, sum and max.
//
// Header-only on purpose: tools that want to peek at shipped metrics (bench
// harnesses, tests) shouldn't need the whole net library's socket machinery.
#ifndef ITASK_NET_METRICS_WIRE_H_
#define ITASK_NET_METRICS_WIRE_H_

#include <cstdint>
#include <stdexcept>

#include "common/byte_buffer.h"
#include "common/metrics.h"
#include "obs/histogram.h"
#include "serde/serializer.h"

namespace itask::net {

// Bump on any layout change; decode is strict (same policy as JobSpec).
inline constexpr std::uint32_t kMetricsWireVersion = 3;

namespace metrics_wire_detail {

inline void Write(serde::Writer& w, bool v) { w.WriteU8(v ? 1 : 0); }
inline void Write(serde::Writer& w, std::uint64_t v) { w.WriteVarint(v); }
inline void Write(serde::Writer& w, double v) { w.WriteDouble(v); }

inline void Write(serde::Writer& w, const obs::HistogramSnapshot& h) {
  w.WriteVarint(h.bounds.size());
  for (const std::uint64_t bound : h.bounds) {
    w.WriteVarint(bound);
  }
  w.WriteVarint(h.counts.size());
  for (const std::uint64_t count : h.counts) {
    w.WriteVarint(count);
  }
  w.WriteVarint(h.count);
  w.WriteVarint(h.sum);
  w.WriteVarint(h.max);
}

inline void Read(serde::Reader& r, bool* v) { *v = r.ReadU8() != 0; }
inline void Read(serde::Reader& r, std::uint64_t* v) { *v = r.ReadVarint(); }
inline void Read(serde::Reader& r, double* v) { *v = r.ReadDouble(); }

inline void Read(serde::Reader& r, obs::HistogramSnapshot* h) {
  h->bounds.resize(r.ReadVarint());
  for (std::uint64_t& bound : h->bounds) {
    bound = r.ReadVarint();
  }
  h->counts.resize(r.ReadVarint());
  for (std::uint64_t& count : h->counts) {
    count = r.ReadVarint();
  }
  h->count = r.ReadVarint();
  h->sum = r.ReadVarint();
  h->max = r.ReadVarint();
}

}  // namespace metrics_wire_detail

inline void EncodeRunMetrics(const common::RunMetrics& m, common::ByteBuffer* out) {
  serde::Writer w(out);
  w.WriteVarint(kMetricsWireVersion);
  common::RunMetrics::ForEachField(
      [&](const char*, auto field, auto) { metrics_wire_detail::Write(w, m.*field); });
}

inline common::RunMetrics DecodeRunMetrics(common::ByteBuffer* buf) {
  serde::Reader r(buf);
  const std::uint64_t version = r.ReadVarint();
  if (version != kMetricsWireVersion) {
    throw std::runtime_error("net: unsupported metrics wire version");
  }
  common::RunMetrics m;
  common::RunMetrics::ForEachField(
      [&](const char*, auto field, auto) { metrics_wire_detail::Read(r, &(m.*field)); });
  return m;
}

}  // namespace itask::net

#endif  // ITASK_NET_METRICS_WIRE_H_
