#include "common/metrics.h"

#include <algorithm>
#include <cstdio>

namespace itask::common {

namespace {

void AppendJsonValue(std::string* out, bool v) { *out += v ? "true" : "false"; }

void AppendJsonValue(std::string* out, std::uint64_t v) { *out += std::to_string(v); }

void AppendJsonValue(std::string* out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  *out += buf;
}

void AppendJsonValue(std::string* out, const obs::HistogramSnapshot& h) {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "{\"count\":%llu,\"sum\":%llu,\"max\":%llu,\"p50\":%.1f,\"p95\":%.1f,"
                "\"p99\":%.1f}",
                static_cast<unsigned long long>(h.count), static_cast<unsigned long long>(h.sum),
                static_cast<unsigned long long>(h.max), h.Quantile(0.50), h.Quantile(0.95),
                h.Quantile(0.99));
  *out += buf;
}

}  // namespace

void RunMetrics::Merge(const RunMetrics& other) {
  ForEachField([&](const char*, auto field, auto rule) {
    decltype(rule)::Apply(this->*field, other.*field);
  });
}

void RunMetrics::AppendJson(std::string* out) const {
  bool first = true;
  ForEachField([&](const char* name, auto field, auto) {
    *out += first ? "\"" : ",\"";
    first = false;
    *out += name;
    *out += "\":";
    AppendJsonValue(out, this->*field);
  });
}

std::string RunMetrics::Summary() const {
  char buf[320];
  int n = std::snprintf(buf, sizeof(buf),
                        "%s wall=%.1fms gc=%.1fms (%llu GCs, %llu LUGC) peak=%s interrupts=%llu",
                        succeeded ? "ok" : (out_of_memory ? "OME" : "failed"), wall_ms, gc_ms,
                        static_cast<unsigned long long>(gc_count),
                        static_cast<unsigned long long>(lugc_count),
                        FormatBytes(peak_heap_bytes).c_str(),
                        static_cast<unsigned long long>(interrupts));
  if (gc_pause_hist.count > 0 && n > 0 && static_cast<std::size_t>(n) < sizeof(buf)) {
    std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                  " gc_pause[p50=%.2fms p95=%.2fms max=%.2fms]",
                  gc_pause_hist.Quantile(0.5) / 1e6, gc_pause_hist.Quantile(0.95) / 1e6,
                  static_cast<double>(gc_pause_hist.max) / 1e6);
  }
  return buf;
}

std::string FormatBytes(std::uint64_t bytes) {
  char buf[64];
  const double b = static_cast<double>(bytes);
  if (bytes >= 1024ULL * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.2fGB", b / (1024.0 * 1024.0 * 1024.0));
  } else if (bytes >= 1024ULL * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fMB", b / (1024.0 * 1024.0));
  } else if (bytes >= 1024ULL) {
    std::snprintf(buf, sizeof(buf), "%.1fKB", b / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace itask::common
