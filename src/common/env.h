// Strict environment-variable parsing for the ITASK_* knobs, which only
// cluster::ApplyEnv (src/cluster/env.cc) and the flight recorder read.
//
// A hand-rolled std::getenv + atoi/atof silently reads garbage
// ("ITASK_HEARTBEAT_MS=5ms" as 5, "two" as 0). These helpers parse the
// *whole* value or reject it: a malformed value logs one warning and falls
// back to the caller's default, so a typo in a CI environment block cannot
// silently reconfigure the system.
//
// All parsers accept leading/trailing ASCII whitespace and nothing else
// around the number. EnvBool accepts 0/1/true/false/on/off/yes/no
// (case-insensitive).
#ifndef ITASK_COMMON_ENV_H_
#define ITASK_COMMON_ENV_H_

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/logging.h"

namespace itask::common {

namespace env_detail {

inline const char* SkipSpace(const char* p) {
  while (*p != '\0' && std::isspace(static_cast<unsigned char>(*p))) {
    ++p;
  }
  return p;
}

// True when |p| points at end-of-string after optional trailing whitespace —
// i.e. the numeric parse consumed the whole value.
inline bool AtEnd(const char* p) { return *SkipSpace(p) == '\0'; }

inline void WarnGarbage(const char* name, const char* value, const char* kind) {
  LOG_WARN() << "env: ignoring " << name << "=\"" << value << "\" (not a valid "
             << kind << "); using the default";
}

}  // namespace env_detail

// ---- Optional-returning parsers (no env lookup; unit-testable) ----

inline std::optional<long long> ParseInt(const char* s) {
  if (s == nullptr) {
    return std::nullopt;
  }
  const char* start = env_detail::SkipSpace(s);
  if (*start == '\0') {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(start, &end, 10);
  if (end == start || errno == ERANGE || !env_detail::AtEnd(end)) {
    return std::nullopt;
  }
  return v;
}

inline std::optional<double> ParseDouble(const char* s) {
  if (s == nullptr) {
    return std::nullopt;
  }
  const char* start = env_detail::SkipSpace(s);
  if (*start == '\0') {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start || errno == ERANGE || !env_detail::AtEnd(end)) {
    return std::nullopt;
  }
  return v;
}

inline std::optional<bool> ParseBool(const char* s) {
  if (s == nullptr) {
    return std::nullopt;
  }
  std::string word;
  for (const char* p = env_detail::SkipSpace(s); *p != '\0'; ++p) {
    word.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
  }
  while (!word.empty() && std::isspace(static_cast<unsigned char>(word.back()))) {
    word.pop_back();
  }
  if (word == "1" || word == "true" || word == "on" || word == "yes") {
    return true;
  }
  if (word == "0" || word == "false" || word == "off" || word == "no") {
    return false;
  }
  return std::nullopt;
}

// ---- Env-reading helpers (fallback on unset, empty, or garbage) ----

inline int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *env_detail::SkipSpace(v) == '\0') {
    return fallback;
  }
  if (const auto parsed = ParseInt(v)) {
    return static_cast<int>(*parsed);
  }
  env_detail::WarnGarbage(name, v, "integer");
  return fallback;
}

inline std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *env_detail::SkipSpace(v) == '\0') {
    return fallback;
  }
  if (const auto parsed = ParseInt(v); parsed && *parsed >= 0) {
    return static_cast<std::uint64_t>(*parsed);
  }
  env_detail::WarnGarbage(name, v, "non-negative integer");
  return fallback;
}

inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *env_detail::SkipSpace(v) == '\0') {
    return fallback;
  }
  if (const auto parsed = ParseDouble(v)) {
    return *parsed;
  }
  env_detail::WarnGarbage(name, v, "number");
  return fallback;
}

// Like EnvDouble but additionally rejects values <= 0 (timeouts, periods,
// probabilities-of-working scales — knobs where zero or negative is garbage).
inline double EnvPositiveDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *env_detail::SkipSpace(v) == '\0') {
    return fallback;
  }
  if (const auto parsed = ParseDouble(v); parsed && *parsed > 0.0) {
    return *parsed;
  }
  env_detail::WarnGarbage(name, v, "positive number");
  return fallback;
}

inline bool EnvBool(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *env_detail::SkipSpace(v) == '\0') {
    return fallback;
  }
  if (const auto parsed = ParseBool(v)) {
    return *parsed;
  }
  env_detail::WarnGarbage(name, v, "boolean");
  return fallback;
}

inline std::string EnvString(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v == nullptr || *v == '\0' ? fallback : std::string(v);
}

}  // namespace itask::common

#endif  // ITASK_COMMON_ENV_H_
