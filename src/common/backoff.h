// Unified retry/deadline policy for every networked wait in the system.
//
// Before this header, each subsystem hand-rolled its own retry loop: the
// transport sender slept 1<<failures ms, the recovery ledger had a private
// BackoffSleep, the shuffle fabric waited one fixed ack_timeout_ms, ctrl
// connects blocked forever. This module replaces those ad-hoc constants with
// one shape — jittered capped exponential backoff under an optional total
// deadline budget — parameterized per *use* so chaos sweeps can reason about
// (and count) every retry and giveup in the system through one registry.
//
// Jitter is deterministic: a SplitMix64 hash of (salt, attempt) — no global
// RNG — so seeded chaos runs replay the same delay sequence. The deadline
// clock is the wall (steady_clock): budgets bound real time, not attempts.
#ifndef ITASK_COMMON_BACKOFF_H_
#define ITASK_COMMON_BACKOFF_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>

namespace itask::common {

// Every retry loop in the system declares which policy it runs under, so the
// registry's counters attribute retries/giveups to a concrete wait.
enum class BackoffUse : std::uint8_t {
  kShuffleAck = 0,  // Fabric-level shuffle ack wait (deadline budget).
  kLedgerDeliver,   // Recovery ledger delivery/re-execution/migration retries.
  kSendRetry,       // Transport sender reconnect after a failed batch.
  kLoadRetry,       // EnsureResident spill reload retries.
  kCtrlConnect,     // Initial ctrl-plane join connect.
  kCtrlReconnect,   // Ctrl-plane session resume after a dead socket.
  kUseCount,        // Sentinel — keep last.
};

constexpr const char* BackoffUseName(BackoffUse use) {
  switch (use) {
    case BackoffUse::kShuffleAck: return "shuffle_ack";
    case BackoffUse::kLedgerDeliver: return "ledger_deliver";
    case BackoffUse::kSendRetry: return "send_retry";
    case BackoffUse::kLoadRetry: return "load_retry";
    case BackoffUse::kCtrlConnect: return "ctrl_connect";
    case BackoffUse::kCtrlReconnect: return "ctrl_reconnect";
    case BackoffUse::kUseCount: break;
  }
  return "unknown";
}

struct BackoffPolicy {
  double base_ms = 1.0;     // First retry delay.
  double cap_ms = 50.0;     // Exponential growth saturates here.
  double multiplier = 2.0;  // Growth per attempt.
  double jitter = 0.25;     // +/- fraction applied to each delay.
  int max_attempts = 5;     // Retries beyond the first try; < 0 = unlimited.
  double deadline_ms = 0.0; // Total wall-clock budget; 0 = none.
};

namespace backoff_detail {

// splitmix64 — the same deterministic mixer the recovery jitter used.
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace backoff_detail

// Pure function of (policy, attempt, salt): the delay before retry |attempt|
// (1-based). Deterministic — unit tests assert the jitter bounds directly:
// result is within +/- policy.jitter of base_ms * multiplier^(attempt-1),
// capped at cap_ms before jittering.
inline double BackoffDelayMs(const BackoffPolicy& policy, int attempt,
                             std::uint64_t salt) {
  double ms = policy.base_ms;
  for (int i = 1; i < attempt && ms < policy.cap_ms; ++i) {
    ms *= policy.multiplier;
  }
  ms = std::min(ms, policy.cap_ms);
  const std::uint64_t mixed =
      backoff_detail::Mix64(salt + static_cast<std::uint64_t>(attempt));
  const double unit = static_cast<double>(mixed & 0xffff) / 65535.0;  // [0, 1]
  ms *= 1.0 + (unit - 0.5) * 2.0 * policy.jitter;
  return std::max(ms, 0.0);
}

// Process-global retry/giveup accounting per BackoffUse. Snapshot deltas give
// per-job numbers (ItaskJob records the baseline at construction); chaos_run
// reports the absolute per-use totals in its JSON.
class BackoffRegistry {
 public:
  static constexpr int kUses = static_cast<int>(BackoffUse::kUseCount);

  struct Snapshot {
    std::uint64_t retries[kUses] = {};
    std::uint64_t giveups[kUses] = {};

    std::uint64_t total_retries() const {
      std::uint64_t n = 0;
      for (const std::uint64_t r : retries) {
        n += r;
      }
      return n;
    }
    std::uint64_t total_giveups() const {
      std::uint64_t n = 0;
      for (const std::uint64_t g : giveups) {
        n += g;
      }
      return n;
    }
  };

  static BackoffRegistry& Instance() {
    static BackoffRegistry registry;
    return registry;
  }

  void NoteRetry(BackoffUse use) {
    retries_[static_cast<int>(use)].fetch_add(1, std::memory_order_relaxed);
  }
  void NoteGiveup(BackoffUse use) {
    giveups_[static_cast<int>(use)].fetch_add(1, std::memory_order_relaxed);
  }

  Snapshot snapshot() const {
    Snapshot s;
    for (int i = 0; i < kUses; ++i) {
      s.retries[i] = retries_[i].load(std::memory_order_relaxed);
      s.giveups[i] = giveups_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  std::atomic<std::uint64_t> retries_[kUses] = {};
  std::atomic<std::uint64_t> giveups_[kUses] = {};
};

// A wall-clock budget. Default-constructed (or budget <= 0) = unlimited.
class Deadline {
 public:
  Deadline() = default;
  explicit Deadline(double budget_ms) {
    if (budget_ms > 0.0) {
      unlimited_ = false;
      until_ = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double, std::milli>(budget_ms));
    }
  }

  bool unlimited() const { return unlimited_; }
  bool Expired() const {
    return !unlimited_ && std::chrono::steady_clock::now() >= until_;
  }
  double RemainingMs() const {
    if (unlimited_) {
      return std::numeric_limits<double>::infinity();
    }
    const auto left = until_ - std::chrono::steady_clock::now();
    return std::max(0.0, std::chrono::duration<double, std::milli>(left).count());
  }
  // For cv.wait_until: the budget's end, or far-enough-future when unlimited.
  std::chrono::steady_clock::time_point until() const {
    return unlimited_ ? std::chrono::steady_clock::now() + std::chrono::hours(24)
                      : until_;
  }

 private:
  bool unlimited_ = true;
  std::chrono::steady_clock::time_point until_{};
};

// One retry session. Next() hands out the delay before each retry and stops
// (counting a giveup in the registry) when attempts or the deadline budget
// run out. Typical shape:
//
//   common::Backoff backoff(common::BackoffUse::kSendRetry, policy, salt);
//   while (!TryOnce()) {
//     double delay_ms;
//     if (!backoff.Next(&delay_ms)) { return GiveUp(); }
//     SleepOrWaitFor(delay_ms);
//   }
class Backoff {
 public:
  Backoff(BackoffUse use, const BackoffPolicy& policy, std::uint64_t salt)
      : use_(use), policy_(policy), salt_(salt), deadline_(policy.deadline_ms) {}

  // On true: *delay_ms is the jittered delay before the next retry (clamped
  // to the remaining deadline budget) and a retry is counted. On false: the
  // session is exhausted (attempt cap or deadline) and a giveup is counted —
  // exactly once, no matter how often the caller re-asks.
  bool Next(double* delay_ms) {
    if (exhausted_) {
      return false;
    }
    if ((policy_.max_attempts >= 0 && attempts_ >= policy_.max_attempts) ||
        deadline_.Expired()) {
      exhausted_ = true;
      BackoffRegistry::Instance().NoteGiveup(use_);
      return false;
    }
    ++attempts_;
    double ms = BackoffDelayMs(policy_, attempts_, salt_);
    if (!deadline_.unlimited()) {
      ms = std::min(ms, deadline_.RemainingMs());
    }
    *delay_ms = ms;
    BackoffRegistry::Instance().NoteRetry(use_);
    return true;
  }

  // Next() + sleep in one step, for call sites with nothing to wait on.
  bool SleepNext() {
    double ms = 0.0;
    if (!Next(&ms)) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
    return true;
  }

  int attempts() const { return attempts_; }
  const Deadline& deadline() const { return deadline_; }

 private:
  BackoffUse use_;
  BackoffPolicy policy_;
  std::uint64_t salt_;
  Deadline deadline_;
  int attempts_ = 0;
  bool exhausted_ = false;
};

}  // namespace itask::common

#endif  // ITASK_COMMON_BACKOFF_H_
