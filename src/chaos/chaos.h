// Deterministic concurrency-stress substrate for the IRS (CHESS-style
// schedule perturbation, scaled down to seeded injection).
//
// The interrupt/reactivation path of the paper lives on a concurrency
// knife-edge: the monitor raises REDUCE/GROW asynchronously while workers
// interrupt at tuple boundaries, park tagged intermediates, and the partition
// manager spills/reloads under pressure. Rare interleavings of those threads
// are exactly where races hide, and they almost never occur under the happy
// path. This module makes them reproducible:
//
//  - `CHAOS_POINT(name)` marks a scheduling-sensitive program point. When no
//    fuzzer is installed the macro is one relaxed atomic load (safe to leave
//    in hot paths, including per-tuple ones). When a ScheduleFuzzer is
//    installed, each point draws from a seeded per-thread stream and may
//    inject a yield or a short sleep, widening the race window at that point.
//
//  - `ScheduleFuzzer` also answers the fault-oriented draws the IRS consults
//    directly: forced pressure flips, monitor signal storms, forced OMEs and
//    shuffle delivery delays (see ScheduleFaults). A single uint64 seed fixes
//    the entire decision sequence of every per-thread stream, so a failing
//    seed replays the same injected schedule (determinism is per-thread-index,
//    not a full CHESS scheduler: the OS still interleaves, but the injected
//    perturbations are reproducible and in practice re-trigger the race
//    within a few runs).
//
//  - `FaultPlan` is every fault a run injects, in one value with one seed:
//    the schedule section above, spill I/O faults, node faults (kill, hang,
//    poison, disconnect, heal) and network faults. It parses from one spec
//    grammar (`FromSpec`; `ITASK_FAULTS` and `chaos_run --faults`), derives
//    from a bare seed (`FromSeed`) and prints back to a spec that parses to
//    the identical plan (`Describe`). A cluster applies it from
//    `ClusterConfig::faults` (DESIGN.md §10).
//
//  - A process-global violation log collects invariant breaches detected
//    inside the runtime (e.g. the partition queue's duplicate checks) where
//    throwing would mask the bug; IrsAuditor and chaos_run drain it.
//
// Layering: this header depends only on std; anything above common/ may call
// CHAOS_POINT (memsim, serde, io, itask all do).
#ifndef ITASK_CHAOS_CHAOS_H_
#define ITASK_CHAOS_CHAOS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace itask::chaos {

// Schedule section of a FaultPlan: perturbation intensities at every
// CHAOS_POINT plus the fault draws the IRS consults directly. All
// probabilities are per-draw; the default injects nothing.
struct ScheduleFaults {
  // ---- Schedule perturbation (every CHAOS_POINT) ----
  double yield_p = 0.0;   // std::this_thread::yield() at the point.
  double sleep_p = 0.0;   // Short sleep at the point.
  int max_sleep_us = 50;  // Sleep duration is uniform in [1, max_sleep_us].

  // ---- Fault injection (consulted at specific IRS points) ----
  // Monitor tick: spuriously toggle the pressure flag. Spurious pressure-on
  // forces interrupts the schedule did not need (legal by design: any task
  // may be interrupted at any safe point); spurious pressure-off delays
  // relief (the monitor re-detects via the next LUGC).
  double pressure_flip_p = 0.0;
  // Monitor tick: emit a burst of REDUCE signals regardless of heap state.
  double signal_storm_p = 0.0;
  int signal_storm_burst = 3;
  // Monitor tick: arm a forced OutOfMemoryError at the node's next managed
  // allocation (the paper's "allocation failure is the most urgent pressure
  // signal" path).
  double forced_ome_p = 0.0;
  // PushRemote: delay shuffle delivery by [1, shuffle_delay_max_us].
  double shuffle_delay_p = 0.0;
  int shuffle_delay_max_us = 200;

  bool active() const {
    return yield_p > 0 || sleep_p > 0 || pressure_flip_p > 0 || signal_storm_p > 0 ||
           forced_ome_p > 0 || shuffle_delay_p > 0;
  }
  bool operator==(const ScheduleFaults&) const = default;
};

class ScheduleFuzzer {
 public:
  ScheduleFuzzer(const ScheduleFaults& config, std::uint64_t seed);

  // Called from CHAOS_POINT. May yield or sleep; never throws.
  void Perturb(const char* point);

  // Fault draws (each consumes one value from the calling thread's stream).
  bool DrawPressureFlip() { return Draw(config_.pressure_flip_p); }
  int DrawSignalStorm() {
    return Draw(config_.signal_storm_p) ? config_.signal_storm_burst : 0;
  }
  bool DrawForcedOme() { return Draw(config_.forced_ome_p); }
  // 0 when no delay; otherwise microseconds in [1, shuffle_delay_max_us].
  int DrawShuffleDelayUs();

  std::uint64_t points_hit() const { return points_hit_.load(std::memory_order_relaxed); }

 private:
  friend struct ThreadStream;
  bool Draw(double p);
  std::uint64_t NextU64();  // Per-thread SplitMix64 stream.

  ScheduleFaults config_;
  const std::uint64_t seed_;
  const std::uint64_t epoch_;  // Distinguishes sequential fuzzer instances.
  std::atomic<std::uint64_t> thread_counter_{0};
  std::atomic<std::uint64_t> points_hit_{0};
};

// ---- Global installation ----
//
// Exactly one fuzzer may be installed at a time; Install/Uninstall are not
// thread-safe against each other (a cluster whose plan has an active schedule
// section installs one for its lifetime). Points read the pointer with a
// relaxed load.
void Install(ScheduleFuzzer* fuzzer);
void Uninstall();

namespace internal {
extern std::atomic<ScheduleFuzzer*> g_fuzzer;
extern std::atomic<bool> g_audit;
}  // namespace internal

inline ScheduleFuzzer* Current() {
  return internal::g_fuzzer.load(std::memory_order_relaxed);
}

// Debug-mode invariant auditing (queue duplicate checks, job-end audits).
// Enabled automatically by Install(); can also be enabled alone for tests.
inline bool AuditEnabled() { return internal::g_audit.load(std::memory_order_relaxed); }
void SetAuditEnabled(bool enabled);

// ---- Violation log ----
// Invariant breaches detected inside the runtime are recorded here instead of
// thrown: the detection sites run on worker threads mid-protocol, where an
// exception would be absorbed as a task failure and mask the finding.
void NoteViolation(const std::string& what);
std::uint64_t ViolationCount();
// Returns and clears the accumulated messages (capped at 64 retained).
std::vector<std::string> DrainViolations();

// Marks a scheduling-sensitive point. One relaxed load when idle.
#define CHAOS_POINT(name)                                                     \
  do {                                                                        \
    if (::itask::chaos::ScheduleFuzzer* chaos_f_ = ::itask::chaos::Current()) \
      chaos_f_->Perturb(name);                                                \
  } while (0)

// ---- One fault plan ----

// SplitMix64 from state |x|: the mixer every seeded decision stream draws
// from, so one seed fixes them all.
std::uint64_t Mix64(std::uint64_t x);
// The top 53 bits of |bits| as a uniform double in [0, 1).
double UnitFrom(std::uint64_t bits);

// Spill section: faults at the spill store's file write and read. A
// probability draws from a seeded per-store stream; every_nth fails every
// nth file op (writes and reads, 1-based). A failed write leaves the payload
// cached; a failed read fires before any state moves, so the spill stays
// loadable.
struct SpillFaults {
  double write_p = 0.0;
  double read_p = 0.0;
  int every_nth = 0;  // 0 = off.

  bool active() const { return write_p > 0 || read_p > 0 || every_nth > 0; }
  bool operator==(const SpillFaults&) const = default;
};

// Node section: one fault applied to one node at a job-relative time by the
// coordinator's fault poll (cluster::ItaskJob; DESIGN.md §11). kKill fences
// the node and stops its beats, kHang stops only the beats (a zombie),
// kPoison makes every later allocation on its heap throw OME, kDisconnect is
// a known network cut (the node parks in kDisconnected) and kHeal undoes it.
enum class NodeFaultKind : std::uint8_t { kKill, kHang, kPoison, kDisconnect, kHeal };

struct NodeFault {
  int node = 0;
  double at_ms = 0.0;
  NodeFaultKind kind = NodeFaultKind::kKill;
  // Ages the node's last beat by this much when the fault fires (for kKill,
  // kHang, kDisconnect), so detection does not race job completion. Tests
  // set it directly; the spec grammar has no clause for it.
  double silence_age_ms = 0.0;

  bool operator==(const NodeFault&) const = default;
};

// Wildcard endpoint for partition rules ("*" in the spec). The driver
// endpoint is -1, so the sentinel has to live far below it.
inline constexpr int kAnyEndpoint = std::numeric_limits<int>::min();

// A timed partition window. One-way blocks a->b traffic only; two-way blocks
// both directions and refuses new connections while active. duration_ms <= 0
// means the partition never heals on its own.
struct NetPartition {
  int a = kAnyEndpoint;
  int b = kAnyEndpoint;
  bool two_way = false;
  double start_ms = 0.0;
  double duration_ms = 0.0;

  bool ActiveAt(double elapsed_ms) const {
    if (elapsed_ms < start_ms) {
      return false;
    }
    return duration_ms <= 0.0 || elapsed_ms < start_ms + duration_ms;
  }
  bool operator==(const NetPartition&) const = default;
};

// Net section: per-frame misbehavior on the socket transports (applied by
// net::NetFaultEngine), timed partitions, and a count of ctrl-socket drops
// for chaos_run's ctrl resume slice.
struct NetFaults {
  // Per-frame probabilities in [0, 1].
  double drop = 0.0;
  double reorder = 0.0;
  double duplicate = 0.0;
  double corrupt = 0.0;
  double truncate = 0.0;
  double reset = 0.0;
  // With probability |delay| hold the frame delay_ms +/- delay_jitter_ms.
  double delay = 0.0;
  double delay_ms = 0.0;
  double delay_jitter_ms = 0.0;

  std::vector<NetPartition> partitions;
  int ctrl_drops = 0;

  bool active() const {
    return drop > 0 || reorder > 0 || duplicate > 0 || corrupt > 0 || truncate > 0 ||
           reset > 0 || delay > 0 || !partitions.empty() || ctrl_drops > 0;
  }
  bool operator==(const NetFaults&) const = default;
};

struct FaultPlan {
  // Seeds every decision stream: the fuzzer's per-thread streams, each spill
  // store's stream and the net engine's per-link draws.
  std::uint64_t seed = 0;
  ScheduleFaults schedule;
  SpillFaults spill;
  std::vector<NodeFault> node;
  NetFaults net;

  // Spec grammar (DESIGN.md §16.1), comma-separated optional clauses:
  //   seed=N  yield=P  sleep=P:US  flip=P  storm=P:BURST  ome=P  shuffle=P:US
  //   spillwrite=P  spillread=P  spillnth=N
  //   kill|hang|poison|disconnect|heal=NODE@MS
  //   drop=P  reorder=P  dup=P  corrupt=P  trunc=P  reset=P
  //   delay=P:MS[:JITTER_MS]  part=A>B@START+DUR  part=A<>B@START+DUR
  //   ctrldrop=N
  // P is in [0, 1], US and BURST are >= 1, times are ms >= 0, endpoints are
  // node ids, -1 (driver) or * (any). Node and part clauses accumulate; any
  // other clause given twice keeps its last value. A bare integer N is
  // FromSeed(N). Returns false with *err set on a malformed spec, leaving
  // *out untouched.
  static bool FromSpec(const std::string& spec, FaultPlan* out, std::string* err);

  // A moderate plan derived from |seed|: schedule intensities and a spill
  // write rate that keep jobs completable, plus frame-level net faults and
  // one always-healing one-way partition. Never draws node faults, read
  // faults, corrupt or truncate: those are opt-in through a spec.
  static FaultPlan FromSeed(std::uint64_t seed);

  // The plan as a spec, with shortest round-trip numbers:
  // FromSpec(Describe()) reproduces the plan exactly (silence_age_ms aside).
  std::string Describe() const;

  // Throws std::invalid_argument when a fault could never fire on a job of
  // |nodes| nodes: a node id outside [0, nodes), a partition endpoint other
  // than -1, * or a node id, or a node fault on a job without fault
  // tolerance.
  void CheckFires(int nodes, bool fault_tolerant) const;

  bool operator==(const FaultPlan&) const = default;
};

}  // namespace itask::chaos

#endif  // ITASK_CHAOS_CHAOS_H_
