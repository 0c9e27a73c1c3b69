#include "chaos/chaos.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace itask::chaos {

namespace internal {
std::atomic<ScheduleFuzzer*> g_fuzzer{nullptr};
std::atomic<bool> g_audit{false};
}  // namespace internal

namespace {

std::uint64_t Mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Monotone across fuzzer constructions so a thread-local stream seeded by a
// previous (possibly freed and address-reused) fuzzer is never mistaken for
// the current one.
std::atomic<std::uint64_t> g_epoch{0};

std::mutex g_violation_mu;
std::vector<std::string> g_violations;
std::atomic<std::uint64_t> g_violation_count{0};

}  // namespace

// Each thread owns one SplitMix64 stream per fuzzer epoch, seeded from the
// fuzzer seed and the order in which threads first hit a point. Given a fixed
// seed and a stable thread-creation order (the IRS spawns its workers
// deterministically), every thread replays the same decision sequence.
struct ThreadStream {
  std::uint64_t epoch = ~0ULL;
  std::uint64_t state = 0;
};

namespace {
thread_local ThreadStream t_stream;
}  // namespace

ScheduleFuzzer::ScheduleFuzzer(const ScheduleFaults& config, std::uint64_t seed)
    : config_(config),
      seed_(seed),
      epoch_(g_epoch.fetch_add(1, std::memory_order_relaxed) + 1) {}

std::uint64_t ScheduleFuzzer::NextU64() {
  ThreadStream& s = t_stream;
  if (s.epoch != epoch_) {
    s.epoch = epoch_;
    const std::uint64_t index = thread_counter_.fetch_add(1, std::memory_order_relaxed);
    s.state = Mix(seed_ ^ Mix(index + 0x9e3779b97f4a7c15ULL));
  }
  std::uint64_t z = (s.state += 0x9e3779b97f4a7c15ULL);
  return Mix(z);
}

bool ScheduleFuzzer::Draw(double p) {
  if (p <= 0.0) {
    return false;
  }
  return UnitFrom(NextU64()) < p;
}

void ScheduleFuzzer::Perturb(const char* /*point*/) {
  points_hit_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t draw = NextU64();
  const double u = UnitFrom(draw);
  if (u < config_.sleep_p) {
    const int span = config_.max_sleep_us > 0 ? config_.max_sleep_us : 1;
    const int us = 1 + static_cast<int>((draw >> 32) % static_cast<std::uint64_t>(span));
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  } else if (u < config_.sleep_p + config_.yield_p) {
    std::this_thread::yield();
  }
}

int ScheduleFuzzer::DrawShuffleDelayUs() {
  if (!Draw(config_.shuffle_delay_p)) {
    return 0;
  }
  const int span = config_.shuffle_delay_max_us > 0 ? config_.shuffle_delay_max_us : 1;
  return 1 + static_cast<int>(NextU64() % static_cast<std::uint64_t>(span));
}

void Install(ScheduleFuzzer* fuzzer) {
  internal::g_fuzzer.store(fuzzer, std::memory_order_release);
  if (fuzzer != nullptr) {
    internal::g_audit.store(true, std::memory_order_relaxed);
  }
}

void Uninstall() { internal::g_fuzzer.store(nullptr, std::memory_order_release); }

void SetAuditEnabled(bool enabled) {
  internal::g_audit.store(enabled, std::memory_order_relaxed);
}

void NoteViolation(const std::string& what) {
  g_violation_count.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(g_violation_mu);
  if (g_violations.size() < 64) {
    g_violations.push_back(what);
  }
  std::fprintf(stderr, "[chaos] INVARIANT VIOLATION: %s\n", what.c_str());
}

std::uint64_t ViolationCount() { return g_violation_count.load(std::memory_order_relaxed); }

std::vector<std::string> DrainViolations() {
  std::lock_guard lock(g_violation_mu);
  g_violation_count.store(0, std::memory_order_relaxed);
  std::vector<std::string> out;
  out.swap(g_violations);
  return out;
}

// ---- FaultPlan ----

std::uint64_t Mix64(std::uint64_t x) { return Mix(x + 0x9e3779b97f4a7c15ULL); }

double UnitFrom(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);  // 2^53
}

namespace {

// A finite number in [0, max], parsed whole: "5ms", "1x", "" and "inf" are
// errors.
bool ParseReal(const std::string& s, double* out,
               double max = std::numeric_limits<double>::max()) {
  const char* last = s.data() + s.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), last, v);
  if (s.empty() || ec != std::errc() || ptr != last || !(v >= 0.0 && v <= max)) {
    return false;
  }
  *out = v;
  return true;
}

template <typename Int>
bool ParseWhole(const std::string& s, Int* out) {
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, *out);
  return !s.empty() && ec == std::errc() && ptr == last;
}

bool ParseEndpoint(const std::string& s, int* out) {
  if (s == "*") {
    *out = kAnyEndpoint;
    return true;
  }
  return ParseWhole(s, out);
}

// Shortest text that parses back to the same double.
std::string Num(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, ptr);
}

std::string Endpoint(int e) { return e == kAnyEndpoint ? "*" : std::to_string(e); }

std::vector<std::string> SplitOn(const std::string& s, char sep) {
  std::vector<std::string> parts(1);
  for (const char c : s) {
    if (c == sep) {
      parts.emplace_back();
    } else {
      parts.back().push_back(c);
    }
  }
  return parts;
}

// Value shapes of the spec grammar (see FaultPlan::FromSpec).
enum class Shape : std::uint8_t {
  kScalar,  // P, N or P:N: the row's probability and/or count, in that order
  kSeed,    // N, unsigned 64-bit
  kDelay,   // P:MS[:JITTER_MS]
  kNode,    // NODE@MS, repeatable
  kPart,    // A>B@START+DUR or A<>B@START+DUR, repeatable
};

using ProbField = double& (*)(FaultPlan&);
using IntField = int& (*)(FaultPlan&);

struct Clause {
  const char* key;
  Shape shape;
  ProbField prob = nullptr;  // kScalar: a probability in [0, 1].
  // kScalar: a count >= 0, or >= 1 when it qualifies a probability.
  IntField count = nullptr;
  NodeFaultKind node_kind = NodeFaultKind::kKill;  // kNode
};

// One row per clause, in Describe() order: seed, schedule, spill, node, net.
const Clause kClauses[] = {
    {"seed", Shape::kSeed},
    {"yield", Shape::kScalar, [](FaultPlan& p) -> double& { return p.schedule.yield_p; }},
    {"sleep", Shape::kScalar, [](FaultPlan& p) -> double& { return p.schedule.sleep_p; },
     [](FaultPlan& p) -> int& { return p.schedule.max_sleep_us; }},
    {"flip", Shape::kScalar, [](FaultPlan& p) -> double& { return p.schedule.pressure_flip_p; }},
    {"storm", Shape::kScalar, [](FaultPlan& p) -> double& { return p.schedule.signal_storm_p; },
     [](FaultPlan& p) -> int& { return p.schedule.signal_storm_burst; }},
    {"ome", Shape::kScalar, [](FaultPlan& p) -> double& { return p.schedule.forced_ome_p; }},
    {"shuffle", Shape::kScalar,
     [](FaultPlan& p) -> double& { return p.schedule.shuffle_delay_p; },
     [](FaultPlan& p) -> int& { return p.schedule.shuffle_delay_max_us; }},
    {"spillwrite", Shape::kScalar, [](FaultPlan& p) -> double& { return p.spill.write_p; }},
    {"spillread", Shape::kScalar, [](FaultPlan& p) -> double& { return p.spill.read_p; }},
    {"spillnth", Shape::kScalar, nullptr, [](FaultPlan& p) -> int& { return p.spill.every_nth; }},
    {"kill", Shape::kNode, nullptr, nullptr, NodeFaultKind::kKill},
    {"hang", Shape::kNode, nullptr, nullptr, NodeFaultKind::kHang},
    {"poison", Shape::kNode, nullptr, nullptr, NodeFaultKind::kPoison},
    {"disconnect", Shape::kNode, nullptr, nullptr, NodeFaultKind::kDisconnect},
    {"heal", Shape::kNode, nullptr, nullptr, NodeFaultKind::kHeal},
    {"drop", Shape::kScalar, [](FaultPlan& p) -> double& { return p.net.drop; }},
    {"reorder", Shape::kScalar, [](FaultPlan& p) -> double& { return p.net.reorder; }},
    {"dup", Shape::kScalar, [](FaultPlan& p) -> double& { return p.net.duplicate; }},
    {"corrupt", Shape::kScalar, [](FaultPlan& p) -> double& { return p.net.corrupt; }},
    {"trunc", Shape::kScalar, [](FaultPlan& p) -> double& { return p.net.truncate; }},
    {"reset", Shape::kScalar, [](FaultPlan& p) -> double& { return p.net.reset; }},
    {"delay", Shape::kDelay},
    {"part", Shape::kPart},
    {"ctrldrop", Shape::kScalar, nullptr, [](FaultPlan& p) -> int& { return p.net.ctrl_drops; }},
};

// |f| as its spec clause, e.g. "kill=1@5".
std::string NodeFaultText(const NodeFault& f) {
  const Clause* row = std::find_if(std::begin(kClauses), std::end(kClauses), [&f](const Clause& c) {
    return c.shape == Shape::kNode && c.node_kind == f.kind;
  });
  return std::string(row->key) + "=" + std::to_string(f.node) + "@" + Num(f.at_ms);
}

// A>B@START+DUR | A<>B@START+DUR
bool ParsePartition(const std::string& value, NetPartition* out) {
  const std::size_t at = value.find('@');
  const std::size_t plus = value.find('+', at == std::string::npos ? 0 : at);
  if (at == std::string::npos || plus == std::string::npos) {
    return false;
  }
  const std::string link = value.substr(0, at);
  std::size_t arrow = link.find("<>");
  out->two_way = arrow != std::string::npos;
  if (!out->two_way) {
    arrow = link.find('>');
  }
  return arrow != std::string::npos && ParseEndpoint(link.substr(0, arrow), &out->a) &&
         ParseEndpoint(link.substr(arrow + (out->two_way ? 2 : 1)), &out->b) &&
         ParseReal(value.substr(at + 1, plus - at - 1), &out->start_ms) &&
         ParseReal(value.substr(plus + 1), &out->duration_ms);
}

// Applies one clause's value to |plan|; false when the value is malformed.
bool ApplyClause(const Clause& c, const std::string& value, FaultPlan& plan) {
  const std::vector<std::string> parts = SplitOn(value, ':');
  switch (c.shape) {
    case Shape::kScalar: {
      const std::size_t want = (c.prob != nullptr ? 1 : 0) + (c.count != nullptr ? 1 : 0);
      return parts.size() == want &&
             (c.prob == nullptr || ParseReal(parts[0], &c.prob(plan), 1.0)) &&
             (c.count == nullptr || (ParseWhole(parts.back(), &c.count(plan)) &&
                                     c.count(plan) >= (c.prob != nullptr ? 1 : 0)));
    }
    case Shape::kSeed:
      return ParseWhole(value, &plan.seed);
    case Shape::kDelay:
      plan.net.delay_jitter_ms = 0.0;
      return (parts.size() == 2 || parts.size() == 3) &&
             ParseReal(parts[0], &plan.net.delay, 1.0) && ParseReal(parts[1], &plan.net.delay_ms) &&
             (parts.size() == 2 || ParseReal(parts[2], &plan.net.delay_jitter_ms));
    case Shape::kNode: {
      const std::size_t at = value.find('@');
      NodeFault fault;
      fault.kind = c.node_kind;
      if (at == std::string::npos || !ParseWhole(value.substr(0, at), &fault.node) ||
          !ParseReal(value.substr(at + 1), &fault.at_ms)) {
        return false;
      }
      plan.node.push_back(fault);
      return true;
    }
    case Shape::kPart: {
      NetPartition part;
      if (!ParsePartition(value, &part)) {
        return false;
      }
      plan.net.partitions.push_back(part);
      return true;
    }
  }
  return false;
}

}  // namespace

bool FaultPlan::FromSpec(const std::string& spec, FaultPlan* out, std::string* err) {
  if (std::uint64_t seed = 0; ParseWhole(spec, &seed)) {
    *out = FromSeed(seed);
    return true;
  }
  FaultPlan plan;
  for (const std::string& clause : SplitOn(spec, ',')) {
    if (clause.empty()) {
      continue;
    }
    const std::size_t eq = clause.find('=');
    const std::string key = clause.substr(0, eq);
    const Clause* row = nullptr;
    for (const Clause& c : kClauses) {
      row = key == c.key ? &c : row;
    }
    if (row == nullptr || eq == std::string::npos ||
        !ApplyClause(*row, clause.substr(eq + 1), plan)) {
      *err = std::string("faults: ") + (row == nullptr ? "unknown" : "bad") + " clause '" +
             clause + "'";
      return false;
    }
  }
  *out = std::move(plan);
  return true;
}

FaultPlan FaultPlan::FromSeed(std::uint64_t seed) {
  // Schedule and spill: every knob from an independent mixed draw, so
  // adjacent seeds give unrelated plans. Ranges keep jobs completable.
  auto draw = [&seed, n = 0]() mutable {
    return Mix(seed ^ Mix(static_cast<std::uint64_t>(++n) * 0x9e3779b97f4a7c15ULL));
  };
  FaultPlan plan;
  plan.seed = seed;
  ScheduleFaults& s = plan.schedule;
  s.yield_p = 0.05 + 0.35 * UnitFrom(draw());
  s.sleep_p = 0.05 * UnitFrom(draw());
  s.max_sleep_us = 1 + static_cast<int>(draw() % 100);
  s.pressure_flip_p = (draw() % 4 == 0) ? 0.10 * UnitFrom(draw()) : 0.0;
  s.signal_storm_p = (draw() % 4 == 0) ? 0.20 * UnitFrom(draw()) : 0.0;
  const int burst = 1 + static_cast<int>(draw() % 4);
  s.forced_ome_p = (draw() % 4 == 0) ? 0.05 * UnitFrom(draw()) : 0.0;
  s.shuffle_delay_p = (draw() % 2 == 0) ? 0.25 * UnitFrom(draw()) : 0.0;
  const int shuffle_us = 1 + static_cast<int>(draw() % 300);
  plan.spill.write_p = (draw() % 4 == 0) ? 0.05 * UnitFrom(draw()) : 0.0;
  // A parameter whose rate drew zero stays at its default, so the plan
  // prints no inert clause.
  if (s.signal_storm_p > 0.0) {
    s.signal_storm_burst = burst;
  }
  if (s.shuffle_delay_p > 0.0) {
    s.shuffle_delay_max_us = shuffle_us;
  }

  // Net: moderate frame-level chaos the ledger's redelivery absorbs, plus one
  // one-way partition that always heals. Seed 0 draws seed 1's intensities.
  const std::uint64_t net_seed = seed == 0 ? 1 : seed;
  const auto net_draw = [net_seed](std::uint64_t salt) { return UnitFrom(Mix64(net_seed ^ salt)); };
  NetFaults& n = plan.net;
  n.drop = 0.01 + net_draw(0x11) * 0.04;       // 1-5%
  n.duplicate = 0.01 + net_draw(0x22) * 0.04;  // 1-5%
  n.reorder = 0.02 + net_draw(0x33) * 0.06;    // 2-8%
  n.reset = 0.002 + net_draw(0x44) * 0.008;    // 0.2-1%
  n.delay = 0.05 + net_draw(0x55) * 0.10;      // 5-15%
  n.delay_ms = 1.0 + net_draw(0x66) * 4.0;     // 1-5ms
  n.delay_jitter_ms = n.delay_ms * 0.5;
  NetPartition part;
  part.a = static_cast<int>(Mix64(net_seed ^ 0x77) % 4);
  part.start_ms = 20.0 + net_draw(0x88) * 30.0;
  part.duration_ms = 30.0 + net_draw(0x99) * 40.0;
  n.partitions.push_back(part);
  return plan;
}

std::string FaultPlan::Describe() const {
  FaultPlan p = *this;  // The clause accessors take a mutable plan.
  FaultPlan defaults;
  std::string out;
  const auto emit = [&out](const char* key, const std::string& value) {
    out += out.empty() ? "" : ",";
    out += key;
    out += '=';
    out += value;
  };
  for (const Clause& c : kClauses) {
    switch (c.shape) {
      case Shape::kScalar:
        if ((c.prob != nullptr && c.prob(p) != c.prob(defaults)) ||
            (c.count != nullptr && c.count(p) != c.count(defaults))) {
          std::string value = c.prob != nullptr ? Num(c.prob(p)) : "";
          if (c.count != nullptr) {
            value += c.prob != nullptr ? ":" : "";
            value += std::to_string(c.count(p));
          }
          emit(c.key, value);
        }
        break;
      case Shape::kSeed:
        if (seed != 0) {
          emit(c.key, std::to_string(seed));
        }
        break;
      case Shape::kDelay:
        if (net.delay != 0.0 || net.delay_ms != 0.0 || net.delay_jitter_ms != 0.0) {
          emit(c.key, Num(net.delay) + ":" + Num(net.delay_ms) + ":" + Num(net.delay_jitter_ms));
        }
        break;
      case Shape::kNode:
        // All node faults print at the first node row, in plan order, so a
        // parse rebuilds the same list.
        if (c.node_kind == NodeFaultKind::kKill) {
          for (const NodeFault& f : node) {
            out += out.empty() ? "" : ",";
            out += NodeFaultText(f);
          }
        }
        break;
      case Shape::kPart:
        for (const NetPartition& part : net.partitions) {
          emit(c.key, Endpoint(part.a) + (part.two_way ? "<>" : ">") + Endpoint(part.b) + "@" +
                          Num(part.start_ms) + "+" + Num(part.duration_ms));
        }
        break;
    }
  }
  return out;
}

void FaultPlan::CheckFires(int nodes, bool fault_tolerant) const {
  const auto reject = [nodes](const std::string& what) {
    throw std::invalid_argument("faults: " + what + " (the job has nodes 0.." +
                                std::to_string(nodes - 1) + ")");
  };
  for (const NodeFault& f : node) {
    if (!fault_tolerant) {
      reject(NodeFaultText(f) + " needs a fault-tolerant job");
    }
    if (f.node < 0 || f.node >= nodes) {
      reject(NodeFaultText(f) + " names no node");
    }
  }
  for (const NetPartition& part : net.partitions) {
    for (const int e : {part.a, part.b}) {
      if (e != kAnyEndpoint && (e < -1 || e >= nodes)) {
        reject("partition endpoint " + Endpoint(e) + " is not -1, * or a node id");
      }
    }
  }
}

}  // namespace itask::chaos
