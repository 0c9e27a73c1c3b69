#include "net/faults.h"

#include <algorithm>

namespace itask::net {
namespace {

using chaos::kAnyEndpoint;
using chaos::Mix64;
using chaos::NetPartition;
using chaos::UnitFrom;

bool EndpointMatch(int rule, int endpoint) {
  return rule == kAnyEndpoint || rule == endpoint;
}

bool PartitionBlocks(const NetPartition& part, int src, int dst) {
  return (EndpointMatch(part.a, src) && EndpointMatch(part.b, dst)) ||
         (part.two_way && EndpointMatch(part.a, dst) && EndpointMatch(part.b, src));
}

// The node a window cuts off: the specific `a` side (its outbound traffic is
// black-holed), or `b` when `a` is the wildcard. Fully-wildcard rules impair
// no one node in particular.
int ImpairedNode(const NetPartition& part) {
  if (part.a != kAnyEndpoint) {
    return part.a;
  }
  return part.b;  // May be kAnyEndpoint; callers skip that.
}

}  // namespace

NetFaultEngine::NetFaultEngine(const chaos::FaultPlan& plan)
    : faults_(plan.net), seed_(plan.seed), epoch_(std::chrono::steady_clock::now()) {
  window_open_.resize(faults_.partitions.size(), false);
}

double NetFaultEngine::ElapsedMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint64_t NetFaultEngine::DrawFor(int dst, std::uint64_t serial,
                                      NetFaultKind kind) const {
  // Decision streams are keyed (seed, link, serial, kind): one link's frame
  // count never perturbs another link's draws.
  const std::uint64_t link = Mix64(static_cast<std::uint32_t>(dst));
  return Mix64(seed_ ^ link ^ Mix64(serial * 131 + static_cast<int>(kind)));
}

bool NetFaultEngine::Hit(double p, int dst, std::uint64_t serial,
                         NetFaultKind kind) const {
  return p > 0.0 && UnitFrom(DrawFor(dst, serial, kind)) < p;
}

void NetFaultEngine::Count(NetFaultKind kind) {
  counts_[static_cast<int>(kind)].fetch_add(1, std::memory_order_relaxed);
  total_faults_.fetch_add(1, std::memory_order_relaxed);
}

NetFaultEngine::Decision NetFaultEngine::Apply(int dst,
                                               std::size_t frame_bytes) {
  (void)frame_bytes;
  PollPartitions();  // Heal edges advance even when only this link has traffic.
  Decision d;
  {
    std::lock_guard<std::mutex> lock(mu_);
    d.serial = serials_[dst]++;
  }
  d.draw = DrawFor(dst, d.serial, NetFaultKind::kKindCount);

  // At most one connection/frame-destroying fault per frame, drawn in
  // severity order; the benign shapers (delay/duplicate/reorder) stack.
  if (Hit(faults_.reset, dst, d.serial, NetFaultKind::kReset)) {
    d.reset = true;
    ++d.faults;
    Count(NetFaultKind::kReset);
  } else if (Hit(faults_.truncate, dst, d.serial, NetFaultKind::kTruncate)) {
    d.truncate = true;
    ++d.faults;
    Count(NetFaultKind::kTruncate);
  } else if (Hit(faults_.corrupt, dst, d.serial, NetFaultKind::kCorrupt)) {
    d.corrupt = true;
    ++d.faults;
    Count(NetFaultKind::kCorrupt);
  } else if (Hit(faults_.drop, dst, d.serial, NetFaultKind::kDrop)) {
    d.drop = true;
    ++d.faults;
    Count(NetFaultKind::kDrop);
  }
  if (!d.drop && !d.reset) {
    if (Hit(faults_.duplicate, dst, d.serial, NetFaultKind::kDuplicate)) {
      d.duplicate = true;
      ++d.faults;
      Count(NetFaultKind::kDuplicate);
    }
    if (Hit(faults_.reorder, dst, d.serial, NetFaultKind::kReorder)) {
      d.reorder = true;
      ++d.faults;
      Count(NetFaultKind::kReorder);
    }
  }
  if (Hit(faults_.delay, dst, d.serial, NetFaultKind::kDelay)) {
    const double jitter =
        faults_.delay_jitter_ms *
        (UnitFrom(DrawFor(dst, d.serial, NetFaultKind::kDelay) ^ 0x5a5a) - 0.5) *
        2.0;
    d.delay_ms = std::max(0.0, faults_.delay_ms + jitter);
    ++d.faults;
    Count(NetFaultKind::kDelay);
  }
  return d;
}

void NetFaultEngine::PollPartitions() {
  if (faults_.partitions.empty()) {
    return;
  }
  const double now_ms = ElapsedMs();
  // Collect edges under the lock, fire the observer outside it.
  struct Edge {
    int node;
    bool blocked;
  };
  std::vector<Edge> edges;
  LinkObserver observer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    observer = observer_;
    for (std::size_t i = 0; i < faults_.partitions.size(); ++i) {
      const bool open = faults_.partitions[i].ActiveAt(now_ms);
      if (open == window_open_[i]) {
        continue;
      }
      window_open_[i] = open;
      const int node = ImpairedNode(faults_.partitions[i]);
      if (node != kAnyEndpoint) {
        edges.push_back({node, open});
      }
    }
  }
  if (observer) {
    for (const Edge& edge : edges) {
      observer(edge.node, edge.blocked);
    }
  }
}

bool NetFaultEngine::MessageBlocked(int src, int dst) {
  PollPartitions();
  const double now_ms = ElapsedMs();
  for (const NetPartition& part : faults_.partitions) {
    if (part.ActiveAt(now_ms) && PartitionBlocks(part, src, dst)) {
      Count(NetFaultKind::kPartitionDrop);
      return true;
    }
  }
  return false;
}

bool NetFaultEngine::ConnectAllowed(int src, int dst) {
  PollPartitions();
  const double now_ms = ElapsedMs();
  for (const NetPartition& part : faults_.partitions) {
    if (part.ActiveAt(now_ms) && PartitionBlocks(part, src, dst)) {
      Count(NetFaultKind::kConnectRefused);
      return false;
    }
  }
  return true;
}

void NetFaultEngine::set_link_observer(LinkObserver observer) {
  std::lock_guard<std::mutex> lock(mu_);
  observer_ = std::move(observer);
}

}  // namespace itask::net
