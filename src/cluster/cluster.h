// Cluster: a fixed set of simulated nodes sharing nothing but the process —
// and one obs::Tracer, the job-wide event stream all nodes emit into
// (disabled by default; enabling it is a single atomic flag).
#ifndef ITASK_CLUSTER_CLUSTER_H_
#define ITASK_CLUSTER_CLUSTER_H_

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "chaos/chaos.h"
#include "cluster/node.h"
#include "itask/recovery.h"
#include "net/transport.h"
#include "obs/flight_recorder.h"
#include "obs/tracer.h"

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

namespace itask::cluster {

struct ClusterConfig {
  int num_nodes = 4;
  memsim::HeapConfig heap;
  std::filesystem::path spill_root = std::filesystem::temp_directory_path();
  // Per-thread tracer ring capacity (events). Long traced runs (Fig 3 /
  // Fig 11c timelines) should size this to cover the whole run; the monitor
  // emits a handful of events per tick.
  std::size_t trace_ring_capacity = obs::Tracer::kDefaultRingCapacity;
  // Background spill I/O workers per node (0 = every spill runs inline).
  int io_pool_size = 2;
  // Shuffle/control transport settings (DESIGN.md §13). kInproc keeps the
  // pre-net direct-dispatch path; kTcp/kUds route fault-tolerant jobs'
  // shuffle deliveries, acks and heartbeats over loopback sockets.
  net::NetConfig net;
  // Per-node heap capacity overrides (bytes), for skewed-pressure topologies
  // (chaos_run --skew, bench_migration): node i gets per_node_heap_bytes[i]
  // instead of heap.capacity_bytes when the entry exists and is nonzero.
  // Every other HeapConfig field is shared.
  std::vector<std::uint64_t> per_node_heap_bytes;
  // Every fault the cluster injects (DESIGN.md §10): each node's spill store
  // gets the spill section, every transport its jobs build gets the net
  // section, an active schedule section installs the schedule fuzzer for the
  // cluster's lifetime, and cluster::ItaskJob applies the node section.
  chaos::FaultPlan faults;
  // Failure detection, shuffle redelivery and migration settings of every
  // fault-tolerant job run on this cluster (DESIGN.md §11, §14).
  core::RecoveryConfig recovery;
};

// The one place the environment configures the system: each ITASK_* knob
// that is set replaces its ClusterConfig field, and an unset or malformed
// knob (the latter with one warning) leaves the caller's value. The
// Cluster constructor applies it, so every process that builds a cluster —
// a spawned node_daemon too — honors the same knobs:
//   ITASK_FAULTS              faults (a spec or a seed)
//   ITASK_NET_TRANSPORT       net.kind (inproc|tcp|uds)
//   ITASK_NET_PORT            net.port
//   ITASK_NET_BIND_HOST       net.bind_host
//   ITASK_HEARTBEAT_MS        recovery.heartbeat_ms
//   ITASK_SUSPECT_TIMEOUT_MS  recovery.suspect_timeout_ms
//   ITASK_MIGRATE_MIN_BYTES   recovery.migration.min_bytes
//   ITASK_MIGRATE_RTT_US      recovery.migration.rtt_us
ClusterConfig ApplyEnv(ClusterConfig config);

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config)
      : config_(ApplyEnv(config)), tracer_(config_.trace_ring_capacity) {
    // Per-run unique spill directory (pid + process-wide run counter):
    // concurrent test/bench processes sharing one temp root can never collide
    // on spill file names, and the destructor can clean up wholesale without
    // risking another run's files.
    static std::atomic<std::uint64_t> run_counter{0};
#if defined(_WIN32)
    const auto pid = static_cast<std::uint64_t>(_getpid());
#else
    const auto pid = static_cast<std::uint64_t>(::getpid());
#endif
    run_spill_dir_ = config.spill_root /
                     ("itask-run-" + std::to_string(pid) + "-" +
                      std::to_string(run_counter.fetch_add(1)));
    std::error_code ec;
    std::filesystem::create_directories(run_spill_dir_, ec);
    const std::filesystem::path& spill_dir = ec ? config.spill_root : run_spill_dir_;
    for (int i = 0; i < config.num_nodes; ++i) {
      memsim::HeapConfig heap = config.heap;
      if (static_cast<std::size_t>(i) < config.per_node_heap_bytes.size() &&
          config.per_node_heap_bytes[static_cast<std::size_t>(i)] != 0) {
        heap.capacity_bytes = config.per_node_heap_bytes[static_cast<std::size_t>(i)];
      }
      nodes_.push_back(std::make_unique<Node>(i, heap, spill_dir, &tracer_,
                                              config.io_pool_size, config_.faults));
    }
    if (config_.faults.schedule.active()) {
      fuzzer_ = std::make_unique<chaos::ScheduleFuzzer>(config_.faults.schedule,
                                                        config_.faults.seed);
      chaos::Install(fuzzer_.get());
    }
    // Post-mortem capture source (no-op unless ITASK_FLIGHT_RECORDER=1, in
    // which case registration also enables the tracer so a dump has data).
    obs::FlightRecorder::Instance().Register(
        &tracer_, "cluster-" + std::to_string(pid) + "-" +
                      run_spill_dir_.filename().string());
  }

  ~Cluster() {
    if (fuzzer_ != nullptr) {
      chaos::Uninstall();
    }
    obs::FlightRecorder::Instance().Unregister(&tracer_);
    // Nodes (and their spill managers) first, then the now-empty directory.
    // A node's crash-purged frames may already be gone; remove_all is
    // best-effort by design.
    nodes_.clear();
    std::error_code ec;
    std::filesystem::remove_all(run_spill_dir_, ec);
  }

  int size() const { return static_cast<int>(nodes_.size()); }
  Node& node(int i) { return *nodes_[static_cast<std::size_t>(i)]; }
  const ClusterConfig& config() const { return config_; }
  obs::Tracer& tracer() { return tracer_; }

  // The node a key hashes to (shuffle routing). This is the static *home* of
  // the key range; under fault tolerance the effective owner is
  // Membership::EffectiveOwner(home), which walks to the next serving node so
  // a failure moves only the dead node's keys.
  int NodeForHash(std::uint64_t hash) const {
    return static_cast<int>(hash % static_cast<std::uint64_t>(nodes_.size()));
  }

  const std::filesystem::path& run_spill_dir() const { return run_spill_dir_; }

 private:
  ClusterConfig config_;
  obs::Tracer tracer_;
  std::filesystem::path run_spill_dir_;
  // Installed for the cluster's lifetime when the plan's schedule section is
  // active; declared before nodes_ so it outlives their teardown.
  std::unique_ptr<chaos::ScheduleFuzzer> fuzzer_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace itask::cluster

#endif  // ITASK_CLUSTER_CLUSTER_H_
