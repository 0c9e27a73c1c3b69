// Node: one simulated cluster machine — a managed heap, a spill store and a
// name. The paper's evaluation runs on an 11-node EC2 cluster; here nodes are
// in-process so per-node memory pressure can be reproduced deterministically.
//
// The node's serde::SpillManager owns the spill I/O end to end: its bounded
// background worker pool (io::IoExecutor, NodeIoConfig::pool_size workers; 0
// runs every spill inline) and the framed files on disk.
//
// When the owning cluster hands the node a tracer, the node bridges its
// substrates into it: every heap collection becomes a kGc event (reclaim
// bytes, live-after, pause, LUGC flag), and the spill store reports its I/O
// and queue depth.
#ifndef ITASK_CLUSTER_NODE_H_
#define ITASK_CLUSTER_NODE_H_

#include <filesystem>
#include <memory>
#include <string>

#include "memsim/managed_heap.h"
#include "obs/tracer.h"
#include "serde/spill_manager.h"

namespace itask::cluster {

// Per-node spill I/O engine configuration (ClusterConfig carries one for the
// whole cluster; see NodeIoConfigFromEnv in cluster.h for the env knobs).
struct NodeIoConfig {
  int pool_size = 2;  // Background I/O workers; 0 = synchronous (inline).
  serde::SpillFailureInjection failure;  // Disabled unless armed.
};

class Node {
 public:
  Node(int id, const memsim::HeapConfig& heap_config, const std::filesystem::path& spill_root,
       obs::Tracer* tracer = nullptr, const NodeIoConfig& io_config = {})
      : id_(id),
        name_("node" + std::to_string(id)),
        tracer_(tracer),
        heap_(heap_config),
        spill_(spill_root, name_, io_config.pool_size) {
    if (io_config.failure.enabled()) {
      spill_.SetFailureInjection(io_config.failure);
    }
    if (tracer_ != nullptr) {
      spill_.SetTracer(tracer_, id_);
      heap_.AddGcListener([this](const memsim::GcEvent& event) {
        tracer_->Emit(obs::EventKind::kGc, static_cast<std::uint16_t>(id_),
                      event.reclaimed_bytes, event.live_after,
                      static_cast<std::uint32_t>(event.pause_ns / 1000),
                      event.useless ? obs::kFlagLugc : 0);
      });
    }
  }

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  memsim::ManagedHeap& heap() { return heap_; }
  serde::SpillManager& spill() { return spill_; }
  obs::Tracer* tracer() { return tracer_; }

 private:
  int id_;
  std::string name_;
  obs::Tracer* tracer_;
  memsim::ManagedHeap heap_;
  serde::SpillManager spill_;
};

}  // namespace itask::cluster

#endif  // ITASK_CLUSTER_NODE_H_
