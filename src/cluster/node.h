// Node: one simulated cluster machine — a managed heap, a spill store and a
// name. The paper's evaluation runs on an 11-node EC2 cluster; here nodes are
// in-process so per-node memory pressure can be reproduced deterministically.
//
// The node's serde::SpillManager owns the spill I/O end to end: its bounded
// background worker pool (io::IoExecutor, |io_pool_size| workers; 0 runs
// every spill inline) and the framed files on disk. It injects the spill
// section of the cluster's fault plan, on a stream seeded per node.
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

#include "chaos/chaos.h"
#include "memsim/managed_heap.h"
#include "obs/tracer.h"
#include "serde/spill_manager.h"

namespace itask::cluster {

class Node {
 public:
  Node(int id, const memsim::HeapConfig& heap_config, const std::filesystem::path& spill_root,
       obs::Tracer* tracer = nullptr, int io_pool_size = 2,
       const chaos::FaultPlan& faults = {})
      : id_(id),
        name_("node" + std::to_string(id)),
        tracer_(tracer),
        heap_(heap_config),
        spill_(spill_root, name_, io_pool_size) {
    if (faults.spill.active()) {
      spill_.SetFaults(faults.spill,
                       faults.seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(id + 1)));
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
