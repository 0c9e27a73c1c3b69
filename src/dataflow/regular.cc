#include "dataflow/regular.h"

#include <thread>

#include "common/logging.h"
#include "memsim/managed_heap.h"

namespace itask::dataflow {

bool RegularHarness::RunStage(int threads, const std::function<void(int, int)>& body) {
  if (aborted()) {
    return false;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(cluster_.size() * threads));
  for (int node = 0; node < cluster_.size(); ++node) {
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([this, &body, node, t] {
        try {
          body(node, t);
        } catch (const memsim::OutOfMemoryError& e) {
          if (!ome_.exchange(true)) {
            LOG_INFO() << "regular job crashed with OME on node " << node << ": " << e.what();
          }
        }
      });
    }
  }
  for (auto& thread : pool) {
    thread.join();
  }
  return !aborted();
}

common::RunMetrics RegularHarness::Finish() {
  common::RunMetrics m;
  for (int i = 0; i < cluster_.size(); ++i) {
    const memsim::HeapStats heap = cluster_.node(i).heap().Stats();
    common::RunMetrics node;
    node.gc_ms = static_cast<double>(heap.total_gc_pause_ns) / 1e6;
    node.gc_count = heap.gc_count;
    node.lugc_count = heap.lugc_count;
    node.peak_heap_bytes = heap.peak_used_bytes;
    const serde::SpillStats spill = cluster_.node(i).spill().Stats();
    node.spilled_bytes = spill.spilled_bytes;
    node.loaded_bytes = spill.loaded_bytes;
    m.Merge(node);
  }
  // Job-wide fields go in after the fold (common/metrics.h).
  m.wall_ms = watch_.ElapsedMs();
  m.out_of_memory = aborted();
  m.succeeded = !aborted();
  return m;
}

}  // namespace itask::dataflow
