#include "itask/runtime.h"

#include <algorithm>
#include <map>

#include "chaos/chaos.h"
#include "common/logging.h"
#include "itask/recovery.h"

namespace itask::core {

IrsRuntime::IrsRuntime(NodeServices services, IrsConfig config, std::shared_ptr<JobState> state)
    : services_(std::move(services)),
      config_(config),
      state_(std::move(state)),
      tracer_(services_.tracer),
      queue_(state_.get()),
      pm_(this, config.thrash_window),
      sched_(this, config.max_workers) {
  if (tracer_ == nullptr) {
    own_tracer_ = std::make_unique<obs::Tracer>();
    tracer_ = own_tracer_.get();
  }
  if (config_.trace_active) {
    tracer_->set_enabled(true);
  }
  sink_ = [this](PartitionPtr out) { DefaultSink(out); };
  // The monitor keys off LUGC events from this node's heap (paper §5.2). The
  // same listener feeds the GC-pause histogram and the pressure-transition
  // events (the cluster's Node emits the kGc trace events themselves). The
  // heap usually outlives this runtime (one cluster, many jobs), so the
  // listener is removed in the destructor — leaving it registered is a
  // use-after-free the moment a later job's collection fires it.
  gc_listener_id_ = services_.heap->AddGcListener([this](const memsim::GcEvent& event) {
    if (stopping_.load(std::memory_order_relaxed)) {
      return;  // A stopping runtime must not latch pressure for the next Start.
    }
    gc_pause_hist_.Observe(event.pause_ns);
    if (event.useless) {
      if (!pressure_.exchange(true, std::memory_order_relaxed)) {
        tracer_->Emit(obs::EventKind::kPressureOn, trace_node());
      }
    }
  });
}

IrsRuntime::~IrsRuntime() {
  Stop();
  services_.heap->RemoveGcListener(gc_listener_id_);
}

void IrsRuntime::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  // Reset per-run state so Stop -> Start reuses this runtime cleanly: the
  // previous run's monitor-stop request and any pressure latched during its
  // shutdown must not leak into this run.
  stop_monitor_.store(false, std::memory_order_relaxed);
  stopping_.store(false, std::memory_order_relaxed);
  pressure_.store(false, std::memory_order_relaxed);
  fenced_.store(false, std::memory_order_relaxed);
  queue_.Reopen();  // A fence in the previous job must not strand this one.
  headroom_streak_ = 0;
  start_t_ns_ = tracer_->NowNs();
  tracer_->Emit(obs::EventKind::kRuntimeStart, trace_node());
  sched_.Start();
  monitor_thread_ = std::thread([this] { MonitorLoop(); });
}

void IrsRuntime::Stop() {
  if (!started_) {
    return;
  }
  // Order matters: quiesce signal emission first (stopping_), then stop the
  // monitor, then the workers. The GC listener checks stopping_, so after
  // this store no foreign thread re-latches pressure on this runtime.
  stopping_.store(true, std::memory_order_relaxed);
  stop_monitor_.store(true, std::memory_order_relaxed);
  if (monitor_thread_.joinable()) {
    monitor_thread_.join();
  }
  sched_.Stop();
  // The monitor may have armed a chaos OME that nothing consumed; a leftover
  // armed fault must not hit the next job's input feeding. Likewise a
  // poison fault is scoped to the job that injected it.
  services_.heap->DisarmForcedOme();
  services_.heap->Unpoison();
  tracer_->Emit(obs::EventKind::kRuntimeStop, trace_node(), tracer_->NowNs() - start_t_ns_);
  started_ = false;
}

void IrsRuntime::Push(PartitionPtr dp) {
  CHAOS_POINT("runtime.push");
  queue_.Push(std::move(dp));
  CHAOS_POINT("runtime.push.notify");
  sched_.NotifyWork();
}

void IrsRuntime::PushRemote(PartitionPtr dp) {
  if (chaos::ScheduleFuzzer* fz = chaos::Current()) {
    // Injected shuffle-delivery delay: widens the window in which the
    // producer node looks done while its output is still in flight.
    const int delay_us = fz->DrawShuffleDelayUs();
    if (delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    }
  }
  dp->TransferTo(services_.heap, services_.spill);
  Push(std::move(dp));
}

void IrsRuntime::PushBack(PartitionPtr dp) {
  dp->set_requeued(true);
  Push(std::move(dp));
}

bool IrsRuntime::ShouldInterrupt(int worker_id) {
  if (state_->aborted.load(std::memory_order_relaxed)) {
    return true;
  }
  if (fenced_.load(std::memory_order_relaxed)) {
    // Node fenced for recovery: every running task must stop at its next safe
    // point. Polled once per safe point, so this may over-count relative to
    // interrupts actually taken; the T3 audit uses it as an upper bound
    // (interrupts <= victim_requests + ome_interrupts + fence_interrupts).
    fence_interrupts_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return pressure_.load(std::memory_order_relaxed) && sched_.ApproveTermination(worker_id);
}

void IrsRuntime::Fence() {
  fenced_.store(true, std::memory_order_relaxed);
  // Drain and close atomically (each removal NotePop'd under the queue lock),
  // then purge outside it: payloads and spill frames are discarded — the data
  // re-materializes from lineage on survivors, never from this node. Closing
  // makes late pushes from zombie workers silent no-ops, keeping the job's
  // queued/running counters exact for the quiescence check.
  std::vector<PartitionPtr> orphans = queue_.DrainAndClose();
  for (const PartitionPtr& dp : orphans) {
    dp->Purge();
  }
}

std::uint64_t IrsRuntime::BytesNeededForSafeZone() const {
  // Relieve pressure down to the GROW line (N%), not just past the LUGC line
  // (M%): stabilizing right at M% leaves so little allocation headroom that
  // every collection is triggered (and useless) — a GC death spiral. The
  // wider hysteresis band is the one deliberate deviation from the paper's
  // Figure-8 pseudocode, where the JVM's free-heap reading hides this.
  const auto* heap = services_.heap;
  const std::uint64_t live = heap->live_bytes();
  const std::uint64_t capacity = heap->capacity();
  const std::uint64_t avail = live >= capacity ? 0 : capacity - live;
  const auto safe = static_cast<std::uint64_t>(heap->config().grow_free_fraction *
                                               static_cast<double>(capacity));
  return avail >= safe ? 0 : safe - avail;
}

WorkAssignment IrsRuntime::SelectWork() {
  if (state_->aborted.load(std::memory_order_relaxed) ||
      fenced_.load(std::memory_order_relaxed)) {
    return {};
  }
  // Candidate tasks with queued input, ordered by the growth rules:
  // spatial locality (resident input first), then finish line (closer first).
  struct Candidate {
    const TaskSpec* spec;
    bool resident;
  };
  std::vector<Candidate> candidates;
  for (const TaskSpec& spec : graph_.specs()) {
    if (!queue_.HasAny(spec.input_type)) {
      continue;
    }
    if (spec.is_merge && !graph_.UpstreamQuiescent(spec, *state_)) {
      continue;
    }
    if (spec.is_merge && recovery_ != nullptr && !recovery_->MergeSafe()) {
      // Fault tolerance: between a node's death and the end of recovery, the
      // queued/running counters look quiescent while re-executed splits and
      // re-deliveries are still in the ledger. Merging (and then sinking) a
      // tag in that window would silently drop the late data.
      continue;
    }
    candidates.push_back({&spec, queue_.HasResident(spec.input_type)});
  }
  std::stable_sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    if (a.resident != b.resident) {
      return a.resident;
    }
    return a.spec->finish_distance < b.spec->finish_distance;
  });

  for (const Candidate& candidate : candidates) {
    const TaskSpec* spec = candidate.spec;
    // Keep the running counter covering the pop so concurrent quiescence
    // checks never observe a gap (see job_state.h).
    state_->NoteStart(spec->id);
    CHAOS_POINT("runtime.select.pop");
    WorkAssignment work;
    work.spec = spec;
    if (spec->is_merge) {
      work.group = queue_.PopTagGroup(spec->input_type);
      if (!work.group.empty()) {
        if (tracer_->enabled()) {
          std::uint64_t resident_bytes = 0;
          for (const PartitionPtr& dp : work.group) {
            if (dp->resident()) {
              resident_bytes += dp->PayloadBytes();
            }
          }
          tracer_->Emit(obs::EventKind::kPartitionMerged, trace_node(), work.group.size(),
                        resident_bytes, static_cast<std::uint32_t>(spec->input_type));
        }
        return work;
      }
    } else {
      work.single = queue_.PopOne(spec->input_type);
      if (work.single != nullptr) {
        return work;
      }
    }
    state_->NoteFinish(spec->id);  // Raced with another dispatcher; try next.
  }
  return {};
}

bool IrsRuntime::ExecuteActivation(int worker_id, WorkAssignment& work) {
  CHAOS_POINT("runtime.activate");
  const TaskSpec& spec = *work.spec;
  TaskContext ctx(this, &spec, worker_id);
  if (!spec.is_merge && work.single != nullptr) {
    // Lineage context for every output this activation emits.
    ctx.origin_split = work.single->origin_split();
    ctx.origin_epoch = work.single->origin_epoch();
  }
  bool completed = false;
  try {
    std::unique_ptr<ITaskBase> task = spec.factory();
    if (spec.is_merge) {
      completed = task->RunGroup(ctx, work.group);
    } else {
      completed = task->Run(ctx, work.single);
    }
  } catch (const memsim::OutOfMemoryError& e) {
    // The scale loop absorbs OMEs as forced interrupts; reaching here means
    // even the interrupt path could not allocate — the node's heap is
    // terminally wedged. Under fault tolerance the node degrades gracefully:
    // demote it to draining and let the survivors finish the job from
    // lineage. Without it (or when this is the last serving node), abort.
    if (!TryDemoteToDraining()) {
      LOG_ERROR() << "node " << services_.name << ": unrecoverable OME in " << spec.name << ": "
                  << e.what();
      state_->aborted.store(true, std::memory_order_relaxed);
    } else {
      LOG_WARN() << "node " << services_.name << ": escaped OME in " << spec.name
                 << "; draining (" << e.what() << ")";
    }
  } catch (const std::exception& e) {
    LOG_ERROR() << "node " << services_.name << ": task " << spec.name << " failed: " << e.what();
    state_->aborted.store(true, std::memory_order_relaxed);
  }
  // Commit hooks run before NoteFinish so the running counter still covers
  // any deliveries the commit triggers — a quiescence check can never observe
  // the gap between "task done" and "outputs delivered".
  if (completed && recovery_ != nullptr && !fenced_.load(std::memory_order_relaxed)) {
    if (spec.is_merge) {
      if (!ctx.reparked) {
        recovery_->CommitSink(services_.node_id, ctx.group_tag);
      }
    } else if (ctx.origin_split != DataPartition::kNoSplit) {
      recovery_->CommitEpoch(services_.node_id, ctx.origin_split, ctx.origin_epoch);
    }
  }
  CHAOS_POINT("runtime.activation_end");
  state_->NoteFinish(spec.id);
  work.Clear();
  return completed;
}

bool IrsRuntime::TryDemoteToDraining() {
  if (recovery_ == nullptr) {
    return false;
  }
  if (fenced_.load(std::memory_order_relaxed)) {
    return true;  // Already fenced/draining; the task dies quietly.
  }
  if (!recovery_->membership().TryDemoteToDraining(services_.node_id)) {
    return false;  // Last serving node: nobody could absorb the work.
  }
  // Stop selecting work immediately; the coordinator notices the kDraining
  // state, drains the queue and runs lineage recovery for this node.
  fenced_.store(true, std::memory_order_relaxed);
  tracer_->Emit(obs::EventKind::kNodeDraining, trace_node());
  return true;
}

void IrsRuntime::PushBackBatch(std::vector<PartitionPtr> items) {
  CHAOS_POINT("runtime.pushback_batch");
  for (const PartitionPtr& dp : items) {
    dp->set_requeued(true);
  }
  queue_.PushBatch(std::move(items));
  CHAOS_POINT("runtime.pushback_batch.notify");
  sched_.NotifyWork();
}

bool IrsRuntime::WouldQueueLocally(const TaskSpec& spec, const DataPartition& out) const {
  return !spec.route_output && graph_.ConsumerOf(out.type()) != nullptr;
}

void IrsRuntime::CountEmitMetrics(const TaskSpec& spec, const DataPartition& out,
                                  bool at_interrupt) {
  if (!at_interrupt) {
    return;
  }
  // Outputs leaving through a custom route (the shuffle) are final results in
  // the paper's taxonomy; outputs parked locally for a merge task are
  // intermediate results.
  const TaskSpec* consumer = graph_.ConsumerOf(out.type());
  const bool intermediate =
      !spec.route_output && consumer != nullptr && consumer->is_merge;
  if (intermediate) {
    parked_intermediate_.fetch_add(out.PayloadBytes(), std::memory_order_relaxed);
    tracer_->Emit(obs::EventKind::kPartitionParked, trace_node(), out.PayloadBytes(), 0,
                  static_cast<std::uint32_t>(out.type()));
  } else {
    released_final_result_.fetch_add(out.PayloadBytes(), std::memory_order_relaxed);
  }
}

void IrsRuntime::Route(const TaskSpec& spec, PartitionPtr out, bool at_interrupt) {
  CountEmitMetrics(spec, *out, at_interrupt);
  const TaskSpec* consumer = graph_.ConsumerOf(out->type());
  if (spec.route_output) {
    spec.route_output(std::move(out), at_interrupt);
    return;
  }
  if (consumer != nullptr) {
    Push(std::move(out));
    return;
  }
  sink_(std::move(out));
}

void IrsRuntime::NoteOmeInterrupt(const PartitionPtr& dp, std::size_t tuples_processed) {
  CHAOS_POINT("runtime.ome_interrupt");
  ome_interrupts_.fetch_add(1, std::memory_order_relaxed);
  tracer_->Emit(obs::EventKind::kOmeInterrupt, trace_node(), tuples_processed, 0,
                static_cast<std::uint32_t>(dp->type()));
  // An OME is itself evidence of pressure even if no LUGC fired yet.
  if (!pressure_.exchange(true, std::memory_order_relaxed)) {
    tracer_->Emit(obs::EventKind::kPressureOn, trace_node());
  }
  // Relieve pressure synchronously on the failing thread: retries would
  // otherwise spin faster than the monitor period.
  const std::uint64_t needed = BytesNeededForSafeZone();
  if (needed > 0) {
    pm_.SpillStep(needed);
  }
  if (tuples_processed == 0) {
    dp->IncrementNoProgress();
    // Under fault tolerance a sustained zero-progress OME loop (e.g. a
    // poisoned heap, where every retry fails regardless of pressure) demotes
    // the node to draining long before the abort threshold: survivors
    // re-execute its splits from lineage and the job completes.
    if (dp->no_progress() > 8 && TryDemoteToDraining()) {
      return;
    }
    // Give the monitor a chance to interrupt other instances before retrying.
    if (dp->no_progress() > 2) {
      std::this_thread::sleep_for(config_.monitor_period * dp->no_progress());
    }
    if (dp->no_progress() > config_.max_no_progress) {
      LOG_ERROR() << "node " << services_.name << ": partition of type "
                  << TypeIds::Name(dp->type()) << " made no progress after "
                  << dp->no_progress() << " attempts; aborting job";
      state_->aborted.store(true, std::memory_order_relaxed);
    }
  } else {
    dp->ResetNoProgress();
  }
}

void IrsRuntime::DefaultSink(const PartitionPtr& out) {
  out->DropPayload();
}

void IrsRuntime::MonitorLoop() {
  // The monitor serializes/frees partitions on this thread (SpillStep), so it
  // must carry the tenant identity for the heap's per-job accounting.
  memsim::JobScope job_scope(services_.job_id);
  const auto* heap = services_.heap;
  const double capacity = static_cast<double>(heap->capacity());
  const double n_fraction = heap->config().grow_free_fraction;
  while (!stop_monitor_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(config_.monitor_period);
    CHAOS_POINT("monitor.tick");

    if (fenced_.load(std::memory_order_relaxed)) {
      // Fenced (dead to the cluster, or draining): no heartbeats, no chaos
      // draws, no pressure management. The thread stays alive only so Stop()
      // can join it normally.
      continue;
    }
    if (recovery_ != nullptr) {
      // Heartbeat into the coordinator's failure detector, at the configured
      // cadence (the monitor may tick faster than ITASK_HEARTBEAT_MS). The
      // beat carries the node's heap occupancy so a remote coordinator sees
      // memory pressure without a separate stats channel.
      auto& membership = recovery_->membership();
      const auto beat_ns = static_cast<std::uint64_t>(
          recovery_->config().heartbeat_ms * 1e6);
      if (membership.NsSinceBeat(services_.node_id) >= beat_ns) {
        recovery_->Heartbeat(services_.node_id, heap->used_bytes(),
                             heap->capacity());
      }
    }

    // Chaos fault draws, one set per tick (see chaos::ScheduleFaults). They run
    // before the regular pressure logic so an injected flip is immediately
    // acted on by the same tick — exactly how a mistimed real signal would
    // interleave.
    if (chaos::ScheduleFuzzer* fz = chaos::Current()) {
      if (fz->DrawPressureFlip()) {
        const bool now_on = !pressure_.load(std::memory_order_relaxed);
        pressure_.store(now_on, std::memory_order_relaxed);
        tracer_->Emit(now_on ? obs::EventKind::kPressureOn : obs::EventKind::kPressureOff,
                      trace_node());
      }
      for (int burst = fz->DrawSignalStorm(); burst > 0; --burst) {
        tracer_->Emit(obs::EventKind::kSignalReduce, trace_node(), BytesNeededForSafeZone());
        sched_.OnReduceSignal();
      }
      if (fz->DrawForcedOme()) {
        services_.heap->ArmForcedOme();
      }
    }

    const std::uint64_t live = heap->live_bytes();
    const double avail = capacity - static_cast<double>(live);

    if (pressure_.load(std::memory_order_relaxed)) {
      if (avail >= n_fraction * capacity) {
        pressure_.store(false, std::memory_order_relaxed);
        tracer_->Emit(obs::EventKind::kPressureOff, trace_node());
      } else {
        // Cross-tenant arbitration (multi-job clusters): the job most over
        // its budget takes the full REDUCE; other over-budget tenants only
        // spill; under-budget tenants keep their workers and ride it out.
        // Single-job runs (job_id == kNoJob, or no budgets set) always rank
        // kFullReduce, i.e. the paper's original within-job protocol.
        const memsim::PressureRank rank = heap->PressureVictimRank(services_.job_id);
        if (rank == memsim::PressureRank::kProtected) {
          tracer_->Emit(obs::EventKind::kTenantYield, trace_node(), 0, 0, services_.job_id);
        } else if (rank == memsim::PressureRank::kSpillOnly) {
          const std::uint64_t needed = BytesNeededForSafeZone();
          if (needed > 0) {
            pm_.SpillStep(needed);
          }
        } else {
          const std::uint64_t overage = heap->JobOverage(services_.job_id);
          if (services_.job_id != memsim::kNoJob && overage > 0) {
            tracer_->Emit(obs::EventKind::kTenantShed, trace_node(), overage, 0,
                          services_.job_id);
          }
          tracer_->Emit(obs::EventKind::kSignalReduce, trace_node(), BytesNeededForSafeZone());
          sched_.OnReduceSignal();
        }
      }
      headroom_streak_ = 0;
    } else if (heap->HasGrowHeadroom()) {
      // Damped growth: require sustained headroom before adding a worker, so
      // transient relief (a spill, a finished activation) does not re-inflate
      // parallelism straight back into an OME storm.
      if (++headroom_streak_ >= 3) {
        headroom_streak_ = 0;
        tracer_->Emit(obs::EventKind::kSignalGrow, trace_node(), 0, 0, /*aux=*/0);
        sched_.OnGrowSignal(/*force=*/false);
      }
    } else if (sched_.active_count() == 0 && queue_.TotalCount() > 0 &&
               !state_->aborted.load(std::memory_order_relaxed)) {
      // Livelock guard: nothing is running but work remains. Collect spilled
      // garbage and force a single worker so the job keeps making progress.
      services_.heap->Collect();
      tracer_->Emit(obs::EventKind::kSignalGrow, trace_node(), 0, 0, /*aux=*/1);
      sched_.OnGrowSignal(/*force=*/true);
    }

    if (config_.trace_active) {
      // One kActiveSample per tick plus one kActiveSpecCount per spec with a
      // running instance, all correlated by a per-node sample sequence.
      const std::uint32_t seq = ++active_sample_seq_;
      std::array<int, kMaxSpecs> by_spec{};
      sched_.ActiveBySpec(by_spec);
      tracer_->Emit(obs::EventKind::kActiveSample, trace_node(),
                    static_cast<std::uint64_t>(sched_.active_count()), 0, seq);
      for (std::size_t spec = 0; spec < by_spec.size(); ++spec) {
        if (by_spec[spec] != 0) {
          tracer_->Emit(obs::EventKind::kActiveSpecCount, trace_node(), spec,
                        static_cast<std::uint64_t>(by_spec[spec]), seq);
        }
      }
    }
  }
}

common::RunMetrics IrsRuntime::NodeMetrics() const {
  common::RunMetrics m;
  const memsim::HeapStats heap = services_.heap->Stats();
  m.gc_ms = static_cast<double>(heap.total_gc_pause_ns) / 1e6;
  m.gc_count = heap.gc_count;
  m.lugc_count = heap.lugc_count;
  m.peak_heap_bytes = heap.peak_used_bytes;

  const serde::SpillStats spill = services_.spill->Stats();
  m.spilled_bytes = spill.spilled_bytes;
  m.loaded_bytes = spill.loaded_bytes;
  m.load_retries = spill.load_retries;
  m.io_cancelled_writes = spill.cancelled_writes;
  m.io_cancelled_write_bytes = spill.cancelled_write_bytes;
  m.io_raw_bytes = spill.raw_bytes;
  m.io_framed_bytes = spill.framed_bytes;
  m.io_read_stall_ms = static_cast<double>(spill.read_stall_ns) / 1e6;
  m.io_read_stall_hist = spill.read_stall;

  const Scheduler::Stats sched = sched_.stats();
  m.interrupts = sched.interrupts;
  m.reactivations = sched.reactivations;
  m.victim_requests = sched.victim_requests;

  m.interrupt_latency_hist = sched_.interrupt_latency();
  m.lazy_serialized_bytes = pm_.lazy_serialized_bytes();

  m.ome_interrupts = ome_interrupts_.load(std::memory_order_relaxed);
  m.fence_interrupts = fence_interrupts_.load(std::memory_order_relaxed);
  m.released_processed_input_bytes = released_processed_input_.load(std::memory_order_relaxed);
  m.released_final_result_bytes = released_final_result_.load(std::memory_order_relaxed);
  m.parked_intermediate_bytes = parked_intermediate_.load(std::memory_order_relaxed);
  m.gc_pause_hist = gc_pause_hist_.snapshot();
  return m;
}

std::vector<IrsRuntime::TraceSample> IrsRuntime::trace() const {
  // Rebuild the Figure-11c series from this node's sample events. Events from
  // before the last Start() (t_ns < start_t_ns_) belong to a previous run and
  // are skipped.
  std::vector<TraceSample> out;
  std::map<std::uint32_t, std::size_t> index_by_seq;
  for (const obs::Event& event : tracer_->Snapshot()) {
    if (event.node != trace_node() || event.t_ns < start_t_ns_) {
      continue;
    }
    if (event.kind == obs::EventKind::kActiveSample) {
      TraceSample sample;
      sample.t_ms = static_cast<double>(event.t_ns - start_t_ns_) / 1e6;
      sample.total = static_cast<int>(event.a);
      index_by_seq[event.aux] = out.size();
      out.push_back(sample);
    } else if (event.kind == obs::EventKind::kActiveSpecCount) {
      const auto it = index_by_seq.find(event.aux);
      if (it != index_by_seq.end() && event.a < kMaxSpecs) {
        out[it->second].by_spec[static_cast<std::size_t>(event.a)] =
            static_cast<int>(event.b);
      }
    }
  }
  return out;
}

}  // namespace itask::core
