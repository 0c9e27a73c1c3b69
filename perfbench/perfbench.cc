// perfbench: the repository benchmark (workloads and metrics are described in
// README.md beside this file; run.py builds this driver and forwards to it).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --spill-dir DIR [--scale F]
//
// Each run computes the workload's reference fingerprint with the regular
// engine, runs one discarded warm-up job, then times ITask jobs on freshly
// built clusters for S seconds. --trace 0 prints the end-to-end metrics;
// --trace 1 splits the time between untraced and traced jobs and prints the
// per-layer metrics read from the traced jobs. The last stdout line is one
// JSON object; the exit code is 0 only when every job matched the reference
// and every traced job stayed in its workload's regime.
//
// Layers are read from outside only: RunMetrics, ManagedHeap::Stats(), a
// GcListener on each node heap, each node's SpillStats and the cluster
// tracer's events.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/hadoop_problems.h"
#include "apps/hyracks_apps.h"
#include "cluster/cluster.h"
#include "memsim/managed_heap.h"
#include "net/message.h"
#include "obs/event.h"

namespace {

using itask::apps::AppResult;
using itask::apps::Mode;
using itask::obs::Event;
using itask::obs::EventKind;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kNodes = 2;
constexpr int kWorkersPerNode = 2;
constexpr std::uint64_t kReferenceHeapBytes = 256ULL << 20;
constexpr double kJobDeadlineMs = 60000.0;
constexpr int kMinTimedJobs = 3;
constexpr int kSetupSamplesPerJob = 5;

struct Workload {
  const char* name;
  const char* app;  // Hadoop problem (hadoop) or Hyracks app name.
  bool hadoop;
  double input_mb;
  std::uint64_t heap_bytes;
  std::uint64_t split_bytes;
  bool tcp_ft;          // Fault tolerance over TCP loopback.
  bool victims;         // Regime: victim interrupts on every job, else none.
};

// README.md says why each workload is here, and why WordCount on 4 MB heaps
// (spill-read heavy) is not.
constexpr Workload kWorkloads[] = {
    {"wcm-interrupt", "WCM", true, 24.0, 8ULL << 20, 1ULL << 20, false, true},
    {"wc-tcp-ft", "WC", false, 16.0, 64ULL << 20, 32ULL << 10, true, false},
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::filesystem::path spill_dir;
  double scale = 1.0;  // Input-size multiplier (smoke runs shrink it).
};

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuS() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Linear-interpolated quantile of |v| (0 for no samples).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::uint64_t InputBytes(const Options& opt) {
  return static_cast<std::uint64_t>(opt.workload->input_mb * opt.scale * kMiB);
}

itask::cluster::ClusterConfig MakeClusterConfig(const Options& opt, std::uint64_t heap_bytes,
                                                bool real_pauses) {
  itask::cluster::ClusterConfig cc;
  cc.num_nodes = kNodes;
  cc.heap.capacity_bytes = heap_bytes;
  cc.heap.real_pauses = real_pauses;
  cc.heap.gc_ns_per_byte = 0.25;
  cc.spill_root = opt.spill_dir;
  // Per-thread ring large enough that a traced job loses no events; the
  // regime check fails the run if any were dropped.
  cc.trace_ring_capacity = 1 << 16;
  if (opt.workload->tcp_ft) {
    cc.net.kind = itask::net::TransportKind::kTcp;
  }
  return cc;
}

AppResult RunApp(const Options& opt, itask::cluster::Cluster& cluster, Mode mode, bool traced) {
  itask::apps::HadoopProblemConfig cfg;
  cfg.dataset_bytes = InputBytes(opt);
  cfg.granularity_bytes = opt.workload->split_bytes;
  cfg.seed = opt.seed;
  cfg.threads = kWorkersPerNode;
  cfg.max_workers = kWorkersPerNode;
  cfg.deadline_ms = kJobDeadlineMs;
  cfg.fault_tolerance = opt.workload->tcp_ft;
  cfg.trace_active = traced;
  return opt.workload->hadoop
             ? itask::apps::RunHadoopProblem(opt.workload->app, cluster, cfg, mode)
             : itask::apps::RunHyracksApp(opt.workload->app, cluster, cfg, mode);
}

struct Reference {
  bool ok = false;
  std::uint64_t checksum = 0;
  std::uint64_t records = 0;
};

// The regular engine on an unpressured heap is the correctness oracle.
Reference ComputeReference(const Options& opt) {
  itask::cluster::Cluster cluster(MakeClusterConfig(opt, kReferenceHeapBytes, false));
  const AppResult r = RunApp(opt, cluster, Mode::kRegular, false);
  return {r.metrics.succeeded, r.checksum, r.records};
}

// Everything one ITask job leaves behind for the metrics below.
struct Job {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_live_mb = 0.0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t ome_count = 0;
  itask::serde::SpillStats spill;  // Summed over nodes.
  std::vector<itask::memsim::GcEvent> gcs;  // Traced jobs only.
  AppResult result;
  bool ok = false;
};

Job RunJob(const Options& opt, const Reference& ref, bool traced) {
  Job job;
  std::mutex gc_mu;  // Guards job.gcs; listeners run on allocating threads.
  // Set-up takes a fraction of a millisecond, so one sample is mostly
  // scheduler and filesystem noise: time several constructions and keep the
  // median, the last of them being the job's own cluster.
  const itask::cluster::ClusterConfig cc = MakeClusterConfig(opt, opt.workload->heap_bytes, true);
  std::unique_ptr<itask::cluster::Cluster> cluster;
  std::vector<double> setups;
  for (int i = 0; i < kSetupSamplesPerJob; ++i) {
    cluster.reset();
    const double t_setup = NowS();
    cluster = std::make_unique<itask::cluster::Cluster>(cc);
    setups.push_back(NowS() - t_setup);
  }
  job.setup_s = Median(std::move(setups));
  if (traced) {
    for (int i = 0; i < cluster->size(); ++i) {
      cluster->node(i).heap().AddGcListener([&](const itask::memsim::GcEvent& e) {
        std::lock_guard<std::mutex> lock(gc_mu);
        job.gcs.push_back(e);
      });
    }
  }

  const double cpu0 = ProcessCpuS();
  const double t0 = NowS();
  job.result = RunApp(opt, *cluster, Mode::kITask, traced);
  job.wall_s = NowS() - t0;
  job.cpu_s = ProcessCpuS() - cpu0;

  std::uint64_t peak_live = 0;
  for (int i = 0; i < cluster->size(); ++i) {
    const itask::memsim::HeapStats hs = cluster->node(i).heap().Stats();
    peak_live = std::max(peak_live, hs.peak_live_bytes);
    job.alloc_bytes += hs.allocated_bytes_total;
    job.ome_count += hs.ome_count;
    const itask::serde::SpillStats ss = cluster->node(i).spill().Stats();
    job.spill.spilled_bytes += ss.spilled_bytes;
    job.spill.loaded_bytes += ss.loaded_bytes;
    job.spill.spill_count += ss.spill_count;
    job.spill.load_count += ss.load_count;
    job.spill.write_ms += ss.write_ms;
    job.spill.read_ms += ss.read_ms;
  }
  job.peak_live_mb = static_cast<double>(peak_live) / kMiB;
  cluster.reset();  // Joins every node thread before |gc_mu| goes away.

  const itask::common::RunMetrics& m = job.result.metrics;
  job.ok = m.succeeded && !m.out_of_memory && job.result.checksum == ref.checksum &&
           job.result.records == ref.records;
  if (!job.ok) {
    std::fprintf(stderr,
                 "perfbench: %s seed %llu job FAILED (succeeded=%d ome=%d checksum=%016llx "
                 "want %016llx records=%llu want %llu)\n",
                 opt.workload->name, static_cast<unsigned long long>(opt.seed), m.succeeded,
                 m.out_of_memory, static_cast<unsigned long long>(job.result.checksum),
                 static_cast<unsigned long long>(ref.checksum),
                 static_cast<unsigned long long>(job.result.records),
                 static_cast<unsigned long long>(ref.records));
  }
  std::fprintf(stderr,
               "perfbench: %s%s wall=%.3fs cpu=%.2fs setup=%.5fs peak_live=%.2fMB "
               "victims=%llu net_msgs=%llu lugc=%llu/%llu %s\n",
               opt.workload->name, traced ? " [traced]" : "", job.wall_s, job.cpu_s,
               job.setup_s, job.peak_live_mb,
               static_cast<unsigned long long>(m.victim_requests),
               static_cast<unsigned long long>(m.net_msgs_sent),
               static_cast<unsigned long long>(m.lugc_count),
               static_cast<unsigned long long>(m.gc_count), job.ok ? "ok" : "FAIL");
  return job;
}

// Runs jobs back to back until |seconds| have passed (at least |min_jobs|).
std::vector<Job> RunFor(const Options& opt, const Reference& ref, double seconds, bool traced,
                        int min_jobs) {
  std::vector<Job> jobs;
  const double start = NowS();
  while (static_cast<int>(jobs.size()) < min_jobs || NowS() - start < seconds) {
    jobs.push_back(RunJob(opt, ref, traced));
  }
  return jobs;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

template <typename Fn>
double MedianOf(const std::vector<Job>& jobs, Fn fn) {
  std::vector<double> v;
  v.reserve(jobs.size());
  for (const Job& job : jobs) {
    v.push_back(static_cast<double>(fn(job)));
  }
  return Median(std::move(v));
}

double ThroughputMbS(const Options& opt, const std::vector<Job>& jobs) {
  const double mb = static_cast<double>(InputBytes(opt)) / kMiB;
  return MedianOf(jobs, [mb](const Job& j) { return mb / j.wall_s; });
}

std::vector<Metric> EndToEnd(const Options& opt, const std::vector<Job>& jobs) {
  const auto ok = static_cast<double>(
      std::count_if(jobs.begin(), jobs.end(), [](const Job& j) { return j.ok; }));
  return {
      {"throughput_mb_s", ThroughputMbS(opt, jobs), "MB/s"},
      {"cpu_s", MedianOf(jobs, [](const Job& j) { return j.cpu_s; }), "s"},
      {"peak_live_mb", MedianOf(jobs, [](const Job& j) { return j.peak_live_mb; }), "MB"},
      {"job_ok_ratio", ok / static_cast<double>(jobs.size()), "ratio"},
      {"setup_s", MedianOf(jobs, [](const Job& j) { return j.setup_s; }), "s"},
  };
}

// What one traced job's event stream says about each layer.
struct TraceDigest {
  std::uint64_t victim_interrupts = 0;
  std::uint64_t reduce_signals = 0;
  std::uint64_t grow_signals = 0;
  std::uint64_t partitions = 0;
  double feed_s = 0.0;
  double active_workers_mean = 0.0;
  double deliver_wait_ms = 0.0;
  std::vector<double> interrupt_latency_ms;  // Victim interrupts, exact.
  std::vector<double> read_stall_ms;
  std::vector<double> deliver_us;  // kMsgSend -> kMsgRecv, every wire kind.
  std::vector<double> ack_rtt_us;  // Shuffle data send -> its ack's receipt.
};

bool IsVictimRule(std::uint8_t flags) {
  using itask::obs::InterruptRule;
  const auto rule = static_cast<InterruptRule>(flags);
  return rule != InterruptRule::kNone && rule != InterruptRule::kOme &&
         rule != InterruptRule::kAbort;
}

TraceDigest DigestEvents(const std::vector<Event>& events) {
  using itask::net::MsgKind;
  TraceDigest d;
  std::uint64_t first_feed = 0;
  std::uint64_t last_feed = 0;
  std::uint64_t active_sum = 0;
  std::uint64_t active_samples = 0;
  // Flow pairing: a message's kMsgSend and kMsgRecv share (span, wire kind).
  std::map<std::pair<std::uint64_t, std::uint8_t>, std::uint64_t> sent_at;
  // Latest send of each shuffle data span, kept past its receipt for the RTT.
  std::unordered_map<std::uint64_t, std::uint64_t> data_sent_at;
  // The receiving thread acks the data it just received, so the ack a node
  // thread sends belongs to the last data span that thread received.
  std::unordered_map<std::uint16_t, std::uint64_t> last_data_on_tid;
  std::unordered_map<std::uint64_t, std::uint64_t> data_span_of_ack;
  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kTaskInterrupt:
        if (IsVictimRule(e.flags)) {
          ++d.victim_interrupts;
          d.interrupt_latency_ms.push_back(static_cast<double>(e.a) / 1e6);
        }
        break;
      case EventKind::kSignalReduce:
        ++d.reduce_signals;
        break;
      case EventKind::kSignalGrow:
        ++d.grow_signals;
        break;
      case EventKind::kPartitionCreated:
        if (d.partitions++ == 0) {
          first_feed = e.t_ns;
        }
        last_feed = e.t_ns;
        break;
      case EventKind::kActiveSample:
        active_sum += e.a;
        ++active_samples;
        break;
      case EventKind::kIoReadStall:
        d.read_stall_ms.push_back(static_cast<double>(e.a) / 1e6);
        break;
      case EventKind::kMsgSend: {
        const std::uint8_t kind = itask::obs::FlowMsgKind(e.aux);
        sent_at[{e.a, kind}] = e.t_ns;
        if (kind == static_cast<std::uint8_t>(MsgKind::kShuffleData)) {
          data_sent_at[e.a] = e.t_ns;
        } else if (kind == static_cast<std::uint8_t>(MsgKind::kShuffleAck)) {
          const auto it = last_data_on_tid.find(e.tid);
          if (it != last_data_on_tid.end()) {
            data_span_of_ack[e.a] = it->second;
          }
        }
        break;
      }
      case EventKind::kMsgRecv: {
        const std::uint8_t kind = itask::obs::FlowMsgKind(e.aux);
        const auto it = sent_at.find({e.a, kind});
        if (it != sent_at.end()) {
          d.deliver_us.push_back(static_cast<double>(e.t_ns - it->second) / 1e3);
          sent_at.erase(it);
        }
        if (kind == static_cast<std::uint8_t>(MsgKind::kShuffleData)) {
          last_data_on_tid[e.tid] = e.a;
        } else if (kind == static_cast<std::uint8_t>(MsgKind::kShuffleAck)) {
          const auto ack = data_span_of_ack.find(e.a);
          if (ack != data_span_of_ack.end()) {
            const auto sent = data_sent_at.find(ack->second);
            if (sent != data_sent_at.end() && e.t_ns >= sent->second) {
              const double rtt_ns = static_cast<double>(e.t_ns - sent->second);
              d.ack_rtt_us.push_back(rtt_ns / 1e3);
              d.deliver_wait_ms += rtt_ns / 1e6;
            }
            data_span_of_ack.erase(ack);
          }
        }
        break;
      }
      default:
        break;
    }
  }
  d.feed_s = static_cast<double>(last_feed - first_feed) / 1e9;
  d.active_workers_mean = Ratio(static_cast<double>(active_sum),
                                static_cast<double>(active_samples));
  return d;
}

// Checks the traced job against its workload's regime, so a workload that
// drifts (no pressure, no wire) fails instead of quietly measuring nothing.
bool InRegime(const Workload& w, const Job& job, const TraceDigest& d) {
  const itask::common::RunMetrics& m = job.result.metrics;
  std::uint64_t lugc = 0;
  for (const auto& gc : job.gcs) {
    lugc += gc.useless ? 1 : 0;
  }
  bool ok = true;
  const auto expect = [&ok, &w](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "perfbench: %s left its regime: %s\n", w.name, what);
      ok = false;
    }
  };
  expect(w.victims == (d.victim_interrupts > 0),
         w.victims ? "expected victim interrupts" : "expected no victim interrupts");
  expect(w.tcp_ft == (m.net_msgs_sent > 0),
         w.tcp_ft ? "expected network messages" : "expected no network messages");
  if (w.tcp_ft) {
    expect(lugc == 0, "expected no useless collections");
  }
  expect(m.events_dropped == 0, "tracer dropped events");
  return ok;
}

std::vector<Metric> PerLayer(const Options& opt, const std::vector<Job>& untraced,
                             const std::vector<Job>& traced, const std::vector<TraceDigest>& ds,
                             double cold_job_s, double fail_ratio) {
  // Per-job values are medians over traced jobs; percentiles pool the
  // samples of every traced job and report the pooled count beside them.
  std::vector<double> gc_pauses;
  std::vector<double> latency;
  std::vector<double> stalls;
  std::vector<double> deliver;
  std::vector<double> rtt;
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    for (const auto& gc : traced[i].gcs) {
      gc_pauses.push_back(static_cast<double>(gc.pause_ns) / 1e6);
    }
    latency.insert(latency.end(), ds[i].interrupt_latency_ms.begin(),
                   ds[i].interrupt_latency_ms.end());
    stalls.insert(stalls.end(), ds[i].read_stall_ms.begin(), ds[i].read_stall_ms.end());
    deliver.insert(deliver.end(), ds[i].deliver_us.begin(), ds[i].deliver_us.end());
    rtt.insert(rtt.end(), ds[i].ack_rtt_us.begin(), ds[i].ack_rtt_us.end());
    dropped = std::max(dropped, traced[i].result.metrics.events_dropped);
  }
  const auto per_job = [&traced](auto fn) { return MedianOf(traced, fn); };
  const auto per_digest = [&ds](auto fn) {
    std::vector<double> v;
    for (const TraceDigest& d : ds) {
      v.push_back(static_cast<double>(fn(d)));
    }
    return Median(std::move(v));
  };
  const auto gc_pause_ms = [](const Job& j) {
    double ms = 0.0;
    for (const auto& gc : j.gcs) {
      ms += static_cast<double>(gc.pause_ns) / 1e6;
    }
    return ms;
  };
  const auto lugc_ratio = [](const Job& j) {
    const auto lugc = std::count_if(j.gcs.begin(), j.gcs.end(),
                                    [](const auto& gc) { return gc.useless; });
    return Ratio(static_cast<double>(lugc), static_cast<double>(j.gcs.size()));
  };
  const auto mb = [](std::uint64_t bytes) { return static_cast<double>(bytes) / kMiB; };
  const double input_mb = static_cast<double>(InputBytes(opt)) / kMiB;
  const double untraced_tput = ThroughputMbS(opt, untraced);
  const double traced_tput = ThroughputMbS(opt, traced);
  const auto count = [](const std::vector<double>& v) { return static_cast<double>(v.size()); };
  using RM = itask::common::RunMetrics;
  const auto metric = [&per_job](auto field) {
    return per_job([field](const Job& j) { return static_cast<double>(j.result.metrics.*field); });
  };

  return {
      {"memsim.gc_count", per_job([](const Job& j) { return j.gcs.size(); }), "count"},
      {"memsim.lugc_ratio", per_job(lugc_ratio), "ratio"},
      {"memsim.gc_pause_ms", per_job(gc_pause_ms), "ms"},
      {"memsim.gc_pause_p99_ms", Quantile(gc_pauses, 0.99), "ms"},
      {"memsim.gc_pause_samples", count(gc_pauses), "count"},
      {"memsim.gc_share",
       per_job([&](const Job& j) { return gc_pause_ms(j) / (1e3 * j.wall_s * kNodes); }),
       "ratio"},
      {"memsim.alloc_mb", per_job([&](const Job& j) { return mb(j.alloc_bytes); }), "MB"},
      {"memsim.ome_count", per_job([](const Job& j) { return j.ome_count; }), "count"},

      {"itask.victim_interrupts", per_digest([](const TraceDigest& d) { return d.victim_interrupts; }),
       "count"},
      {"itask.ome_interrupts", metric(&RM::ome_interrupts), "count"},
      {"itask.reactivations", metric(&RM::reactivations), "count"},
      {"itask.interrupt_latency_p50_ms", Quantile(latency, 0.5), "ms"},
      {"itask.interrupt_latency_max_ms", Quantile(latency, 1.0), "ms"},
      {"itask.interrupt_latency_samples", count(latency), "count"},
      {"itask.reduce_signals", per_digest([](const TraceDigest& d) { return d.reduce_signals; }),
       "count"},
      {"itask.grow_signals", per_digest([](const TraceDigest& d) { return d.grow_signals; }),
       "count"},
      {"itask.released_mb", per_job([&](const Job& j) {
         return mb(j.result.metrics.released_processed_input_bytes +
                   j.result.metrics.released_final_result_bytes);
       }),
       "MB"},
      {"itask.lazy_serialized_mb",
       per_job([&](const Job& j) { return mb(j.result.metrics.lazy_serialized_bytes); }), "MB"},
      {"itask.active_workers_mean",
       per_digest([](const TraceDigest& d) { return d.active_workers_mean; }), "count"},

      {"spill.write_mb", per_job([&](const Job& j) { return mb(j.spill.spilled_bytes); }), "MB"},
      {"spill.read_mb", per_job([&](const Job& j) { return mb(j.spill.loaded_bytes); }), "MB"},
      {"spill.writes", per_job([](const Job& j) { return j.spill.spill_count; }), "count"},
      {"spill.reads", per_job([](const Job& j) { return j.spill.load_count; }), "count"},
      {"spill.write_ms", per_job([](const Job& j) { return j.spill.write_ms; }), "ms"},
      {"spill.read_ms", per_job([](const Job& j) { return j.spill.read_ms; }), "ms"},
      {"spill.read_stall_ms", metric(&RM::io_read_stall_ms), "ms"},
      {"spill.read_stall_p99_ms", Quantile(stalls, 0.99), "ms"},
      {"spill.read_stall_samples", count(stalls), "count"},
      {"spill.cancelled_write_mb",
       per_job([&](const Job& j) { return mb(j.result.metrics.io_cancelled_write_bytes); }),
       "MB"},
      {"spill.compression_ratio",
       per_job([](const Job& j) { return j.result.metrics.IoCompressionRatio(); }), "ratio"},
      {"spill.amplification",
       per_job([&](const Job& j) { return mb(j.spill.spilled_bytes) / input_mb; }), "ratio"},

      {"net.msgs", metric(&RM::net_msgs_sent), "count"},
      {"net.frames", metric(&RM::net_frames_sent), "count"},
      {"net.msgs_per_frame", per_job([](const Job& j) {
         return Ratio(static_cast<double>(j.result.metrics.net_msgs_sent),
                      static_cast<double>(j.result.metrics.net_frames_sent));
       }),
       "ratio"},
      {"net.wire_mb", per_job([&](const Job& j) { return mb(j.result.metrics.net_bytes_sent); }),
       "MB"},
      {"net.send_stall_ms", metric(&RM::net_stall_ms), "ms"},
      {"net.send_retries", metric(&RM::net_send_retries), "count"},
      {"net.deliver_p50_us", Quantile(deliver, 0.5), "us"},
      {"net.deliver_p99_us", Quantile(deliver, 0.99), "us"},
      {"net.deliver_samples", count(deliver), "count"},

      {"recovery.ack_rtt_p50_us", Quantile(rtt, 0.5), "us"},
      {"recovery.ack_rtt_p99_us", Quantile(rtt, 0.99), "us"},
      {"recovery.ack_rtt_samples", count(rtt), "count"},
      {"recovery.deliver_wait_ms", per_digest([](const TraceDigest& d) { return d.deliver_wait_ms; }),
       "ms"},
      {"recovery.shuffle_retries", metric(&RM::shuffle_retries), "count"},
      {"recovery.ack_timeouts", metric(&RM::net_ack_timeouts), "count"},
      {"recovery.dup_dropped", metric(&RM::net_dup_payloads_dropped), "count"},

      {"feed.partitions", per_digest([](const TraceDigest& d) { return d.partitions; }), "count"},
      {"feed_s", per_digest([](const TraceDigest& d) { return d.feed_s; }), "s"},

      {"obs.trace_overhead_pct", 100.0 * Ratio(untraced_tput - traced_tput, untraced_tput), "%"},
      {"obs.events", per_job([](const Job& j) { return j.result.events.size(); }), "count"},
      {"obs.events_dropped", static_cast<double>(dropped), "count"},

      {"cold_job_s", cold_job_s, "s"},
      {"job_fail_ratio", fail_ratio, "ratio"},
  };
}

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v, metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --spill-dir DIR [--scale F]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) {
          opt.workload = &w;
        }
      }
      if (opt.workload == nullptr) {
        Usage("unknown workload");
      }
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--spill-dir") {
      opt.spill_dir = value;
    } else if (flag == "--scale") {
      opt.scale = std::atof(value.c_str());
    } else {
      Usage("unknown flag");
    }
  }
  if (argc % 2 == 0 || opt.workload == nullptr || !have_seed || opt.seconds <= 0.0 ||
      opt.spill_dir.empty() || opt.scale <= 0.0) {
    Usage("missing or invalid arguments");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  std::filesystem::create_directories(opt.spill_dir);

  const Reference ref = ComputeReference(opt);
  if (!ref.ok) {
    std::fprintf(stderr, "perfbench: reference run failed\n");
    return 1;
  }
  std::fprintf(stderr, "perfbench: %s seed %llu reference %016llx (%llu records)\n",
               opt.workload->name, static_cast<unsigned long long>(opt.seed),
               static_cast<unsigned long long>(ref.checksum),
               static_cast<unsigned long long>(ref.records));
  const Job warmup = RunJob(opt, ref, false);

  std::vector<Job> untraced;
  std::vector<Job> traced;
  std::vector<TraceDigest> digests;
  bool in_regime = true;
  if (!opt.trace) {
    untraced = RunFor(opt, ref, opt.seconds, false, kMinTimedJobs);
  } else {
    untraced = RunFor(opt, ref, opt.seconds / 2, false, 2);
    traced = RunFor(opt, ref, opt.seconds / 2, true, 2);
    for (const Job& job : traced) {
      digests.push_back(DigestEvents(job.result.events));
      in_regime = InRegime(*opt.workload, job, digests.back()) && in_regime;
    }
  }

  std::size_t attempted = 1;
  std::size_t failed = warmup.ok ? 0 : 1;
  for (const auto* jobs : {&untraced, &traced}) {
    attempted += jobs->size();
    failed += static_cast<std::size_t>(
        std::count_if(jobs->begin(), jobs->end(), [](const Job& j) { return !j.ok; }));
  }
  const bool correct = failed == 0 && in_regime;
  PrintResult(correct, attempted, failed,
              opt.trace ? PerLayer(opt, untraced, traced, digests, warmup.wall_s,
                                   static_cast<double>(failed) / static_cast<double>(attempted))
                        : EndToEnd(opt, untraced));
  return correct ? 0 : 1;
}
