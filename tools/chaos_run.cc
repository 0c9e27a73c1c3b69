// chaos_run: seeded stress sweep for the IRS interrupt/reactivation path.
//
// For each sweep seed, builds the run's chaos::FaultPlan and runs the selected
// applications under it on a tiny-heap cluster — small enough that every run
// interrupts, parks, spills and reloads. After each run it checks:
//
//   - the IrsAuditor job-end invariants (conservation, partition state
//     machine, Table-2 counter consistency) and the runtime's in-path
//     violation log are clean,
//   - a completed job reproduces the fault-free result fingerprint,
//   - the job completed at all (an abort or deadline under these fault
//     intensities means the protocol lost data or live-locked).
//
// Exits non-zero at the first failing seed (default) and prints a command
// line that replays it: every sweep flag plus --faults='<that run's plan>'.
//
// Faults (--faults=SPEC|SEED, chaos::FaultPlan's grammar; a bare integer N is
// FromSeed(N)). Sweep seed S fills the schedule and spill fields the spec
// leaves unset from FromSeed(S), and seeds every decision stream unless the
// spec names a seed; node and network faults come only from the spec. Either
// kind enables the fault-tolerance layer, and every run must still reproduce
// the fault-free fingerprint with a zero ledger duplicate count (plus no
// re-executed split when the node faults are only disconnects and heals).
// Network faults act on socket transports — loss is recovered by ack-timeout
// redelivery, resets by send retries, partitions by the kDisconnected grace
// window — and add a ctrl-plane resume slice (an in-process ctrl pair whose
// socket is severed ctrldrop=N times, or once) whose resume count the JSON
// summary reports as ctrl_reconnects. A fault that cannot fire is a usage
// error.
//
// Transport (--transport=inproc|tcp|uds): socket transports route every
// fault-injected run's shuffle deliveries, acks and heartbeats over loopback
// sockets (DESIGN.md §13), and enable the fault-tolerance layer for every run
// — the fabric only exists under the recovery context. The fingerprint checks
// then prove wire framing, batching and redelivery don't change results.
//
// Skew (--skew=R, R > 1, enables the fault-tolerance layer): node 0 keeps
// --heap-kb while every peer gets R x that capacity — the Fig-11-style
// skewed-pressure topology where node 0 interrupts constantly and its peers
// have headroom, so SERIALIZE can migrate victims instead of spilling. The
// JSON summary carries the migration counters CI asserts on.
//
// Usage:
//   chaos_run [--seeds N] [--start S] [--apps WC,HS,HJ] [--keep-going]
//             [--heap-kb K] [--dataset-kb K] [--gran-kb K] [--nodes N]
//             [--deadline-ms D] [--faults=SPEC|SEED]
//             [--transport=inproc|tcp|uds] [--skew R] [--json]
// Numeric flags parse whole; a malformed one, --nodes < 1 or --seeds < 1 is
// a usage error (exit 2).
//
// --json prints one object on stdout: the sweep's settings, every RunMetrics
// field folded over all runs (keys are the field names in common/metrics.h),
// "per_job" with the same fields per app, "failures" and "ok".
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/hyracks_apps.h"
#include "chaos/chaos.h"
#include "cluster/cluster.h"
#include "common/env.h"
#include "net/ctrl.h"
#include "net/transport.h"

namespace {

struct Options {
  std::uint64_t seeds = 64;
  std::uint64_t start = 1;
  std::vector<std::string> apps = {"WC", "HS", "HJ"};
  bool keep_going = false;
  std::uint64_t heap_kb = 1536;
  std::uint64_t dataset_kb = 256;
  std::uint64_t gran_kb = 16;
  int nodes = 2;
  double deadline_ms = 60000.0;
  itask::net::TransportKind transport = itask::net::TransportKind::kInproc;
  double skew = 0.0;  // > 1 gives peers skew x node 0's heap (header comment).
  bool json = false;
  itask::chaos::FaultPlan faults;  // --faults; sweep seeds fill the rest.
};

std::vector<std::string> SplitCsv(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(*p);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

[[noreturn]] void UsageError(const std::string& what) {
  std::fprintf(stderr, "chaos_run: %s\n", what.c_str());
  std::exit(2);
}

// Numeric flag values parse whole ("1x" and "5ms" are errors) and must be at
// least |min|.
std::uint64_t IntFlag(const char* flag, const char* text, long long min) {
  const auto v = itask::common::ParseInt(text);
  if (!v || *v < min) {
    UsageError(std::string(flag) + " wants an integer >= " + std::to_string(min) + ", got '" +
               text + "'");
  }
  return static_cast<std::uint64_t>(*v);
}

double NumberFlag(const char* flag, const char* text) {
  const auto v = itask::common::ParseDouble(text);
  if (!v || *v < 0.0) {
    UsageError(std::string(flag) + " wants a number >= 0, got '" + text + "'");
  }
  return *v;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    // Flags that take a value accept both --flag=V and --flag V.
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    const std::string flag = eq != nullptr ? std::string(arg, eq) : std::string(arg);
    auto value = [&]() -> const char* {
      if (eq != nullptr) {
        return eq + 1;
      }
      if (i + 1 >= argc) {
        UsageError(flag + " needs a value");
      }
      return argv[++i];
    };
    if (flag == "--faults") {
      std::string err;
      if (!itask::chaos::FaultPlan::FromSpec(value(), &opt->faults, &err)) {
        UsageError(err);
      }
    } else if (flag == "--transport") {
      const char* spec = value();
      const auto kind = itask::net::ParseTransportKind(spec);
      if (!kind.has_value()) {
        UsageError(std::string("--transport wants inproc|tcp|uds, got ") + spec);
      }
      opt->transport = *kind;
    } else if (flag == "--skew") {
      opt->skew = NumberFlag("--skew", value());
    } else if (flag == "--json") {
      opt->json = true;
    } else if (flag == "--seeds") {
      opt->seeds = IntFlag("--seeds", value(), 1);
    } else if (flag == "--start") {
      opt->start = IntFlag("--start", value(), 0);
    } else if (flag == "--apps") {
      opt->apps = SplitCsv(value());
    } else if (flag == "--keep-going") {
      opt->keep_going = true;
    } else if (flag == "--heap-kb") {
      opt->heap_kb = IntFlag("--heap-kb", value(), 1);
    } else if (flag == "--dataset-kb") {
      opt->dataset_kb = IntFlag("--dataset-kb", value(), 1);
    } else if (flag == "--gran-kb") {
      // Split granularity. Migration's cost model only favors the wire above
      // ~50 KB with default knobs (the RTT dominates small payloads), so
      // skewed-pressure runs want 64 KB splits rather than the 16 KB default.
      opt->gran_kb = IntFlag("--gran-kb", value(), 1);
    } else if (flag == "--nodes") {
      opt->nodes = static_cast<int>(IntFlag("--nodes", value(), 1));
    } else if (flag == "--deadline-ms") {
      opt->deadline_ms = NumberFlag("--deadline-ms", value());
    } else {
      std::fprintf(stderr, "chaos_run: unknown flag %s\n", arg);
      return false;
    }
  }
  return true;
}

itask::apps::AppConfig MakeAppConfig(const Options& opt) {
  itask::apps::AppConfig config;
  config.dataset_bytes = opt.dataset_kb << 10;
  config.tpch_scale = 0.2;
  config.max_workers = 4;
  config.granularity_bytes = opt.gran_kb << 10;
  config.deadline_ms = opt.deadline_ms;
  // Socket transports require the recovery context: the fabric hangs off the
  // shuffle ledger's delivery path, so every run becomes fault-tolerant.
  // Skewed-pressure runs need it too — migration ledgers through recovery.
  config.fault_tolerance = !opt.faults.node.empty() || opt.faults.net.active() ||
                           opt.transport != itask::net::TransportKind::kInproc ||
                           opt.skew > 1.0;
  return config;
}

// The plan sweep seed |seed| runs: the spec, with each schedule and spill
// field it leaves at its default taken from FromSeed(seed), and |seed|
// seeding the decision streams unless the spec names one. A field of the
// result is at its default only if it is in FromSeed(seed) too, so the
// result's Describe() with the same --start replays this exact plan.
itask::chaos::FaultPlan SweepPlan(const itask::chaos::FaultPlan& spec, std::uint64_t seed) {
  using itask::chaos::FaultPlan;
  using Schedule = itask::chaos::ScheduleFaults;
  using Spill = itask::chaos::SpillFaults;
  const FaultPlan seeded = FaultPlan::FromSeed(seed);
  const FaultPlan unset;
  FaultPlan plan = spec;
  plan.seed = spec.seed != 0 ? spec.seed : seed;
  const auto fill = [&](auto section, auto field) {
    if ((plan.*section).*field == (unset.*section).*field) {
      (plan.*section).*field = (seeded.*section).*field;
    }
  };
  for (auto field : {&Schedule::yield_p, &Schedule::sleep_p, &Schedule::pressure_flip_p,
                     &Schedule::signal_storm_p, &Schedule::forced_ome_p,
                     &Schedule::shuffle_delay_p}) {
    fill(&FaultPlan::schedule, field);
  }
  for (auto field : {&Schedule::max_sleep_us, &Schedule::signal_storm_burst,
                     &Schedule::shuffle_delay_max_us}) {
    fill(&FaultPlan::schedule, field);
  }
  fill(&FaultPlan::spill, &Spill::write_p);  // FromSeed draws no other spill field.
  return plan;
}

void JsonEscape(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
    }
    out->push_back(c);
  }
}

// |faults| is empty for the fault-free reference runs the fingerprints come
// from, which also run without skew.
itask::cluster::Cluster MakeCluster(const Options& opt, std::uint64_t heap_kb,
                                    const itask::chaos::FaultPlan& faults,
                                    bool apply_skew = true) {
  itask::cluster::ClusterConfig cc;
  cc.num_nodes = opt.nodes;
  cc.heap.capacity_bytes = heap_kb << 10;
  cc.heap.real_pauses = false;  // Pause accounting without burning CPU.
  cc.net.kind = opt.transport;
  if (apply_skew && opt.skew > 1.0) {
    // Node 0 keeps heap_kb; every peer gets skew x that — one pressured node
    // surrounded by memory-rich migration destinations.
    cc.per_node_heap_bytes.assign(
        static_cast<std::size_t>(opt.nodes),
        static_cast<std::uint64_t>(static_cast<double>(heap_kb << 10) * opt.skew));
    cc.per_node_heap_bytes[0] = heap_kb << 10;
  }
  cc.faults = faults;
  return itask::cluster::Cluster(cc);
}

// Ctrl-plane resume slice: an in-process driver + daemon pair whose ctrl
// socket is severed server-side |drops| times. The daemon's heartbeat thread
// must notice each cut and resume its session under the original node id;
// the return value is how many resumes completed (the JSON gate asserts
// >= 1).
std::uint64_t RunCtrlResumeSlice(int drops) {
  itask::net::CtrlServer server(0);
  itask::net::CtrlClient client;
  const int id = client.Join("127.0.0.1", server.port(), "chaos-resume-probe",
                             /*heap_capacity=*/1ULL << 20);
  if (id < 0) {
    std::fprintf(stderr, "chaos_run: ctrl resume slice failed to join\n");
    return 0;
  }
  client.StartHeartbeats(/*interval_ms=*/5,
                         [] { return std::make_pair(std::uint64_t{0},
                                                    std::uint64_t{1} << 20); });
  for (int i = 0; i < drops; ++i) {
    const std::uint64_t target = client.reconnects() + 1;
    server.DropPeer(id);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (client.reconnects() < target &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const std::uint64_t resumed = client.reconnects();
  if (resumed != server.ctrl_reconnects()) {
    std::fprintf(stderr,
                 "chaos_run: ctrl resume count mismatch (client %llu, server %llu)\n",
                 static_cast<unsigned long long>(resumed),
                 static_cast<unsigned long long>(server.ctrl_reconnects()));
  }
  server.Shutdown();
  return resumed;
}

struct Failure {
  std::uint64_t seed;
  std::string app;
  std::string what;
};

// The command line that replays one run: every sweep flag, and the run's own
// plan as its --faults spec.
std::string ReplayCommand(const Options& opt, std::uint64_t seed, const std::string& app,
                          const itask::chaos::FaultPlan& plan) {
  char flags[512];
  std::snprintf(flags, sizeof(flags),
                "chaos_run --start %llu --seeds 1 --apps %s --nodes %d --heap-kb %llu "
                "--dataset-kb %llu --gran-kb %llu --deadline-ms %.17g --skew %.17g --transport=%s",
                static_cast<unsigned long long>(seed), app.c_str(), opt.nodes,
                static_cast<unsigned long long>(opt.heap_kb),
                static_cast<unsigned long long>(opt.dataset_kb),
                static_cast<unsigned long long>(opt.gran_kb), opt.deadline_ms, opt.skew,
                itask::net::TransportKindName(opt.transport));
  return std::string(flags) + " --faults='" + plan.Describe() + "'";
}

int RunSweep(const Options& opt) {
  const itask::apps::AppConfig app_config = MakeAppConfig(opt);
  // A fault that could never fire is a usage error, reported before any run.
  opt.faults.CheckFires(opt.nodes, app_config.fault_tolerance);

  // Reference fingerprints from fault-free, pressure-free runs (audit on:
  // the invariants must hold on the happy path too).
  itask::chaos::SetAuditEnabled(true);
  std::map<std::string, itask::apps::AppResult> reference;
  for (const std::string& app : opt.apps) {
    auto cluster = MakeCluster(opt, /*heap_kb=*/64 << 10, {}, /*apply_skew=*/false);
    const auto result =
        itask::apps::RunHyracksApp(app, cluster, app_config, itask::apps::Mode::kITask);
    if (!result.metrics.succeeded || !result.audit_violations.empty() ||
        itask::chaos::ViolationCount() > 0) {
      std::fprintf(stderr, "chaos_run: reference run for %s failed: %s\n", app.c_str(),
                   result.metrics.Summary().c_str());
      for (const auto& v : itask::chaos::DrainViolations()) {
        std::fprintf(stderr, "  %s\n", v.c_str());
      }
      return 1;
    }
    reference[app] = result;
    std::printf("[ref] %s checksum=%016llx records=%llu\n", app.c_str(),
                static_cast<unsigned long long>(result.checksum),
                static_cast<unsigned long long>(result.records));
  }

  // Per-job rollups across all seeds (Table-2 byte classes, interrupts,
  // spill, migration, net and resilience counters), so multi-tenant audits
  // can attribute chaos findings to the job that produced them; |sweep| folds
  // every run for the JSON report's top-level totals. Both start from a
  // record that has succeeded = true, the identity for Merge's AND.
  itask::common::RunMetrics empty;
  empty.succeeded = true;
  itask::common::RunMetrics sweep = empty;
  std::map<std::string, itask::common::RunMetrics> per_job;

  std::vector<Failure> failures;
  std::uint64_t runs = 0;
  std::uint64_t last_points = 0;
  // When every scheduled node fault is a disconnect/heal pair, the grace
  // window must absorb all of them: any lineage re-execution is spurious.
  const std::vector<itask::chaos::NodeFault>& node_faults = opt.faults.node;
  const bool only_link_faults =
      !node_faults.empty() &&
      std::all_of(node_faults.begin(), node_faults.end(), [](const auto& fault) {
        return fault.kind == itask::chaos::NodeFaultKind::kDisconnect ||
               fault.kind == itask::chaos::NodeFaultKind::kHeal;
      });
  for (std::uint64_t seed = opt.start; seed < opt.start + opt.seeds; ++seed) {
    const itask::chaos::FaultPlan plan = SweepPlan(opt.faults, seed);
    for (const std::string& app : opt.apps) {
      auto cluster = MakeCluster(opt, opt.heap_kb, plan);
      const auto result =
          itask::apps::RunHyracksApp(app, cluster, app_config, itask::apps::Mode::kITask);
      if (const itask::chaos::ScheduleFuzzer* fuzzer = itask::chaos::Current()) {
        last_points = fuzzer->points_hit();
      }
      ++runs;

      per_job.try_emplace(app, empty).first->second.Merge(result.metrics);
      sweep.Merge(result.metrics);

      std::string what;
      const auto in_path = itask::chaos::DrainViolations();
      if (!result.audit_violations.empty()) {
        what = "audit: " + result.audit_violations.front();
      } else if (!in_path.empty()) {
        what = "in-path: " + in_path.front();
      } else if (!result.metrics.succeeded) {
        what = "job did not complete: " + result.metrics.Summary();
      } else if (result.checksum != reference[app].checksum ||
                 result.records != reference[app].records) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "result mismatch: checksum %016llx != %016llx",
                      static_cast<unsigned long long>(result.checksum),
                      static_cast<unsigned long long>(reference[app].checksum));
        what = buf;
      } else if (result.metrics.duplicate_tuples_dropped != 0) {
        // The recovery ledger observed (and suppressed) a duplicate shuffle
        // delivery — exactly-once bookkeeping failed somewhere upstream.
        what = "dedup audit: " +
               std::to_string(result.metrics.duplicate_tuples_dropped) +
               " duplicate tuples dropped";
      } else if (only_link_faults && result.metrics.splits_reexecuted != 0) {
        what = "spurious lineage re-execution: " +
               std::to_string(result.metrics.splits_reexecuted) +
               " splits re-executed under disconnects that healed";
      }
      if (!what.empty()) {
        failures.push_back({seed, app, what});
        std::fprintf(stderr, "[FAIL] seed=%llu app=%s %s\n  plan: %s\n",
                     static_cast<unsigned long long>(seed), app.c_str(), what.c_str(),
                     plan.Describe().c_str());
        if (!opt.keep_going) {
          std::fprintf(stderr, "first failing seed: %llu (replay: %s)\n",
                       static_cast<unsigned long long>(seed),
                       ReplayCommand(opt, seed, app, plan).c_str());
          return 1;
        }
      }
    }
    if ((seed - opt.start + 1) % 16 == 0) {
      std::printf("[chaos] %llu/%llu seeds, %llu runs, %zu failures, %llu points hit last run\n",
                  static_cast<unsigned long long>(seed - opt.start + 1),
                  static_cast<unsigned long long>(opt.seeds),
                  static_cast<unsigned long long>(runs), failures.size(),
                  static_cast<unsigned long long>(last_points));
      std::fflush(stdout);
    }
  }

  // Ctrl-plane resume slice: exercised whenever a network-fault plan is
  // active, so the chaos gate can assert reconnects happened even though the
  // in-process sweep itself has no daemon sockets to sever.
  if (opt.faults.net.active()) {
    const std::uint64_t reconnects = RunCtrlResumeSlice(std::max(1, opt.faults.net.ctrl_drops));
    sweep.ctrl_reconnects += reconnects;
    if (reconnects == 0) {
      failures.push_back({0, "ctrl", "ctrl resume slice completed no reconnects"});
    }
  }

  if (opt.json) {
    // Machine-readable summary (one object on stdout) for CI scrapers.
    std::string out = "{\"runs\":" + std::to_string(runs);
    out += ",\"seeds\":" + std::to_string(opt.seeds);
    out += ",\"nodes\":" + std::to_string(opt.nodes);
    out += ",\"node_faults\":" + std::to_string(opt.faults.node.size());
    out += std::string(",\"transport\":\"") +
           itask::net::TransportKindName(opt.transport) + "\"";
    out += ",\"faults\":\"";
    JsonEscape(&out, opt.faults.Describe());
    out += "\",";
    sweep.AppendJson(&out);
    out += ",\"apps\":[";
    for (std::size_t i = 0; i < opt.apps.size(); ++i) {
      out += (i > 0 ? ",\"" : "\"") + opt.apps[i] + "\"";
    }
    out += "],\"per_job\":{";
    bool first_job = true;
    for (const auto& [app, job] : per_job) {
      out += first_job ? "\"" : ",\"";
      first_job = false;
      JsonEscape(&out, app);
      out += "\":{";
      job.AppendJson(&out);
      out += "}";
    }
    out += "},\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      out += i > 0 ? "," : "";
      out += "{\"seed\":" + std::to_string(failures[i].seed) + ",\"app\":\"";
      JsonEscape(&out, failures[i].app);
      out += "\",\"what\":\"";
      JsonEscape(&out, failures[i].what);
      out += "\"}";
    }
    out += std::string("],\"ok\":") + (failures.empty() ? "true" : "false") + "}";
    std::printf("%s\n", out.c_str());
  }
  if (!failures.empty()) {
    std::fprintf(stderr, "chaos_run: %zu failing runs; first failing seed %llu (%s)\n",
                 failures.size(), static_cast<unsigned long long>(failures.front().seed),
                 failures.front().app.c_str());
    return 1;
  }
  if (!opt.json) {
    std::printf("chaos_run: %llu runs clean (%llu seeds x %zu apps)\n",
                static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(opt.seeds), opt.apps.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    return 2;
  }
  try {
    return RunSweep(opt);
  } catch (const std::invalid_argument& e) {
    // A fault that cannot fire on these jobs (itask_job.h rejects it at job
    // start, the sweep before its first run).
    UsageError(e.what());
  }
}
