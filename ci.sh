#!/usr/bin/env bash
# CI entry point: tier-1 verify (full build + ctest), an ASan/UBSan build of
# the concurrency-sensitive test suites (obs tracer, spill store I/O, IRS
# core/runtime, recovery ledger, migration, chaos), a ThreadSanitizer pass
# over the same layers plus the shuffle fabric, the ctrl plane and the
# property suite, a chaos-smoke sweep of the schedule fuzzer
# (tools/chaos_run) including a skewed-heap migration slice and a spill
# write/read fault sweep, a multi-process telemetry smoke (merged
# cross-process trace must pair ctrl/shuffle/migration flows), a
# multi-tenant job-service smoke under TSan, release-mode bench
# smoke runs at a tiny scale (the jobsvc, net and migration benches are each
# gated on their JSON artifacts), a perf A/B of perfbench on the change
# against its base revision (tools/perf_ab.py), and the perfbench smoke
# (every BENCHMARK.json workload at 1/4 size, metric names and units checked).
set -euo pipefail
cd "$(dirname "$0")"

echo "=== tier 1: build + full test suite ==="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j
# Settings reach the system through ClusterConfig. Only the overlay that fills
# it (src/cluster/env.cc), the strict parsers it uses and the process-wide
# flight recorder read the environment.
if grep -rnE '\bgetenv\(|\bEnv[A-Z][A-Za-z]*\(' src \
    | grep -vE '^src/(cluster/env\.cc|common/env\.h|obs/flight_recorder\.cc):'; then
  echo "ci.sh: the environment is read outside src/cluster/env.cc (see above)" >&2
  exit 1
fi

echo "=== tier 2: ASan/UBSan on obs + io + itask + recovery + migration + chaos suites ==="
SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="${SAN_FLAGS}" \
  -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}"
cmake --build build-asan -j --target obs_test io_test itask_core_test irs_runtime_test irs_policy_test \
  net_test recovery_test migration_test chaos_test
for t in obs_test io_test itask_core_test irs_runtime_test irs_policy_test net_test \
  recovery_test migration_test chaos_test; do
  echo "--- ${t} (sanitized) ---"
  "./build-asan/tests/${t}"
done

echo "=== tier 3: TSan on itask core / runtime / partition / io / ledger / fabric / chaos / property / migration suites ==="
TSAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="${TSAN_FLAGS}" \
  -DCMAKE_EXE_LINKER_FLAGS="${TSAN_FLAGS}"
cmake --build build-tsan -j --target itask_core_test irs_runtime_test partition_test io_test \
  recovery_test net_test chaos_test property_test migration_test
for t in itask_core_test irs_runtime_test partition_test io_test recovery_test \
  chaos_test property_test migration_test; do
  echo "--- ${t} (tsan) ---"
  TSAN_OPTIONS="halt_on_error=1" "./build-tsan/tests/${t}"
done
# The pipelined shuffle commit runs the ledger on worker, coordinator and
# transport threads at once (DESIGN.md §11, §13); the ctrl plane's per-peer
# readers race socket drops, session resumes and shutdown (DESIGN.md §15).
echo "--- net_test ShuffleFabric + TransportParityTest + CtrlPlane (tsan) ---"
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/net_test \
  --gtest_filter='ShuffleFabric.*:TransportParityTest.*:CtrlPlane.*'

echo "=== tier 4: chaos smoke (schedule-fuzzed WordCount sweep) ==="
cmake --build build -j --target chaos_run
./build/tools/chaos_run --seeds 32 --apps WC

echo "=== tier 4b: recovery smoke (mid-job node kill + OOM-poisoned node) ==="
# Each app survives a mid-job node kill and, separately, an OOM-poisoned node,
# reproducing the fault-free fingerprint with a clean dedup audit. Shrunken
# detector timeouts keep the sweep fast; see DESIGN.md §11. The faults must
# also fire: a sweep in which no node died (or drained) proves nothing.
ITASK_SUSPECT_TIMEOUT_MS=25 ./build/tools/chaos_run \
  --seeds 16 --nodes 4 --apps WC,HS,HJ --faults=kill=1@5 --json | tee /tmp/itask_kill_smoke.out
ITASK_SUSPECT_TIMEOUT_MS=25 ./build/tools/chaos_run \
  --seeds 4 --nodes 4 --apps WC,HS,HJ --faults=poison=2@3 --json | tee /tmp/itask_poison_smoke.out
python3 - /tmp/itask_kill_smoke.out nodes_failed /tmp/itask_poison_smoke.out nodes_draining <<'EOF'
import json, sys
for path, counter in zip(sys.argv[1::2], sys.argv[2::2]):
    doc = json.loads(open(path).readlines()[-1])
    assert doc["ok"] is True, "recovery smoke reported failures: %r" % doc["failures"]
    assert doc[counter] >= 1, "the node fault never fired (%s = 0): %r" % (counter, doc)
    print("recovery smoke ok: %s = %d over %d runs" % (counter, doc[counter], doc["runs"]))
EOF

echo "=== tier 4d: net smoke (recovery + chaos slice over TCP loopback) ==="
# The same recovery fingerprint checks, but with every shuffle delivery, ack
# and heartbeat crossing a real TCP loopback socket through the net/ fabric
# (DESIGN.md §13). Wire framing, batching and peer-gone redelivery must not
# change a single result bit, faulted or not.
cmake --build build -j --target net_test net_driver node_daemon
./build/tests/net_test --gtest_filter='TransportParityTest.*'
ITASK_SUSPECT_TIMEOUT_MS=25 ./build/tools/chaos_run \
  --seeds 8 --nodes 4 --apps WC,HS --transport=tcp --faults=kill=1@5 --json \
  | tee /tmp/itask_net_kill_smoke.out
python3 - /tmp/itask_net_kill_smoke.out <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).readlines()[-1])
assert doc["ok"] is True, "net recovery smoke reported failures: %r" % doc["failures"]
assert doc["nodes_failed"] >= 1, "the kill never fired: %r" % doc
print("net recovery smoke ok: nodes_failed = %d over %d runs" % (doc["nodes_failed"], doc["runs"]))
EOF
# Multi-process: a driver and two node_daemon processes agree on fingerprints.
ITASK_NET_TRANSPORT=tcp ./build/tools/net_driver \
  --daemons 2 --spawn --apps WC --dataset-kb 128

echo "=== tier 4e: migration smoke (skewed heaps over TCP; migrate arm must fire) ==="
# One node at 1/12th of its peer's heap (DESIGN.md §14): every seed must
# reproduce the fault-free fingerprint, and across the sweep at least one
# partition must take the migrate arm of the three-way SERIALIZE decision
# instead of spilling. Aggregated over 4 seeds x 2 apps so a single run's
# worker/monitor interleaving can't flake the gate.
ITASK_MIGRATE_MIN_BYTES=16384 ITASK_MIGRATE_RTT_US=50 \
ITASK_HEARTBEAT_MS=1 ITASK_SUSPECT_TIMEOUT_MS=500 \
./build/tools/chaos_run --seeds 4 --start 1 --apps WC,HS --nodes 2 \
  --skew 12 --heap-kb 320 --dataset-kb 768 --gran-kb 64 \
  --transport=tcp --json | tee /tmp/itask_migration_smoke.out
python3 - /tmp/itask_migration_smoke.out <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.loads(f.readlines()[-1])
assert doc["ok"] is True, "migration smoke reported failures: %r" % doc
migrated = sum(j.get("partitions_migrated", 0) for j in doc["per_job"].values())
bytes_ = sum(j.get("migrated_bytes", 0) for j in doc["per_job"].values())
assert migrated >= 1, "no partition took the migrate arm: %r" % doc
print("migration smoke ok: %d partitions migrated (%d bytes)" % (migrated, bytes_))
EOF

echo "=== tier 4f: telemetry smoke (multi-process traces merge into one timeline) ==="
# The full telemetry plane end-to-end (DESIGN.md §15): a driver and two
# spawned daemons run a skewed FT WordCount over TCP with --trace-dir armed,
# each process exports its own epoch-aligned trace, and trace_dump --merge
# must stitch them into a single timeline with the ctrl dispatch/result hops
# paired across processes and the shuffle + migration deliveries paired
# across lanes. The migration knobs mirror tier 4e so the migrate arm fires.
cmake --build build -j --target net_driver node_daemon trace_dump
TELE_DIR=$(mktemp -d)
ITASK_NET_TRANSPORT=tcp ITASK_MIGRATE_MIN_BYTES=16384 ITASK_MIGRATE_RTT_US=50 \
ITASK_HEARTBEAT_MS=1 ITASK_SUSPECT_TIMEOUT_MS=500 \
./build/tools/net_driver --spawn --daemons 2 --apps WC --nodes 4 \
  --dataset-kb 768 --heap-kb 320 --gran-kb 64 --ft --skew 12 \
  --trace-dir "${TELE_DIR}/traces" | tee "${TELE_DIR}/driver.out"
grep -q "2/2 daemon(s) reporting: ok" "${TELE_DIR}/driver.out"
./build/tools/trace_dump --merge "${TELE_DIR}/merged.trace.json" \
  "${TELE_DIR}"/traces/*.json | tee "${TELE_DIR}/merge.out"
python3 - "${TELE_DIR}" <<'EOF'
import json, re, sys
d = sys.argv[1]
stats = open(d + "/merge.out").read()
m = re.search(r"merged (\d+) files .*?(\d+) flow pairs \((\d+) cross-process\), (\d+) unmatched", stats)
assert m, "no merge stats line: %r" % stats
files, pairs, cross, unmatched = map(int, m.groups())
assert files == 5, "expected driver + 2x(ctrl,job) = 5 trace files, got %d" % files
assert cross >= 1, "no cross-process flow pair (ctrl dispatch/result): %r" % stats
assert unmatched == 0, "unmatched flow halves: %r" % stats
merged = open(d + "/merged.trace.json").read()
assert merged.count("flow_shuffle") >= 2, "no shuffle send/recv pair in merged trace"
assert merged.count("flow_migration") >= 2, "no migration send/recv pair in merged trace"
doc = json.loads(merged)  # The merged artifact is loadable Chrome-trace JSON.
assert len(doc["traceEvents"]) > 0
print("telemetry smoke ok: %d files, %d flow pairs (%d cross-process)" % (files, pairs, cross))
EOF
rm -rf "${TELE_DIR}"

echo "=== tier 4g: net-fault chaos smoke (seeded loss/delay/partition + ctrl resume) ==="
# The seeded network-fault engine (DESIGN.md §16): drop + delay + reorder +
# duplicate + reset plus a timed one-way partition, all over real TCP loopback
# sockets. Every seed must reproduce the fault-free fingerprint, the engine
# must actually fire, and the scripted ctrl-socket drop must be healed by a
# session resume (ctrl_reconnects >= 1) — never conflated with node death.
ITASK_HEARTBEAT_MS=5 ITASK_SUSPECT_TIMEOUT_MS=500 \
./build/tools/chaos_run --seeds 2 --nodes 4 --apps WC,HS --transport=tcp \
  --faults='seed=11,drop=0.02,reorder=0.05,dup=0.03,reset=0.005,delay=0.1:1:0.5,part=1>*@40+80,ctrldrop=1' \
  --dataset-kb 256 --json | tee /tmp/itask_netfault_smoke.out
# A bare seed derives a moderate all-of-the-above plan deterministically.
ITASK_HEARTBEAT_MS=5 ITASK_SUSPECT_TIMEOUT_MS=500 \
./build/tools/chaos_run --seeds 1 --nodes 4 --apps WC --transport=tcp \
  --faults=7 --dataset-kb 128 --json | tee -a /tmp/itask_netfault_smoke.out
python3 - /tmp/itask_netfault_smoke.out <<'EOF'
import json, sys
docs = [json.loads(l) for l in open(sys.argv[1]) if l.startswith("{")]
assert len(docs) == 2, "expected two chaos_run JSON reports, got %d" % len(docs)
for doc in docs:
    assert doc["ok"] is True, "net-fault smoke reported failures: %r" % doc["failures"]
    assert doc["net_faults_injected"] >= 1, "fault engine never fired: %r" % doc
    assert doc["ctrl_reconnects"] >= 1, "ctrl session resume never exercised: %r" % doc
print("net-fault smoke ok: %d faults injected, %d ctrl reconnects, %d backoff retries"
      % (sum(d["net_faults_injected"] for d in docs),
         sum(d["ctrl_reconnects"] for d in docs),
         sum(d["backoff_retries"] for d in docs)))
EOF

echo "=== tier 4h: spill-fault smoke (injected spill write and read faults) ==="
# A seed-derived fault plan never draws spill read faults, so this is the one
# sweep that fires them end to end (DESIGN.md §9): a reload that hits a read
# fault is retried from its segment, and a failed write is served from the
# pending-write cache. Every run must reproduce the fault-free fingerprint,
# and at least one reload must have been retried.
./build/tools/chaos_run --seeds 8 --apps WC,HS,HJ \
  --faults=spillwrite=0.05,spillread=0.05 --json | tee /tmp/itask_spill_fault_smoke.out
python3 - /tmp/itask_spill_fault_smoke.out <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).readlines()[-1])
assert doc["ok"] is True, "spill-fault smoke reported failures: %r" % doc["failures"]
assert doc["load_retries"] >= 1, "no reload was retried after a read fault: %r" % doc
print("spill-fault smoke ok: load_retries = %d over %d runs" % (doc["load_retries"], doc["runs"]))
EOF

echo "=== tier 4c: jobsvc smoke (two concurrent tenants under TSan) ==="
# The multi-tenant job service exercises cross-job arbitration on shared
# heaps — exactly the kind of path TSan exists for. Runs the concurrent
# WC+HS+HJ tenant test and the chaos isolation storm under the tier-3 build.
cmake --build build-tsan -j --target jobsvc_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/jobsvc_test \
  --gtest_filter='JobServiceTest.*'

echo "=== tier 5: release-mode bench smoke (tiny scale) ==="
cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-rel -j --target bench_fig11_heaps
(cd build-rel/bench && ITASK_BENCH_SCALE=0.25 ./bench_fig11_heaps > /dev/null)
test -s build-rel/bench/bench_fig11_heaps.bench.jsonl
echo "bench smoke ok ($(wc -l < build-rel/bench/bench_fig11_heaps.bench.jsonl) JSON rows)"

echo "=== tier 5b: jobsvc bench gate (BENCH_jobsvc.json produced + well-formed) ==="
cmake --build build-rel -j --target bench_jobsvc
(cd build-rel/bench && ITASK_BENCH_SCALE=0.5 ./bench_jobsvc)
python3 - build-rel/bench/BENCH_jobsvc.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "jobsvc", doc
assert doc["ok"] is True, "bench reported failures: %r" % doc
assert len(doc["tenants"]) == 2, doc["tenants"]
for row in doc["tenants"]:
    assert row["completed"] == row["jobs"], row
    assert row["p99_completion_ms"] > 0, row
print("jobsvc bench gate ok: %d tenants, %d jobs, %.0f ms wall" % (
    len(doc["tenants"]), doc["aggregate"]["jobs"], doc["aggregate"]["wall_ms"]))
EOF

echo "=== tier 5c: net bench gate (BENCH_net.json produced + well-formed) ==="
cmake --build build-rel -j --target bench_net
(cd build-rel/bench && ITASK_BENCH_SCALE=0.25 ./bench_net)
python3 - build-rel/bench/BENCH_net.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "net", doc
assert doc["ok"] is True, "bench reported failures: %r" % doc
kinds = {row["kind"] for row in doc["raw"]}
assert kinds == {"inproc", "tcp", "uds"}, kinds
for row in doc["raw"]:
    assert row["msgs_per_sec"] > 0, row
    assert row["send_stall_p99_us"] >= 0, row
    if row["kind"] != "inproc" and row["payload_bytes"] * 2 <= 65536:
        # Socket backends must actually batch small messages: fewer frames
        # than messages. (64KB payloads fill a whole batch each, 1 msg/frame.)
        assert row["frames"] < row["msgs"], row
apps = {row["transport"] for row in doc["apps"]}
assert apps == {"inproc", "tcp"}, apps
print("net bench gate ok: %d raw rows, %d app rows" % (len(doc["raw"]), len(doc["apps"])))
EOF

echo "=== tier 5d: migration bench gate (BENCH_migration.json produced + well-formed) ==="
# Skewed spill-only vs migrate-enabled comparison (DESIGN.md §14). The hard
# gate is structure + per-row success (which includes fingerprint parity
# between the arms); migration liveness is gated upstream in tier 4e.
cmake --build build-rel -j --target bench_migration
(cd build-rel/bench && ./bench_migration)
python3 - build-rel/bench/BENCH_migration.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "migration", doc
assert doc["ok"] is True, "bench reported failures: %r" % doc
assert len(doc["rows"]) == 4, doc["rows"]
arms = {(row["app"], row["migrate"]) for row in doc["rows"]}
assert arms == {(a, m) for a in ("WC", "HS") for m in (False, True)}, arms
for row in doc["rows"]:
    assert row["ok"] is True, row
    assert row["records"] > 0 and row["records_per_sec"] > 0, row
    if not row["migrate"]:
        assert row["partitions_migrated"] == 0, row
if doc["total_migrated"] == 0:
    print("warning: migrate arm never fired this run (gated in tier 4e)")
print("migration bench gate ok: %d migrations across %d rows" % (
    doc["total_migrated"], len(doc["rows"])))
EOF

echo "=== tier 5e: perf A/B (perfbench on the change and on its base, alternating) ==="
# The change under test against the commit before it, in one session: 3
# alternating pairs of 10 s perfbench runs per workload at seed 42. Fails
# when a run fails or a change median is worse than its BENCHMARK.json
# bound. With uncommitted changes the base is HEAD, on a clean tree HEAD~1.
# The full protocol an optimization cites is tools/perf_ab.py's defaults.
if [ -n "$(git status --porcelain)" ]; then base=HEAD; else base=HEAD~1; fi
python3 tools/perf_ab.py --base "$base" --pairs 3 --seconds 10 --seeds 42

echo "=== tier 5f: perfbench smoke (every BENCHMARK.json workload, 1/4 size) ==="
# Builds perfbench from this checkout and runs each workload once traced and
# once untraced; every run must be correct and print exactly the metric names
# and units BENCHMARK.json declares. A change that breaks perfbench's build,
# a fingerprint or a metric name fails here instead of in the benchmark.
python3 perfbench/smoke.py

echo "ci.sh: all green"
