#!/usr/bin/env bash
# Full verification pipeline: build, test, regenerate every experiment, run
# the examples. This is what CI would run. Matches the tier-1 recipe:
#   cmake -B build -S . && cmake --build build -j && ctest -j
# Ninja is used when present but never required.
#
# CHECK_SANITIZE=1 additionally builds an ASan/UBSan tree (build-sanitize/)
# and runs the replication-path test suites under it.
#
# CHECK_BENCH_SMOKE=1 runs every bench binary at ~1/10th workload (see
# bench::Scaled) and bench_micro for a single tiny iteration — catches bench
# bit-rot in seconds instead of waiting for full experiment runs. It also
# replays real traffic through the codec: a one-second traced perfbench
# sim-failover run (built in build-perfbench/) must report "correct": true,
# which perfbench withholds when a sampled frame fails to decode or
# re-encodes to other bytes. A five-second traced loopback-seq run must be
# correct too, with host.send_failures at 0.
#
# CHECK_SOAK=1 re-runs the dead-backup soak at ~10x rounds: with one backup
# permanently crashed, the primary's resident record vector must stay
# O(window) (the StableTs() - window GC floor, DESIGN.md §9). It also scales
# up the majority-loss storm soak (durable-log recovery + serializability
# chain, DESIGN.md §10) and runs the six cross-group chaos worlds at 10x
# rounds, whose quiescence check demands that no cohort keeps state for a
# settled transaction (DESIGN.md §15).
#
# CHECK_REAL_HOST=1 builds a ThreadSanitizer tree (build-tsan/) and runs the
# genuinely multithreaded code — host conformance + the socket-host
# integration smokes (3 replicas over real TCP loopback with a primary kill,
# and cross-group fused 2PC, DESIGN.md §13) — under it, plus a plain-build
# vrd run.
set -euo pipefail
cd "$(dirname "$0")/.."

# Repo hygiene gate: build output must never be tracked (PR 2 accidentally
# committed ~1,400 artifacts) and must stay covered by .gitignore — an
# untracked *.o / build*/ entry in `git status` means the ignore rules
# regressed.
if git ls-files | grep -E '^(build[^/]*|Testing)/|\.o$' >/tmp/check_tracked.$$; then
  echo "FAIL: build artifacts are tracked by git:" >&2
  head -20 /tmp/check_tracked.$$ >&2
  rm -f /tmp/check_tracked.$$
  exit 1
fi
rm -f /tmp/check_tracked.$$
if git status --porcelain | grep -E '^\?\? (build[^/]*/|Testing/|.*\.(o|a)$)' \
    >/tmp/check_untracked.$$; then
  echo "FAIL: untracked build artifacts (update .gitignore):" >&2
  head -20 /tmp/check_untracked.$$ >&2
  rm -f /tmp/check_untracked.$$
  exit 1
fi
rm -f /tmp/check_untracked.$$

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"
# Prefer Ninja for fresh build trees; an already-configured tree keeps its
# generator (switching generators on an existing cache is a CMake error).
generator_for() {
  if [[ ! -f "$1/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
    echo "-G" "Ninja"
  fi
}

cmake -B build -S . $(generator_for build)
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "${CHECK_SANITIZE:-0}" == "1" ]]; then
  echo "== sanitizers (ASan + UBSan) =="
  cmake -B build-sanitize -S . $(generator_for build-sanitize) \
    -DCMAKE_BUILD_TYPE=Debug -DVSR_SANITIZE=ON
  cmake --build build-sanitize -j "$JOBS"
  # The comm-buffer / replication-path suites, where the windowed protocol
  # does pointer arithmetic over the GC'd record vector; the frame fuzzer,
  # which feeds every decoder hostile bytes; and the transaction suites,
  # where per-transaction state is erased and key-routed reply waiters are
  # torn down while coroutines are suspended (DESIGN.md §15).
  ctest --test-dir build-sanitize --output-on-failure -j "$JOBS" \
    -R 'vr_test|net_test|wire_test|fuzz_frames_test|protocol_edge_test|property_test|snapshot_test|storage_test|recovery_test|view_formation_test|sharding_test|lease_read_test|host_conformance_test|socket_host_test|soak_test|subaction_test|client35_test|txn_test'
fi

if [[ "${CHECK_REAL_HOST:-0}" == "1" ]]; then
  echo "== real host (ThreadSanitizer) =="
  cmake -B build-tsan -S . $(generator_for build-tsan) \
    -DCMAKE_BUILD_TYPE=Debug -DVSR_TSAN=ON
  cmake --build build-tsan -j "$JOBS" --target \
    host_conformance_test socket_host_test vrd
  # The only truly concurrent code in the tree: event loop, socket
  # transport, loopback cluster. Everything protocol-side stays on one
  # host thread per node, and TSan verifies exactly that.
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R 'host_conformance_test|socket_host_test'
  echo "== real host (vrd smoke: sockets + view change) =="
  build/src/host/vrd --txns 300 --kill-primary
fi

if [[ "${CHECK_SOAK:-0}" == "1" ]]; then
  echo "== soak (dead backup, GC bound) =="
  CHECK_SOAK=1 build/tests/soak_test --gtest_filter='DeadBackupSoak.*'
  echo "== soak (fused commits under coordinator crashes) =="
  CHECK_SOAK=1 build/tests/soak_test --gtest_filter='CommitFusionCrashSoak.*'
  echo "== soak (cross-group chaos worlds, per-transaction state stays flat) =="
  CHECK_SOAK=1 build/tests/soak_test --gtest_filter='Worlds/SoakTest.*'
  echo "== soak (majority-loss storms, durable-log recovery) =="
  CHECK_SOAK=1 build/tests/recovery_test --gtest_filter='StormSoak.*'
  echo "== soak (backup-read leases across primary crashes) =="
  CHECK_SOAK=1 build/tests/lease_read_test --gtest_filter='LeaseSoak.*'
fi

echo "== experiments =="
# Driven by the bench sources, not by whatever sits in build/bench/: a reused
# build tree keeps binaries of benches that were since deleted, and those
# must neither run nor be gated.
benches=()
for src in bench/bench_*.cc; do
  b="build/bench/$(basename "$src" .cc)"
  if [[ ! -x "$b" ]]; then
    echo "FAIL: $src has no built binary $b" >&2
    exit 1
  fi
  benches+=("$b")
done
for b in "${benches[@]}"; do
  if [[ "${CHECK_BENCH_SMOKE:-0}" == "1" ]]; then
    # Shrunken run: Scaled-aware benches read the env var; bench_micro
    # (google-benchmark) gets a near-zero min_time for one tiny iteration.
    extra=()
    [[ "$(basename "$b")" == "bench_micro" ]] && extra=(--benchmark_min_time=0.001)
    CHECK_BENCH_SMOKE=1 "$b" "${extra[@]}" > /dev/null && echo "--- $(basename "$b") OK"
  else
    "$b"
  fi
done
# Every E* bench must have emitted its machine-readable BENCH_<ID>.json
# (bench_common.h JsonSink) in the working directory it ran from.
for b in "${benches[@]}"; do
  [[ "$(basename "$b")" == bench_e* ]] || continue
  id="$(basename "$b" | sed -E 's/^bench_(e[0-9]+).*/\U\1/')"
  if [[ ! -s "BENCH_${id}.json" ]]; then
    echo "FAIL: $(basename "$b") did not write BENCH_${id}.json" >&2
    exit 1
  fi
done
# The E2 commit-fusion ablation (DESIGN.md §13) must have produced both
# sides of the fused-vs-serial comparison.
for key in fused_decision_us serial_decision_us \
           fused_client_path_forces_per_commit \
           serial_client_path_forces_per_commit; do
  if ! grep -q "\"${key}\"" BENCH_E2.json; then
    echo "FAIL: BENCH_E2.json is missing the fusion-ablation metric ${key}" >&2
    exit 1
  fi
done
# Every write transaction commits on the fused path: its client waits on no
# decision force, so a lone-participant (same-shard) transfer is no slower
# than a two-participant (cross-shard) one. Both benches are simulated, so
# these figures are deterministic.
if ! awk '/"fused_client_path_forces_per_commit"/ { gsub(/[,"]/, ""); v = $2 }
          END { exit (v == 0) ? 0 : 1 }' BENCH_E2.json; then
  echo "FAIL: BENCH_E2.json fused_client_path_forces_per_commit is not 0" >&2
  exit 1
fi
if ! awk '/"cross_shard_premium"/ { gsub(/[,"]/, ""); p = $2 }
          END { exit (p > 1) ? 0 : 1 }' BENCH_E13.json; then
  echo "FAIL: BENCH_E13.json cross_shard_premium is not above 1" >&2
  exit 1
fi
# The E15 backup-read experiment (DESIGN.md §14) must have produced both
# sides of the lease ablation plus the serializability audit, and — on full
# (non-smoke) runs — hit the >= 2x read scale-out the design promises.
for key in reads_per_s_off reads_per_s_on read_throughput_multiplier \
           backup_reads_served leases_granted serializability_violations; do
  if ! grep -q "\"${key}\"" BENCH_E15.json; then
    echo "FAIL: BENCH_E15.json is missing the lease metric ${key}" >&2
    exit 1
  fi
done
if ! awk '/"serializability_violations"/ { gsub(/[,"]/, ""); v = $2 }
          END { exit (v == 0) ? 0 : 1 }' BENCH_E15.json; then
  echo "FAIL: BENCH_E15.json reports serializability violations" >&2
  exit 1
fi
if [[ "${CHECK_BENCH_SMOKE:-0}" != "1" ]]; then
  if ! awk '/"read_throughput_multiplier"/ { gsub(/[,"]/, ""); m = $2 }
            END { exit (m >= 2.0) ? 0 : 1 }' BENCH_E15.json; then
    echo "FAIL: BENCH_E15.json read_throughput_multiplier is below 2x" >&2
    exit 1
  fi
fi

if [[ "${CHECK_BENCH_SMOKE:-0}" == "1" ]]; then
  echo "== wire replay (traced perfbench sim-failover) =="
  # The sampled frames include view-change, log-replay and rejoin traffic
  # that the hand-built golden samples in wire_test may not cover.
  result="$(CARGO_TARGET_DIR=build-perfbench python3 perfbench/run.py \
    --workload sim-failover --seed 1 --seconds 1 --trace 1 | tail -n 1)"
  if [[ "$result" != '{"correct": true,'* ]]; then
    echo "FAIL: traced sim-failover replay is not correct: ${result:0:200}" >&2
    exit 1
  fi
  echo "== real-host event loop (traced perfbench loopback-seq) =="
  # Every node's sockets at full rate on one epoll loop per node, through
  # the wire replay and the per-link pairing of sends with deliveries; a
  # frame the transport dropped (send_failures) would be lost traffic.
  result="$(CARGO_TARGET_DIR=build-perfbench python3 perfbench/run.py \
    --workload loopback-seq --seed 1 --seconds 5 --trace 1 | tail -n 1)"
  if [[ "$result" != '{"correct": true,'* ]]; then
    echo "FAIL: traced loopback-seq run is not correct: ${result:0:200}" >&2
    exit 1
  fi
  if ! python3 -c 'import json, sys
m = json.loads(sys.argv[1])["metrics"]
sys.exit(0 if m["host.send_failures"]["value"] == 0 else 1)' "$result"; then
    echo "FAIL: traced loopback-seq run counted host.send_failures" >&2
    exit 1
  fi
fi

echo "== examples =="
for e in build/examples/*; do
  [[ -f "$e" && -x "$e" ]] || continue
  echo "--- $(basename "$e")"
  "$e" > /dev/null && echo "    OK"
done
echo "ALL GREEN"
