#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer (-DPORTLAND_SANITIZE=thread) in a
# separate build directory and soaks the parallel engine under it: every
# simulator unit test (each runs the one windowed engine loop, at one
# shard or many), the fabric-level determinism soak, which runs the full
# chaos scenario (failures, repairs, VM migration, multicast) with 4
# worker threads, the snapshot soak, which saves, clears and restores
# every shard's event slots mid-run at 4 workers, and the convergence monitor's per-packet path audit
# with every window on the worker pool, so its shard streams fill from
# several threads at once. Any cross-shard access the
# conservative-lookahead windows fail to order shows up here as a data
# race.
set -eu
cd "$(dirname "$0")/.."
BUILD=build-tsan
cmake -S . -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPORTLAND_SANITIZE=thread >/dev/null
cmake --build "$BUILD" --parallel "$(nproc)" \
  --target test_sim test_soak test_fabric

echo
echo "################  test_sim / windowed engine (TSan)  ################"
# TSAN_OPTIONS halt_on_error makes a race fail the script, not just log.
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
  "$BUILD/tests/test_sim"

echo
echo "################  test_soak / parallel soak (TSan)  ################"
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
  "$BUILD/tests/test_soak" \
  --gtest_filter='Soak.ParallelEngineIsWorkerCountInvariant:Soak.SnapshotRestoreIsInvisibleToExecution:Soak.FlightRecorderIsInvisibleToExecution:Soak.ConvergenceMonitorIsInvisibleToExecution:Soak.ShardedFmIsInvisibleToExecution:Soak.FmReplicaStreamIsWorkerCountInvariant'

echo
echo "################  test_fabric / pooled path audit (TSan)  ################"
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
  "$BUILD/tests/test_fabric" \
  --gtest_filter='Fabric.PathAuditIsWorkerCountInvariant'
