#!/usr/bin/env bash
# Builds the tree with AddressSanitizer (-DPORTLAND_SANITIZE=address) in a
# separate build directory and runs the simulator-layer tests under it.
# The fast path leans on in-place frame patching, slot-pooled event
# payloads, and lazily drained link queues — exactly the kind of code ASan
# is for. test_common and test_fm cover the counter table's cell storage
# and the fabric manager's shard remap on restore; test_migration covers
# the trap-and-redirect path and its gratuitous ARPs, test_obs the flight
# recorder's hop records, test_messages the control decoder and the
# fabric manager's topology view under mutated control bytes.
set -eu
cd "$(dirname "$0")/.."
BUILD=build-asan
cmake -S . -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPORTLAND_SANITIZE=address >/dev/null
cmake --build "$BUILD" --parallel "$(nproc)" \
      --target test_common test_sim test_net test_messages test_host \
      test_fabric test_fastpath test_snapshot test_convergence test_fm test_migration \
      test_obs
for t in test_common test_sim test_net test_messages test_host test_fabric \
         test_fastpath test_snapshot test_convergence test_fm test_migration test_obs; do
  echo
  echo "################  $t (ASan)  ################"
  "$BUILD/tests/$t"
done
