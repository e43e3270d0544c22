#!/usr/bin/env bash
# Builds the tree with UndefinedBehaviorSanitizer
# (-DPORTLAND_SANITIZE=undefined) in a separate build directory and runs
# the engine, protocol, migration, observability, snapshot and soak tests
# under it. The byte codecs,
# PMAC bit packing, timing-wheel digit arithmetic and snapshot readers do
# shifts, narrowing casts and unaligned loads, which UBSan checks.
# -fno-sanitize-recover=all turns every report into a test failure
# instead of a log line.
set -eu
cd "$(dirname "$0")/.."
BUILD=build-ubsan
TESTS="test_common test_sim test_net test_messages test_host test_tcp \
       test_fm test_fabric test_fastpath test_migration test_obs test_scale \
       test_snapshot test_convergence test_soak"
cmake -S . -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPORTLAND_SANITIZE=undefined \
      -DCMAKE_CXX_FLAGS="-fno-sanitize-recover=all" >/dev/null
# shellcheck disable=SC2086
cmake --build "$BUILD" --parallel "$(nproc)" --target $TESTS
for t in $TESTS; do
  echo
  echo "################  $t (UBSan)  ################"
  UBSAN_OPTIONS="print_stacktrace=1 ${UBSAN_OPTIONS:-}" "$BUILD/tests/$t"
done
