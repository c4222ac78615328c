#!/usr/bin/env bash
# Tier-1 verification: build and run the full test suite in both kernel
# configurations so the AVX2 and the scalar-fallback scan paths stay green,
# then run the concurrency suites under ThreadSanitizer.
#
#   build/         default config (ERIS_ENABLE_AVX2=ON, runtime-dispatched)
#   build-scalar/  forced scalar kernels (-DERIS_ENABLE_AVX2=OFF)
#   build-tsan/    -DERIS_SANITIZE=thread, tests labeled `tsan` only
#   build-asan/    -DERIS_SANITIZE=address; full suite with ERIS_TIER1_ASAN=1,
#                  always at least the byte-parsing suites (recovery replay +
#                  storage-fault fuzzers)
#   build-perfbench/  the wall-clock benchmark program (perfbench/), built
#                  only, so an engine API change that breaks it fails here
#
# Environment knobs:
#   JOBS=N                parallelism (default: nproc)
#   ERIS_HARNESS_SEEDS=N  seed-sweep length for the concurrency harness in
#                         the TSan stage (default here: 6; TSan is ~10x
#                         slower than a native build)
#   ERIS_TIER1_ASAN=1     additionally run the whole suite under
#                         ASan+UBSan (-DERIS_SANITIZE=address)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "=== tier-1: default build (AVX2 kernels, runtime-dispatched) ==="
cmake -B build -S .
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "=== tier-1: multi-core repeat leg (quiescence and WAL-seal suites) ==="
# The join barrier (exact Engine::Quiesce, DESIGN.md §13), the WAL seal
# order (DESIGN.md §15) and metrics-before-completion for the balancer are
# cross-thread orderings: a bug in any shows only in some runs on a
# multi-core host, so these suites run five times.
ctest --test-dir build --output-on-failure -j"$JOBS" \
      -R '^(query_test|join_pipeline_test|aeu_test|storage_fault_test|rebalance_test)$' \
      --repeat until-fail:5

echo "=== tier-1: lookup fast-path smoke (bench_ext_lookup --smoke) ==="
# Gates the point-lookup fast path: pipelined BatchLookup must not fall
# behind scalar probes, and the engine-level fast path (batched commands +
# coalescing + pipelined descent) must stay >= 1.5x the per-key baseline.
./build/bench/bench_ext_lookup --smoke

echo "=== tier-1: join/pipeline smoke (bench_ext_join --smoke) ==="
# Gates the query layer (DESIGN.md §13): the fused pipeline must stay
# >= 1.5x the operator-at-a-time baseline at selectivity <= 10%, and the
# MPSM join must cross strictly fewer sim link bytes than the shared-hash
# baseline. Both metrics are deterministic simulated-time counters.
./build/bench/bench_ext_join --smoke

echo "=== tier-1: durability smoke (bench_ext_wal --smoke) ==="
# Gates the WAL (DESIGN.md §14): group commit must beat per-record fsync by
# >= 4x in acked write throughput at 8 writers; also emits the commit-window
# latency sweep to BENCH_wal.json.
./build/bench/bench_ext_wal --smoke

echo "=== tier-1: storage-fault smoke (bench_ext_faults --smoke) ==="
# Gates the storage-fault tier (DESIGN.md §15): injected short writes must
# stay transparent (every submit acked or typed), a probability-1.0 fsync
# failure must seal the WAL and degrade the engine, and degraded mode must
# keep non-zero read goodput with zero write acks after the seal. Emits
# BENCH_faults.json.
./build/bench/bench_ext_faults --smoke

echo "=== tier-1: allocation-profile smoke (bench_ext_alloc --smoke) ==="
# Gates the memory-manager tier (DESIGN.md §16): after warm-up, the
# arena-converted hot paths (AEU scratch, MVCC version pool, WAL group
# buffer, exchange streams) must allocate exactly zero times in steady
# state, counted through their named injection points. Emits
# BENCH_alloc.json with the per-path profile and THP coverage.
./build/bench/bench_ext_alloc --smoke

echo "=== tier-1: benchmark build (perfbench/, build only) ==="
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-perfbench -j"$JOBS" --target eris_perfbench

echo "=== tier-1: scalar-fallback build (-DERIS_ENABLE_AVX2=OFF) ==="
cmake -B build-scalar -S . -DERIS_ENABLE_AVX2=OFF \
      -DERIS_BUILD_BENCHMARKS=OFF -DERIS_BUILD_EXAMPLES=OFF
cmake --build build-scalar -j"$JOBS"
ctest --test-dir build-scalar --output-on-failure -j"$JOBS"

echo "=== tier-1: TSan build (-DERIS_SANITIZE=thread), concurrency suites ==="
cmake -B build-tsan -S . -DERIS_SANITIZE=thread \
      -DERIS_BUILD_BENCHMARKS=OFF -DERIS_BUILD_EXAMPLES=OFF
# Only the tsan-labeled suites run here; build just their targets.
cmake --build build-tsan -j"$JOBS" --target \
      common_test memory_manager_test mvcc_test incoming_buffer_test \
      partition_table_test router_test engine_test rebalance_test aeu_test \
      outgoing_test stress_test concurrency_harness_test overload_test \
      query_test join_pipeline_test recovery_test storage_fault_test \
      alloc_test
# tsan.supp is applied through each test's TSAN_OPTIONS ctest property
# (set by tests/CMakeLists.txt when ERIS_SANITIZE=thread).
ERIS_HARNESS_SEEDS="${ERIS_HARNESS_SEEDS:-6}" \
  ctest --test-dir build-tsan -L tsan --output-on-failure -j"$JOBS"

echo "=== tier-1: overload stage (stalled-AEU scenario under TSan) ==="
# Tiny buffers + one wedged AEU: submits must stay bounded (OK or typed
# rejection), the watchdog must report the stall, and the differential
# oracle must still match on the accepted set.
ERIS_HARNESS_SEEDS="${ERIS_HARNESS_SEEDS:-6}" \
  ctest --test-dir build-tsan -L overload --output-on-failure -j"$JOBS"

echo "=== tier-1: recovery stage (WAL/snapshot/crash-matrix under TSan) ==="
# Durability tier (DESIGN.md §14): the WAL/torn-tail/crash-matrix suite plus
# the durable shape of the differential harness (threaded chaos run ->
# restart -> digest vs oracle), both under TSan to cover the group-commit
# drain against the AEU loop threads.
ERIS_HARNESS_SEEDS="${ERIS_HARNESS_SEEDS:-6}" \
  ctest --test-dir build-tsan -L recovery --output-on-failure -j"$JOBS"

echo "=== tier-1: durability stage (storage-fault suite under TSan) ==="
# Storage-fault tier (DESIGN.md §15): injected I/O errors at every
# durability syscall — fsync fail-stop seal, degraded read-only serving,
# scrubber quarantine, frame-parser fuzz — plus the io-chaos shape of the
# differential harness (writers racing injected faults, then restart +
# replay asserting acked <= recovered <= issued).
ERIS_HARNESS_SEEDS="${ERIS_HARNESS_SEEDS:-6}" \
  ctest --test-dir build-tsan -L durability --output-on-failure -j"$JOBS"

if [[ "${ERIS_TIER1_ASAN:-0}" == "1" ]]; then
  echo "=== tier-1: ASan+UBSan build (-DERIS_SANITIZE=address) ==="
  cmake -B build-asan -S . -DERIS_SANITIZE=address \
        -DERIS_BUILD_BENCHMARKS=OFF -DERIS_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j"$JOBS"
  ctest --test-dir build-asan --output-on-failure -j"$JOBS"
else
  echo "=== tier-1: ASan pass over byte-parsing suites ==="
  # Replay and the storage-fault fuzzers parse raw (and hostile) bytes from
  # disk; always run both under ASan+UBSan even when the full sweep is off.
  cmake -B build-asan -S . -DERIS_SANITIZE=address \
        -DERIS_BUILD_BENCHMARKS=OFF -DERIS_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j"$JOBS" --target recovery_test storage_fault_test
  ctest --test-dir build-asan -R '^(recovery_test|storage_fault_test)$' \
        --output-on-failure
fi

echo "=== tier-1: all configurations green ==="
