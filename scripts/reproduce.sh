#!/bin/sh
# Rebuilds everything, runs the full test suite and every experiment bench,
# and records the transcripts EXPERIMENTS.md refers to.  The concurrent
# analysis service is additionally stress-tested under ThreadSanitizer.
set -e
cd "$(dirname "$0")/.."
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt
for b in build/bench/*; do "$b"; done 2>&1 | tee bench_output.txt

# Data-race check: parallel exploration and the service concurrency tests
# under TSan.  test_parallel_statespace is the heaviest workload: many
# exploration lanes over one shared arena + semantics, plus concurrent
# service jobs each deriving with multiple lanes.
cmake -B build-tsan -G Ninja -DCHOREO_SANITIZE=thread
cmake --build build-tsan --target test_parallel_statespace test_service \
  test_metrics test_util test_quotient test_pepa_properties
./build-tsan/tests/test_parallel_statespace 2>&1 | tee tsan_output.txt
./build-tsan/tests/test_service 2>&1 | tee -a tsan_output.txt
./build-tsan/tests/test_metrics 2>&1 | tee -a tsan_output.txt
./build-tsan/tests/test_util \
  --gtest_filter='ThreadPool.*:StripedMap.*:SegmentedVector.*' \
  2>&1 | tee -a tsan_output.txt
# Quotient-direct derivation enumerates count-vector moves (PEPA groups,
# net cell classes) in the expansion lanes over the shared arena and
# semantics caches; the lane-count determinism checks run under TSan too.
./build-tsan/tests/test_quotient 2>&1 | tee -a tsan_output.txt
./build-tsan/tests/test_pepa_properties \
  --gtest_filter='Seeds/RandomModels.CountVectorQuotientIsExact/*' \
  2>&1 | tee -a tsan_output.txt

# Memory-safety check: one quotient-direct derivation (count vectors and
# the representative terms --states builds from them) end to end under
# ASan+UBSan.
cmake -B build-asan -G Ninja -DCHOREO_SANITIZE=address,undefined
cmake --build build-asan --target choreographer test_quotient
./build-asan/src/tools/choreographer tests/models/sweep_features.pepa --aggregation exact \
  --lump --states 2>&1 | tee asan_output.txt
./build-asan/tests/test_quotient 2>&1 | tee -a asan_output.txt

# Machine-readable bench artefacts (BENCH_statespace.json, BENCH_service.json).
scripts/bench_report.sh
