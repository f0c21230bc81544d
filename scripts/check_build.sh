#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite.
#
#   scripts/check_build.sh          # tier-1 build + full ctest
#   scripts/check_build.sh --asan   # additionally run obs/sim/arena tests under
#                                   # AddressSanitizer (-DFGCS_SANITIZE=address)
#   scripts/check_build.sh --bench  # additionally run the sim-core benchmark
#                                   # suite with its regression gate
#                                   # (scripts/run_bench.sh --check-only)
#   scripts/check_build.sh --chaos  # additionally run the fault-injection /
#                                   # robustness suites under
#                                   # -DFGCS_SANITIZE=address,undefined, plus
#                                   # the kill(-9) crash harness (--crash)
#   scripts/check_build.sh --crash  # additionally run the crash-injection
#                                   # harness (tools/fgcs_crashtest): SIGKILL a
#                                   # checkpointed sweep at randomized commit
#                                   # points, resume, and require bit-identical
#                                   # output across >= 20 kill points
#   scripts/check_build.sh --fuzz   # additionally run the deterministic fuzz
#                                   # driver (10k iterations per target) under
#                                   # -DFGCS_SANITIZE=address,undefined
#   scripts/check_build.sh --tsan   # additionally run the fleet sweep engine,
#                                   # thread-pool, parallel-prediction,
#                                   # parallel-query-scan, and arena/knob
#                                   # suites under -DFGCS_SANITIZE=thread
#
# The fgcs_obs module itself always compiles with -Werror (see
# src/fgcs/obs/CMakeLists.txt), so the observability layer stays clean
# under -Wall -Wextra -Wpedantic in every build this script runs.
set -euo pipefail

cd "$(dirname "$0")/.."

run_asan=0
run_bench=0
run_chaos=0
run_crash=0
run_fuzz=0
run_tsan=0
for arg in "$@"; do
  case "$arg" in
    --asan) run_asan=1 ;;
    --bench) run_bench=1 ;;
    --chaos) run_chaos=1; run_crash=1 ;;
    --crash) run_crash=1 ;;
    --fuzz) run_fuzz=1 ;;
    --tsan) run_tsan=1 ;;
    *) echo "usage: $0 [--asan] [--bench] [--chaos] [--crash] [--fuzz] [--tsan]" >&2
       exit 2 ;;
  esac
done

echo "== tier-1: lint =="
scripts/lint_determinism.sh

echo "== tier-1: configure + build =="
cmake -B build -S . -DFGCS_WERROR=OFF
cmake --build build -j

echo "== tier-1: ctest =="
ctest --test-dir build --output-on-failure -j "$(nproc)"

if [[ "$run_asan" -eq 1 ]]; then
  echo "== asan: configure + build =="
  cmake -B build-asan -S . -DFGCS_SANITIZE=address
  cmake --build build-asan -j

  echo "== asan: obs + sim + arena tests =="
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)" \
    -R '^(Obs|TraceSink|JsonEscape|Observer|Counter|Gauge|Histogram|Metric|Simulation|EventQueue|SimTime|SimDuration|Arena|Knobs)'
fi

if [[ "$run_chaos" -eq 1 ]]; then
  echo "== chaos: configure + build (address,undefined) =="
  cmake -B build-chaos -S . -DFGCS_SANITIZE=address,undefined
  cmake --build build-chaos -j

  echo "== chaos: fault-injection + robustness suites =="
  ctest --test-dir build-chaos --output-on-failure -j "$(nproc)" \
    -R '^(FaultPlan|FaultInjector|MachineFaultSession|FaultedWalk|FaultChaos|GuestStudy|GuestController|CheckpointPolicy|ControllerFixture|TraceSalvage)'
fi

if [[ "$run_crash" -eq 1 ]]; then
  echo "== crash: kill(-9) + resume bit-identity harness =="
  cmake --build build -j --target fgcs_crashtest
  build/tools/fgcs_crashtest --points 20 --machines 16 --days 4 \
    --dir build/crash_harness.tmp
fi

if [[ "$run_fuzz" -eq 1 ]]; then
  echo "== fuzz: configure + build (address,undefined) =="
  cmake -B build-fuzz -S . -DFGCS_SANITIZE=address,undefined
  cmake --build build-fuzz -j --target fgcs_fuzz_driver

  echo "== fuzz: deterministic driver, 10k iterations per target =="
  build-fuzz/tests/fuzz/fgcs_fuzz_driver \
    --target all --corpus tests/fuzz/corpus --iterations 10000 --seed 20060806
fi

if [[ "$run_tsan" -eq 1 ]]; then
  echo "== tsan: configure + build (thread) =="
  cmake -B build-tsan -S . -DFGCS_SANITIZE=thread
  cmake --build build-tsan -j

  echo "== tsan: fleet + parallel + columnar + serve + query suites =="
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
    -R '^(Fleet|TraceV2|PredictParallel|ObsShard|ObsFlightRecorder|ThreadPool|ParallelFor|Testbed|Arena|Knobs|Serve|Query)'
fi

if [[ "$run_bench" -eq 1 ]]; then
  echo "== bench: sim-core suite + regression gate =="
  scripts/run_bench.sh --check-only

  echo "== bench: fleet telemetry overhead budget =="
  # Budget the telemetry's *absolute* cost per machine-day, not a percent
  # of sweep wall time: the columnar engine made the sweep ~30x faster,
  # so a relative budget would flag sim speedups as telemetry regressions.
  # Measured cost is ~4 us/machine-day; 15 us leaves shared-host headroom
  # while still catching a real hook-cost regression.
  usec_per_md="$(awk '
    match($0, /"fleet_telemetry_machines": [0-9.]+/)   { m = substr($0, RSTART + 27, RLENGTH - 27) }
    match($0, /"fleet_telemetry_days": [0-9.]+/)       { d = substr($0, RSTART + 23, RLENGTH - 23) }
    match($0, /"fleet_telemetry_alloc_ms": [0-9.]+/)   { a = substr($0, RSTART + 27, RLENGTH - 27) }
    match($0, /"fleet_telemetry_collect_ms": [0-9.]+/) { c = substr($0, RSTART + 29, RLENGTH - 29) }
    match($0, /"fleet_telemetry_write_ms": [0-9.]+/)   { w = substr($0, RSTART + 27, RLENGTH - 27) }
    END { if (m && d) printf "%.2f", (a + c + w) * 1000.0 / (m * d) }
  ' build/BENCH_obs.latest.json)"
  if [[ -z "$usec_per_md" ]]; then
    echo "check_build: FAIL — build/BENCH_obs.latest.json is missing the" \
         "fleet_telemetry_* phase fields (run_bench.sh should write them)" >&2
    exit 1
  fi
  echo "gate: fleet telemetry phase-accounted cost ${usec_per_md} us/machine-day (budget 15)"
  if awk -v o="$usec_per_md" 'BEGIN { exit !(o >= 15.0) }'; then
    echo "check_build: FAIL — enabled-telemetry fleet cost ${usec_per_md}" \
         "us/machine-day exceeds the 15 us budget" >&2
    exit 1
  fi
fi

if [[ "$run_bench" -eq 1 ]]; then
  echo "== bench: serve suite scale gate =="
  # The serving layer's headline claim is absolute, not relative: the
  # committed BENCH_serve.json must come from >= 1M queries against a
  # >= 2000-machine fleet. A smaller run would make the qps/p99 gates
  # meaningless, so it fails here regardless of how fast it was.
  serve_json="build/BENCH_serve.latest.json"
  serve_queries="$(sed -n 's/.*"serve_queries": \([0-9]*\).*/\1/p' "$serve_json")"
  serve_machines="$(sed -n 's/.*"serve_machines": \([0-9]*\).*/\1/p' "$serve_json")"
  echo "gate: serve load ${serve_queries:-<missing>} queries over ${serve_machines:-<missing>} machines (need >= 1000000 / >= 2000)"
  if [[ -z "$serve_queries" || -z "$serve_machines" ]] || \
     [[ "$serve_queries" -lt 1000000 || "$serve_machines" -lt 2000 ]]; then
    echo "check_build: FAIL — serve bench below the 1M-query / 2000-machine floor" >&2
    exit 1
  fi
fi

if [[ "$run_bench" -eq 1 ]]; then
  echo "== bench: query suite scale gate =="
  # The streaming-analytics claim is also absolute: the committed
  # BENCH_query.json must come from a >= 1,000,000-machine spill, and the
  # scan's peak RSS must sit under a fixed budget — O(shard + block)
  # memory is the engine's contract, so a fleet-sized RSS is a failure
  # no matter how fast the scan was.
  query_json="build/BENCH_query.latest.json"
  query_machines="$(sed -n 's/.*"query_machines": \([0-9]*\).*/\1/p' "$query_json")"
  query_rss="$(sed -n 's/.*"query_full_scan_peak_rss_mb": \([0-9.]*\).*/\1/p' "$query_json")"
  echo "gate: query bench ${query_machines:-<missing>} machines, full-scan peak RSS ${query_rss:-<missing>} MB (need >= 1000000 machines, RSS <= 256 MB)"
  if [[ -z "$query_machines" || -z "$query_rss" ]] || \
     [[ "$query_machines" -lt 1000000 ]] || \
     awk -v r="$query_rss" 'BEGIN { exit !(r > 256.0) }'; then
    echo "check_build: FAIL — query bench below the 1M-machine floor or" \
         "over the 256 MB scan-RSS budget" >&2
    exit 1
  fi
fi

echo "check_build: OK"
