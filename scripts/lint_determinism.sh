#!/usr/bin/env bash
# Determinism lint: the simulation core must be a pure function of its
# seeds.  Reject sources of hidden nondeterminism in the deterministic
# subtree (src/fgcs/{sim,os,core,fault,fleet,monitor,workload,util,...}):
#
#   - wall-clock reads   (std::chrono clocks, time(), gettimeofday, ...)
#   - libc / hardware RNG (rand, srand, random_device) — all randomness
#     must flow through util::RngStream keyed substreams
#   - unordered associative containers, whose iteration order varies
#     across libstdc++ versions and hash seeds
#
# A line may opt out with a trailing `NOLINT(determinism)` comment plus a
# justification; none exist today and new ones should be rare.
#
#   scripts/lint_determinism.sh          # exit 0 clean, 1 with findings
set -euo pipefail

cd "$(dirname "$0")/.."

# monitor, workload, and util joined the deterministic subtree when the
# columnar engine moved detector batching, load generation, and the arena
# allocator onto the per-machine hot path; recover joined with the
# checkpoint/resume path (a resumed sweep must be a pure function of the
# config plus the bytes on disk); serve joined when the online predictor
# service landed (snapshot contents and load-generator draws must be a
# pure function of the ingested records and the query seed — latency
# timing lives in bench/ and tools/, outside this subtree); query joined
# with the streaming analytics engine (a parallel segment scan must fold
# to bit-identical aggregates regardless of worker count or timing —
# scan-throughput clocks live in bench/ and tools/); testkit joined when
# the per-sample reference walk moved there (an oracle must be as
# deterministic as the code it checks).
DIRS=(src/fgcs/sim src/fgcs/os src/fgcs/core src/fgcs/fault src/fgcs/fleet
      src/fgcs/monitor src/fgcs/workload src/fgcs/util src/fgcs/recover
      src/fgcs/serve src/fgcs/query src/fgcs/testkit)

# pattern<TAB>human-readable reason
RULES=$(cat <<'EOF'
std::chrono::(system_clock|steady_clock|high_resolution_clock)	wall-clock read; sim code must use sim::SimTime
\b(time|gettimeofday|clock_gettime|localtime|gmtime)\s*\(	wall-clock/libc time read; sim code must use sim::SimTime
\b(rand|srand|rand_r|drand48|lrand48)\s*\(	libc RNG; use util::RngStream keyed substreams
std::random_device	hardware RNG is nondeterministic; seed util::RngStream explicitly
std::unordered_(map|set|multimap|multiset)	unordered iteration order is not stable; use std::map/std::set or a sorted vector
EOF
)

status=0
while IFS=$'\t' read -r pattern reason; do
  [[ -z "$pattern" ]] && continue
  # -I skips binaries; filter suppressed lines and pure comment lines.
  if hits=$(grep -rnIE --include='*.hpp' --include='*.cpp' "$pattern" "${DIRS[@]}" \
      | grep -v 'NOLINT(determinism)' \
      | grep -vE '^[^:]+:[0-9]+:\s*(//|\*)'); then
    echo "lint_determinism: banned pattern '$pattern'" >&2
    echo "  reason: $reason" >&2
    echo "$hits" | sed 's/^/  /' >&2
    status=1
  fi
done <<< "$RULES"

if [[ "$status" -eq 0 ]]; then
  echo "lint_determinism: OK (${DIRS[*]})"
fi
exit "$status"
