// Differential oracles: paired implementations, machine-checked equal.
//
// Each oracle runs the same seeded input through two implementations that
// must agree — a fast path against its reference path, or a library
// component against an independent brute-force reimplementation — and
// diffs the full observable state:
//
//   scheduler-fastforward   os::Machine analytic fast-forward vs. the
//                           tick-by-tick reference scheduler
//   testbed-parallel        core::run_testbed (thread pool) vs. a
//                           sequential per-machine sweep
//   trace-roundtrip         salvage readers vs. strict readers on clean
//                           CSV and binary serializations
//   semi-markov-brute       predict::SemiMarkovPredictor vs. brute-force
//                           enumeration of the conditional-survival
//                           estimate on small synthetic chains
//   fleet-sharded           fleet::run_fleet (sharded, multi-thread) vs.
//                           core::run_testbed, over seed-drawn shard
//                           geometries and worker counts
//   prediction-parallel     core::run_prediction_study with parallel
//                           machine evaluation vs. the sequential path,
//                           every metric compared bit-for-bit
//   flight-recorder         run_scenario_recorded twice on the same
//                           scenario: both captures must pass the flight
//                           invariant battery and render to
//                           byte-identical sim-time-ordered post-mortems
//   soa-machine-step        TestbedRunner's columnar arena-backed walk
//                           (run_into) vs. testkit's per-sample event-loop
//                           reference (reference_walk.hpp), fault plans
//                           included: records, transitions, gaps,
//                           timelines, counter shards, flight captures
//                           and the capacity profile bit-for-bit
//   fleet-resume            a checkpointed sweep, crash-doctored (segment
//                           deleted / byte-flipped, state blob or
//                           manifest removed) and resumed, vs. the clean
//                           sweep — every segment, the metrics file, and
//                           the manifest byte-compared
//   serve-incremental       serve::AvailabilityFeed's incremental
//                           per-event state, queried at several ingest
//                           prefixes, vs. predict::SemiMarkovPredictor
//                           trained batch-style on the same prefix —
//                           predictions compared bit-for-bit
//   query-pushdown          query::SegmentQuery's zone-map pushdown scan
//                           vs. the brute-force full scan (pruning off)
//                           vs. the materializing analyzer + predictor on
//                           the predicate-filtered trace, under seed-drawn
//                           predicates — every aggregate bit-compared
//
// This replaces scattered hand-rolled equivalence tests with one API the
// CI property suite sweeps over hundreds of seeds.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace fgcs::core {
struct TestbedConfig;
}  // namespace fgcs::core

namespace fgcs::testkit {

/// Outcome of one oracle on one seed.
struct DiffResult {
  bool match = true;
  std::string detail;  // first divergence found, empty on match

  static DiffResult ok() { return {}; }
  static DiffResult mismatch(std::string detail) {
    return DiffResult{false, std::move(detail)};
  }
};

/// A named paired-implementation check, deterministic in the seed.
struct DiffOracle {
  std::string name;
  std::function<DiffResult(std::uint64_t seed)> run;
};

/// The eleven standard oracles above.
const std::vector<DiffOracle>& standard_oracles();

/// Diffs core's machine walk against the testkit reference walk on every
/// machine of `config`, fault plan included: run_into's records, the
/// detailed walk's transitions, gaps and timeline, and each machine's
/// obs::CounterShard and flight-recorder capture; then
/// core::run_capacity_profile. The soa-machine-step oracle runs it on
/// seed-drawn configs.
DiffResult diff_testbed_walks(const core::TestbedConfig& config);

/// Finds a standard oracle by name; nullptr when unknown.
const DiffOracle* find_oracle(std::string_view name);

struct OracleFailure {
  std::string oracle;
  std::uint64_t seed = 0;
  std::string detail;
};

/// Sweeps every standard oracle over `seeds_per_oracle` seeds derived from
/// `base_seed`; returns every divergence found (empty == all agree).
std::vector<OracleFailure> run_oracles(std::uint64_t base_seed,
                                       int seeds_per_oracle);

}  // namespace fgcs::testkit
