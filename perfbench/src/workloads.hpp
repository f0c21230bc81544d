// The benchmark's workloads and the output checks their ops must pass.
//
// Every workload runs the same op types on inputs synthesized from one
// host-load profile: `purdue` (the paper's Purdue lab) and `enterprise`
// (its proposed enterprise-desktop testbed). The op types are
//
//   sweep          fleet::run_fleet, 16 x 28, spill + checkpoint + FGCSMET1
//                  telemetry: the write path of `fgcs fleet --spill-dir
//                  --metrics-ts-out`.
//   sweep-faulted  the same call over 16 x 7 with a fault plan and no
//                  telemetry: the legacy per-sample walk and the fault
//                  module.
//   scan-full, scan-selective, ingest, query-batch
//                  over one 2000 x 28 spill made at set-up: the read side
//                  of trace, query and serve.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fgcs/core/testbed.hpp"
#include "fgcs/fleet/fleet.hpp"
#include "fgcs/query/engine.hpp"
#include "fgcs/serve/load.hpp"
#include "fgcs/trace/trace_set.hpp"
#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Work directory for spills; created, and removed again at exit.
  std::string work_dir;
  /// Directory holding the benchmark's input files (the fault plan).
  std::string inputs_dir;
};

/// Runs one workload end to end and returns its report.
Report run_workload(const Options& options);

// ------------------------------------------------------- output checks
// Each returns an empty string when the output is correct, else the first
// difference found.

struct ShardDigest {
  std::uint32_t crc = 0;
  std::uint64_t records = 0;
  bool operator==(const ShardDigest&) const = default;
};

/// File CRC and record count of every segment of a spilled sweep, in
/// shard order.
std::vector<ShardDigest> digest_segments(const fgcs::fleet::FleetResult& result);

/// Field-for-field, bit-for-bit record comparison.
std::string diff_records(std::span<const fgcs::trace::UnavailabilityRecord> want,
                         std::span<const fgcs::trace::UnavailabilityRecord> got);

/// A sweep op's check: its segments must match `reference` (CRC and
/// record count per shard) and machine `sampled`, read back from its
/// segment, must equal core::run_testbed_machine on the same config.
std::string check_sweep(const std::vector<ShardDigest>& reference,
                        const fgcs::fleet::FleetResult& got,
                        const fgcs::core::TestbedConfig& testbed,
                        fgcs::trace::MachineId sampled);

/// The materializing analyzer (core::TraceAnalyzer) on `trace`, in
/// QueryResult form; training and scan stats are left zero.
fgcs::query::QueryResult analyze(const fgcs::trace::TraceSet& trace);

/// Compares Table 2, the Figure 6 summaries, Figure 7 and the relative
/// deviations, exactly.
std::string diff_analysis(const fgcs::query::QueryResult& want,
                          const fgcs::query::QueryResult& got);

/// Compares the semi-Markov training fold and the matched-record count.
std::string diff_training(const fgcs::query::QueryResult& want,
                          const fgcs::query::QueryResult& got);

std::string diff_load(const fgcs::serve::LoadStats& want, const fgcs::serve::LoadStats& got);

/// Heap allocations TestbedRunner::run_into makes per machine-day once
/// its scratch is warm: each shard's machines run once on one scratch and
/// record buffer, as run_fleet runs them, to grow both, then run again
/// while the allocations are counted. Untimed.
double steady_state_allocs_per_machine_day(const fgcs::fleet::FleetConfig& config);

}  // namespace perfbench
