// Deterministic fault injection: FaultPlan -> concrete scheduled events.
//
// A FaultInjector expands a declarative FaultPlan over a (machines,
// horizon) grid into concrete FaultEvents. Expansion draws from its own
// keyed util::RngStream substreams — (seed, spec index, machine) — so it
// is bit-reproducible, independent of thread count, and does not perturb
// any other random stream in the simulation (workload synthesis is
// unchanged by adding a plan).
//
// Consumers read one machine's occurrences with events_for(): the testbed
// walk turns each window fault (crash/dropout/skew) into a start and an
// end breakpoint, and the guest-lifecycle study reads guest kills.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fgcs/fault/fault_plan.hpp"
#include "fgcs/sim/time.hpp"

namespace fgcs::fault {

/// One concrete injected fault occurrence.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  std::uint32_t machine = 0;
  sim::SimTime start;
  sim::SimDuration duration;
  /// Clock-skew offset while active (kClockSkew only).
  sim::SimDuration skew;
};

/// Expands a plan deterministically; the result is immutable and can be
/// shared across per-machine simulations running in parallel.
class FaultInjector {
 public:
  /// Events are generated for machines [0, machines) over [begin, end);
  /// occurrences starting outside the horizon are dropped and durations
  /// are clipped at `end`.
  FaultInjector(const FaultPlan& plan, std::uint64_t seed,
                std::uint32_t machines, sim::SimTime begin, sim::SimTime end);

  /// All events, sorted by (machine, start).
  std::span<const FaultEvent> events() const { return events_; }

  /// One machine's events, sorted by start.
  std::span<const FaultEvent> events_for(std::uint32_t machine) const;

  std::uint32_t machine_count() const { return machines_; }
  sim::SimTime begin() const { return begin_; }
  sim::SimTime end() const { return end_; }

 private:
  std::uint32_t machines_;
  sim::SimTime begin_;
  sim::SimTime end_;
  std::vector<FaultEvent> events_;          // sorted by (machine, start)
  std::vector<std::size_t> machine_offset_;  // size machines_ + 1
};

}  // namespace fgcs::fault
