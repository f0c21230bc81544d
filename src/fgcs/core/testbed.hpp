// The testbed simulation (§5): N machines traced for D days.
//
// Each machine's host load is synthesized by the lab workload model; the
// unavailability detector consumes periodic samples and its episodes
// become the trace — the same pipeline the iShare monitor ran on the real
// Purdue lab, with the lab replaced by the model.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fgcs/fault/fault_plan.hpp"
#include "fgcs/fault/injector.hpp"
#include "fgcs/monitor/policy.hpp"
#include "fgcs/monitor/state_timeline.hpp"
#include "fgcs/trace/calendar.hpp"
#include "fgcs/trace/trace_set.hpp"
#include "fgcs/util/arena.hpp"
#include "fgcs/workload/load_model.hpp"

namespace fgcs::core {

struct TestbedConfig {
  /// 20 machines, 3 months (Aug 15 - Nov 14, 2005): ~1800 machine-days.
  std::uint32_t machines = 20;
  int days = 92;
  trace::DayOfWeek start_dow = trace::DayOfWeek::kMonday;

  workload::LabProfile profile = workload::LabProfile::purdue_lab();
  monitor::ThresholdPolicy policy = monitor::ThresholdPolicy::linux_testbed();

  /// Lab machines have "larger than 1 GB" physical memory (§5.1).
  double ram_mb = 1024.0;
  double kernel_mb = 100.0;

  std::uint64_t seed = 20050815;

  /// Injected faults (crashes, sensor dropouts, clock-skew blips) layered
  /// on top of the organic workload. With the empty default no injector
  /// is built and the walk's fault column is a lone sentinel. Expansion is
  /// deterministic in (faults, seed), and the workload's random streams
  /// are untouched, so the same seed with and without a plan synthesizes
  /// the same host load.
  fault::FaultPlan faults;

  void validate() const;
};

/// Runs the testbed simulation; machines are simulated in parallel and the
/// result is deterministic in the config.
trace::TraceSet run_testbed(const TestbedConfig& config);

/// Simulates a single machine (exposed for tests and incremental use).
std::vector<trace::UnavailabilityRecord> run_testbed_machine(
    const TestbedConfig& config, trace::MachineId machine);

/// Reusable per-worker scratch for TestbedRunner::run_into: one bump
/// arena that every transient per-machine allocation (trajectory points,
/// downtimes, overlay deltas, fault edges, detector
/// transitions/episodes/gaps) draws from. The arena is reset per machine
/// but its chunks are retained, so after the first machine warms it a
/// machine-day performs zero heap allocations. One scratch per worker
/// thread; not shareable.
struct MachineScratch {
  util::Arena arena;
};

/// Validates the config once and builds the (optional) fault injector
/// once, so sweep engines can simulate machines repeatedly without paying
/// per-machine setup. run() is const and thread-safe: concurrent calls
/// for different machines share only immutable state, and each machine's
/// result is identical to run_testbed_machine() for the same config.
///
/// Every machine takes one columnar walk: the piecewise-constant
/// trajectory, its downtimes and the machine's fault windows are walked
/// run-of-constant-samples at a time through
/// UnavailabilityDetector::observe_run, with all scratch in the arena.
class TestbedRunner {
 public:
  explicit TestbedRunner(TestbedConfig config);

  const TestbedConfig& config() const { return config_; }
  sim::SimTime horizon_start() const { return sim::SimTime::epoch(); }
  sim::SimTime horizon_end() const {
    return sim::SimTime::epoch() + sim::SimDuration::days(config_.days);
  }

  std::vector<trace::UnavailabilityRecord> run(trace::MachineId machine) const;

  /// Allocation-free steady-state variant: all transient state draws
  /// from `scratch` (reset here, per call) and records are appended to
  /// `out` (cleared here; its capacity is retained across machines).
  void run_into(trace::MachineId machine, MachineScratch& scratch,
                std::vector<trace::UnavailabilityRecord>& out) const;

 private:
  TestbedConfig config_;
  std::optional<fault::FaultInjector> injector_;
};

/// Per-machine detail: the trace records, the detector's transitions and
/// sensor gaps, and the full five-state timeline (the empirical Figure 5
/// view).
struct TestbedMachineDetail {
  std::vector<trace::UnavailabilityRecord> records;
  std::vector<monitor::Transition> transitions;
  std::vector<monitor::SensorGap> gaps;
  monitor::StateTimeline timeline;
};

TestbedMachineDetail run_testbed_machine_detailed(const TestbedConfig& config,
                                                  trace::MachineId machine);

/// Deliverable compute capacity by hour of day — the §2 comparison point
/// with CPU-availability studies ([8], [17]): at each monitor sample, a
/// guest can harvest (1 - host CPU) of the machine when the model is in
/// S1/S2, and nothing in a failure state.
struct CapacityProfile {
  std::array<double, 24> weekday_cpu{};      // mean deliverable CPU fraction
  std::array<double, 24> weekend_cpu{};
  std::array<double, 24> weekday_free_mem{};  // mean free memory, MB
  std::array<double, 24> weekend_free_mem{};
  /// Mean raw host CPU load per hour (regardless of model state) — used
  /// to quantify §5.3's "occurrences are tightly correlated with host
  /// workloads during the corresponding hour".
  std::array<double, 24> weekday_host_load{};
  std::array<double, 24> weekend_host_load{};
  double overall_cpu = 0.0;
  /// Fraction of samples in S1/S2 (machine usable at all).
  double overall_usable = 0.0;
};

CapacityProfile run_capacity_profile(const TestbedConfig& config);

}  // namespace fgcs::core
