// The reference machine walk: one sim::Simulation event per monitor
// sample.
//
// This is the per-sample event loop the testbed's columnar walk
// (core::TestbedRunner::run_into) replaced. It stays here as the oracle
// that walk is diffed against (the soa-machine-step oracle, the
// fault-plan fuzz target, and the faulted-walk tests): sampling runs as a
// periodic task on a per-machine simulation, and a MachineFaultSession
// installs the machine's window faults on the same event queue as start
// and end events. Crashes flip service_alive, dropouts swallow samples
// (reported to the detector as sensor gaps), and clock-skew blips shift
// the reported sample timestamps, kept monotone and inside the horizon.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fgcs/core/testbed.hpp"
#include "fgcs/fault/injector.hpp"
#include "fgcs/monitor/detector.hpp"
#include "fgcs/monitor/state_timeline.hpp"
#include "fgcs/trace/records.hpp"

namespace fgcs::sim {
class Simulation;
}  // namespace fgcs::sim

namespace fgcs::testkit {

/// Live fault state of one machine inside one simulation run. Window
/// faults (crash/dropout/skew) keep activation *counts* so overlapping
/// occurrences nest correctly; guest kills are exposed as a sorted time
/// list for a guest lifecycle to consume.
///
///   MachineFaultSession session(injector, machine_id);
///   session.schedule(simulation);
///   simulation.every(period, [&] {
///     if (session.dropout_active()) { /* no sample: sensor gap */ }
///     sample.service_alive = !session.crash_active() && ...;
///   });
class MachineFaultSession {
 public:
  MachineFaultSession(const fault::FaultInjector& injector,
                      std::uint32_t machine);

  /// Installs start/end events for every window fault on `simulation`
  /// (guest kills are not scheduled here — see guest_kill_times()). Call
  /// once, before running. Counts fault.injected{kind=...} as events fire.
  void schedule(sim::Simulation& simulation);

  bool crash_active() const { return crash_depth_ > 0; }
  bool dropout_active() const { return dropout_depth_ > 0; }
  /// Sum of active skew offsets (zero when no blip is active).
  sim::SimDuration skew() const { return skew_; }

  /// Scheduled guest-kill instants within the horizon, sorted.
  std::span<const sim::SimTime> guest_kill_times() const { return kills_; }

 private:
  std::span<const fault::FaultEvent> events_;
  std::vector<sim::SimTime> kills_;
  int crash_depth_ = 0;
  int dropout_depth_ = 0;
  sim::SimDuration skew_ = sim::SimDuration::zero();
};

/// Everything the reference walk observes for one machine — the
/// counterpart of core::TestbedMachineDetail.
struct ReferenceMachine {
  std::vector<trace::UnavailabilityRecord> records;
  std::vector<monitor::Transition> transitions;
  std::vector<monitor::SensorGap> gaps;
  monitor::StateTimeline timeline;
};

/// Walks one machine of `config` (fault plan included) through the
/// per-sample event loop.
ReferenceMachine run_reference_machine(const core::TestbedConfig& config,
                                       trace::MachineId machine);

/// core::run_capacity_profile on the reference walk: one accumulation per
/// sample callback, machines walked sequentially.
core::CapacityProfile run_reference_capacity_profile(
    const core::TestbedConfig& config);

}  // namespace fgcs::testkit
