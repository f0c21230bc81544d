// The testkit reference walk: its per-machine fault session
// (MachineFaultSession), and the faulted-walk differential tests that pin
// the production walk to it at edges the seeded oracle sweep cannot reach
// (exact sample instants, skews past the period, the horizon's ends,
// overlapping windows).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fgcs/core/testbed.hpp"
#include "fgcs/fault/injector.hpp"
#include "fgcs/obs/observer.hpp"
#include "fgcs/sim/simulation.hpp"
#include "fgcs/testkit/diff_oracle.hpp"
#include "fgcs/testkit/reference_walk.hpp"
#include "fgcs/workload/load_model.hpp"

namespace fgcs::testkit {
namespace {

using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;
using fault::kFaultKindCount;
using monitor::AvailabilityState;
using sim::SimDuration;
using sim::SimTime;

FaultPlan rate_plan(double per_day, double mean_minutes) {
  FaultPlan plan;
  FaultSpec s;
  s.kind = FaultKind::kCrash;
  s.rate_per_day = per_day;
  s.mean_minutes = mean_minutes;
  plan.specs.push_back(s);
  return plan;
}

TEST(MachineFaultSessionTest, WindowFaultsActivateAndDeactivate) {
  FaultPlan plan;
  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  crash.at_hours = {1.0};
  crash.duration_minutes = 30.0;
  plan.specs.push_back(crash);
  FaultSpec skew;
  skew.kind = FaultKind::kClockSkew;
  skew.at_hours = {0.5};
  skew.duration_minutes = 90.0;
  skew.skew_ms = 250.0;
  plan.specs.push_back(skew);

  const FaultInjector inj(plan, 2, 1, SimTime::epoch(),
                          SimTime::epoch() + SimDuration::hours(4));
  MachineFaultSession session(inj, 0);
  sim::Simulation simulation;
  session.schedule(simulation);

  struct Probe {
    SimDuration at;
    bool crash;
    double skew_s;
  };
  const std::vector<Probe> probes = {
      {SimDuration::minutes(10), false, 0.0},
      {SimDuration::minutes(45), false, 0.25},   // skew blip only
      {SimDuration::minutes(75), true, 0.25},    // crash + skew overlap
      {SimDuration::minutes(100), false, 0.25},  // crash ended at 1h30
      {SimDuration::minutes(150), false, 0.0},   // skew ended at 2h
  };
  for (const auto& probe : probes) {
    simulation.at(SimTime::epoch() + probe.at, [&session, &probe] {
      EXPECT_EQ(session.crash_active(), probe.crash)
          << "at minute " << probe.at.as_minutes();
      EXPECT_DOUBLE_EQ(session.skew().as_seconds(), probe.skew_s)
          << "at minute " << probe.at.as_minutes();
    });
  }
  simulation.run_all();
  EXPECT_FALSE(session.crash_active());
  EXPECT_EQ(session.skew(), SimDuration::zero());
}

TEST(MachineFaultSessionTest, GuestKillsAreListedNotScheduled) {
  FaultPlan plan;
  FaultSpec kill;
  kill.kind = FaultKind::kGuestKill;
  kill.at_hours = {5.0, 1.0, 3.0};
  plan.specs.push_back(kill);

  const FaultInjector inj(plan, 4, 1, SimTime::epoch(),
                          SimTime::epoch() + SimDuration::hours(8));
  MachineFaultSession session(inj, 0);
  const auto kills = session.guest_kill_times();
  ASSERT_EQ(kills.size(), 3u);
  EXPECT_EQ(kills[0], SimTime::epoch() + SimDuration::hours(1));
  EXPECT_EQ(kills[1], SimTime::epoch() + SimDuration::hours(3));
  EXPECT_EQ(kills[2], SimTime::epoch() + SimDuration::hours(5));

  sim::Simulation simulation;
  session.schedule(simulation);
  simulation.run_all();
  // Kills never toggle the window-fault flags.
  EXPECT_FALSE(session.crash_active());
  EXPECT_FALSE(session.dropout_active());
  EXPECT_EQ(simulation.events_executed(), 0u);
}

TEST(MachineFaultSessionTest, OverlappingDropoutsNest) {
  FaultPlan plan;
  FaultSpec drop;
  drop.kind = FaultKind::kSensorDropout;
  drop.at_hours = {1.0, 1.25};  // second starts inside the first
  drop.duration_minutes = 30.0;
  plan.specs.push_back(drop);

  const FaultInjector inj(plan, 6, 1, SimTime::epoch(),
                          SimTime::epoch() + SimDuration::hours(3));
  MachineFaultSession session(inj, 0);
  sim::Simulation simulation;
  session.schedule(simulation);

  // First window ends at 1h30, second at 1h45; the flag must stay up
  // through the overlap seam.
  simulation.at(SimTime::epoch() + SimDuration::minutes(95),
                [&session] { EXPECT_TRUE(session.dropout_active()); });
  simulation.at(SimTime::epoch() + SimDuration::minutes(110),
                [&session] { EXPECT_FALSE(session.dropout_active()); });
  simulation.run_all();
}

// The obs layer's fault.injected{kind} counters must equal the expanded
// plan exactly: one bump per scheduled window-fault activation, none for
// guest-kills (those never enter the event loop — the lifecycle study
// consumes them from the kill list instead).
TEST(MachineFaultSessionTest, ObsCountersMatchExpandedPlan) {
  FaultPlan plan;
  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  crash.rate_per_day = 3.0;
  crash.mean_minutes = 10.0;
  plan.specs.push_back(crash);
  FaultSpec drop;
  drop.kind = FaultKind::kSensorDropout;
  drop.at_hours = {2.0, 30.0, 50.0};
  drop.duration_minutes = 5.0;
  plan.specs.push_back(drop);
  FaultSpec skew;
  skew.kind = FaultKind::kClockSkew;
  skew.rate_per_day = 1.0;
  skew.mean_minutes = 8.0;
  skew.skew_ms = 300.0;
  plan.specs.push_back(skew);
  FaultSpec kill;
  kill.kind = FaultKind::kGuestKill;
  kill.at_hours = {5.0, 20.0};
  plan.specs.push_back(kill);

  const std::uint32_t machines = 3;
  const SimTime begin = SimTime::epoch();
  const SimTime end = begin + SimDuration::days(4);
  const FaultInjector injector(plan, 11, machines, begin, end);

  // Ground truth: per-kind totals of the deterministic expansion.
  std::size_t expected[kFaultKindCount] = {};
  for (const auto& ev : injector.events()) {
    ++expected[static_cast<int>(ev.kind)];
  }
  ASSERT_GT(expected[static_cast<int>(FaultKind::kCrash)], 0u);
  ASSERT_EQ(expected[static_cast<int>(FaultKind::kSensorDropout)],
            3u * machines);
  ASSERT_GT(expected[static_cast<int>(FaultKind::kClockSkew)], 0u);
  ASSERT_EQ(expected[static_cast<int>(FaultKind::kGuestKill)], 2u * machines);

  obs::Observer observer;
  {
    obs::ScopedObserver guard(&observer);
    for (std::uint32_t m = 0; m < machines; ++m) {
      MachineFaultSession session(injector, m);
      sim::Simulation simulation;
      session.schedule(simulation);
      simulation.run_until(end + SimDuration::hours(2));
    }
  }

  auto count = [&](const char* kind) {
    return observer.metrics()
        .counter("fault.injected", {{"kind", kind}})
        .value();
  };
  EXPECT_EQ(count("crash"), expected[static_cast<int>(FaultKind::kCrash)]);
  EXPECT_EQ(count("dropout"),
            expected[static_cast<int>(FaultKind::kSensorDropout)]);
  EXPECT_EQ(count("skew"), expected[static_cast<int>(FaultKind::kClockSkew)]);
  EXPECT_EQ(count("guest-kill"), 0u)
      << "guest kills are not scheduled through the event loop";
}

// Running the same sessions twice under two observers yields identical
// counter totals — injection accounting is as replayable as the events.
TEST(MachineFaultSessionTest, ObsCountersAreDeterministicAcrossRuns) {
  FaultPlan plan = rate_plan(5.0, 15.0);
  const FaultInjector injector(plan, 99, 2, SimTime::epoch(),
                               SimTime::epoch() + SimDuration::days(3));
  auto run_once = [&]() {
    obs::Observer observer;
    {
      obs::ScopedObserver guard(&observer);
      for (std::uint32_t m = 0; m < 2; ++m) {
        MachineFaultSession session(injector, m);
        sim::Simulation simulation;
        session.schedule(simulation);
        simulation.run_all();
      }
    }
    return observer.metrics()
        .counter("fault.injected", {{"kind", "crash"}})
        .value();
  };
  const auto first = run_once();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, run_once());
}


// --- faulted walk vs. reference -------------------------------------------

/// One machine, one day, 15 s samples.
core::TestbedConfig one_machine_day() {
  core::TestbedConfig config;
  config.machines = 1;
  config.days = 1;
  config.seed = 7;
  return config;
}

FaultSpec scripted(FaultKind kind, std::vector<double> at_hours,
                   double minutes, double skew_ms = 250.0) {
  FaultSpec spec;
  spec.kind = kind;
  spec.at_hours = std::move(at_hours);
  spec.duration_minutes = minutes;
  spec.skew_ms = skew_ms;
  return spec;
}

void expect_walks_agree(const core::TestbedConfig& config) {
  const DiffResult r = diff_testbed_walks(config);
  EXPECT_TRUE(r.match) << r.detail;
}

SimTime at(SimDuration d) { return SimTime::epoch() + d; }

bool has_transition_to(const ReferenceMachine& ref, SimTime time,
                       AvailabilityState to) {
  return std::any_of(ref.transitions.begin(), ref.transitions.end(),
                     [&](const monitor::Transition& t) {
                       return t.time == time && t.to == to;
                     });
}

// Fault edges fire before the sample at an equal instant: a crash from 1h
// takes the 1h sample down, and a dropout over [2h, 2h15m) loses the 2h
// sample but not the 2h15m one.
TEST(FaultedWalkTest, EdgesOnSampleInstants) {
  core::TestbedConfig config = one_machine_day();
  config.faults.specs = {
      scripted(FaultKind::kCrash, {1.0}, 30.0),
      scripted(FaultKind::kSensorDropout, {2.0}, 15.0),
      scripted(FaultKind::kClockSkew, {3.0}, 15.0, 5000.0)};
  expect_walks_agree(config);
  const ReferenceMachine ref = run_reference_machine(config, 0);
  EXPECT_TRUE(has_transition_to(ref, at(SimDuration::hours(1)),
                                AvailabilityState::kS5MachineUnavailable));
  ASSERT_EQ(ref.gaps.size(), 1u);
  EXPECT_EQ(ref.gaps[0].start,
            at(SimDuration::hours(2) - SimDuration::seconds(15)));
  EXPECT_EQ(ref.gaps[0].end,
            at(SimDuration::hours(2) + SimDuration::minutes(15)));
}

// A 60 s skew over a 15 s period: the crash inside it is reported a
// minute late, and once each blip ends the clamp repeats timestamps.
TEST(FaultedWalkTest, SkewLargerThanPeriod) {
  core::TestbedConfig config = one_machine_day();
  config.faults.specs = {
      scripted(FaultKind::kClockSkew, {1.0}, 10.0, 60000.0),
      scripted(FaultKind::kClockSkew, {5.0}, 10.0, -60000.0),
      scripted(FaultKind::kCrash, {13.0 / 12.0}, 2.0)};
  expect_walks_agree(config);
  const ReferenceMachine ref = run_reference_machine(config, 0);
  EXPECT_TRUE(has_transition_to(ref, at(SimDuration::minutes(66)),
                                AvailabilityState::kS5MachineUnavailable));
}

// A negative skew at the horizon start clamps reported times to `begin`.
TEST(FaultedWalkTest, NegativeSkewAtHorizonStart) {
  core::TestbedConfig config = one_machine_day();
  config.faults.specs = {
      scripted(FaultKind::kClockSkew, {0.0}, 30.0, -120000.0),
      scripted(FaultKind::kCrash, {0.0}, 5.0)};
  expect_walks_agree(config);
  const ReferenceMachine ref = run_reference_machine(config, 0);
  EXPECT_TRUE(has_transition_to(ref, SimTime::epoch(),
                                AvailabilityState::kS5MachineUnavailable));
}

// A positive skew running past `end` clamps the last samples to `end`.
TEST(FaultedWalkTest, PositiveSkewAcrossEnd) {
  core::TestbedConfig config = one_machine_day();
  config.faults.specs = {
      scripted(FaultKind::kClockSkew, {23.9}, 30.0, 120000.0),
      scripted(FaultKind::kCrash, {23.95}, 10.0)};
  expect_walks_agree(config);
  const ReferenceMachine ref = run_reference_machine(config, 0);
  ASSERT_FALSE(ref.transitions.empty());
  EXPECT_TRUE(has_transition_to(
      ref, at(SimDuration::seconds(86220 + 120)),
      AvailabilityState::kS5MachineUnavailable));
}

// A dropout still open at `end` closes its gap there.
TEST(FaultedWalkTest, DropoutOpenAtEnd) {
  core::TestbedConfig config = one_machine_day();
  config.faults.specs = {scripted(FaultKind::kSensorDropout, {23.5}, 60.0)};
  expect_walks_agree(config);
  const ReferenceMachine ref = run_reference_machine(config, 0);
  ASSERT_EQ(ref.gaps.size(), 1u);
  EXPECT_EQ(ref.gaps[0].start,
            at(SimDuration::minutes(23 * 60 + 30) - SimDuration::seconds(15)));
  EXPECT_EQ(ref.gaps[0].end, at(SimDuration::days(1)));
}

// Overlapping crashes nest: the machine stays down until the last ends.
TEST(FaultedWalkTest, OverlappingCrashes) {
  core::TestbedConfig config = one_machine_day();
  config.faults.specs = {scripted(FaultKind::kCrash, {1.0, 1.25}, 30.0),
                         scripted(FaultKind::kCrash, {1.25}, 5.0)};
  expect_walks_agree(config);
  const ReferenceMachine ref = run_reference_machine(config, 0);
  const bool one_episode = std::any_of(
      ref.records.begin(), ref.records.end(), [](const auto& r) {
        return r.cause == AvailabilityState::kS5MachineUnavailable &&
               r.start == at(SimDuration::hours(1)) &&
               r.end == at(SimDuration::minutes(105));
      });
  EXPECT_TRUE(one_episode);
}

// Crashes straddling both edges of a workload downtime (the load model's
// own S5) nest with it.
TEST(FaultedWalkTest, CrashOverlapsWorkloadDowntime) {
  core::TestbedConfig config;
  config.machines = 1;
  config.days = 3;
  workload::Downtime down{};
  bool found = false;
  for (std::uint64_t seed = 1; seed < 200 && !found; ++seed) {
    config.seed = seed;
    const auto load = workload::generate_machine_load(
        config.profile, seed, 0, config.days,
        static_cast<int>(config.start_dow));
    for (const auto& d : load.downtimes) {
      if (d.start > at(SimDuration::hours(1)) &&
          d.start + d.duration + SimDuration::hours(1) <
              at(SimDuration::days(config.days))) {
        down = d;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found);
  const double start_h = down.start.as_hours();
  const double end_h = (down.start + down.duration).as_hours();
  config.faults.specs = {
      scripted(FaultKind::kCrash, {start_h - 0.1}, 10.0),
      scripted(FaultKind::kCrash, {end_h - 0.05}, 12.0)};
  expect_walks_agree(config);
}

}  // namespace
}  // namespace fgcs::testkit
