// Chaos property suite (robustness): the testbed under randomized fault
// plans must replay bit-identically, keep every StateTimeline invariant,
// and produce identical results with the scheduler fast-forward on or
// off while faults are active.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fgcs/core/testbed.hpp"
#include "fgcs/fault/injector.hpp"
#include "fgcs/monitor/guest_controller.hpp"
#include "fgcs/monitor/machine_sampler.hpp"
#include "fgcs/monitor/state_timeline.hpp"
#include "fgcs/os/machine.hpp"
#include "fgcs/sim/simulation.hpp"
#include "fgcs/testkit/reference_walk.hpp"
#include "fgcs/util/rng.hpp"
#include "fgcs/workload/synthetic.hpp"

namespace fgcs {
namespace {

using sim::SimDuration;
using sim::SimTime;

// ---------------------------------------------------------------------------
// Randomized fault plans (deterministic per iteration seed).

fault::FaultPlan random_plan(std::uint64_t seed, std::uint32_t machines) {
  util::RngStream rng(seed, {0xC4A05u});
  fault::FaultPlan plan;
  const std::uint64_t specs = 1 + rng.uniform_index(3);
  for (std::uint64_t i = 0; i < specs; ++i) {
    fault::FaultSpec s;
    s.kind = static_cast<fault::FaultKind>(rng.uniform_index(4));
    if (rng.bernoulli(0.3)) {
      const std::uint64_t n = 1 + rng.uniform_index(3);
      for (std::uint64_t k = 0; k < n; ++k) {
        s.at_hours.push_back(rng.uniform(0.0, 72.0));
      }
    } else {
      s.rate_per_day = rng.uniform(0.5, 8.0);
    }
    s.mean_minutes = rng.uniform(1.0, 45.0);
    if (rng.bernoulli(0.4)) s.duration_minutes = rng.uniform(0.5, 20.0);
    if (s.kind == fault::FaultKind::kClockSkew) {
      s.skew_ms = rng.uniform(-800.0, 800.0);
    }
    if (rng.bernoulli(0.4)) {
      s.machine = static_cast<std::int64_t>(rng.uniform_index(machines));
    }
    plan.specs.push_back(s);
  }
  return plan;
}

core::TestbedConfig chaos_config(std::uint64_t seed) {
  core::TestbedConfig config;
  config.machines = 2;
  config.days = 3;
  config.seed = 5000 + seed;
  config.faults = random_plan(seed, config.machines);
  return config;
}

// ---------------------------------------------------------------------------
// StateTimeline invariants: sorted, non-overlapping, gap-free, and its
// occupancy accounting consistent with the horizon.

void expect_timeline_invariants(const monitor::StateTimeline& timeline) {
  const auto intervals = timeline.intervals();
  ASSERT_FALSE(intervals.empty());
  EXPECT_EQ(intervals.front().start, timeline.start());
  EXPECT_EQ(intervals.back().end, timeline.end());
  SimDuration total = SimDuration::zero();
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    EXPECT_LE(intervals[i].start, intervals[i].end) << "interval " << i;
    if (i > 0) {
      // Gap-free and non-overlapping: each interval starts exactly where
      // the previous one ended.
      EXPECT_EQ(intervals[i - 1].end, intervals[i].start) << "interval " << i;
    }
    total += intervals[i].duration();
  }
  EXPECT_EQ(total, timeline.end() - timeline.start());

  SimDuration in_states = SimDuration::zero();
  for (int s = 1; s <= 5; ++s) {
    in_states += timeline.time_in(static_cast<monitor::AvailabilityState>(s));
  }
  EXPECT_EQ(in_states, timeline.end() - timeline.start());
  EXPECT_GE(timeline.coverage(), 0.0);
  EXPECT_LE(timeline.coverage(), 1.0);
  EXPECT_GE(timeline.availability(), 0.0);
  EXPECT_LE(timeline.availability(), 1.0);
  EXPECT_LE(timeline.sensor_gap_time(), timeline.end() - timeline.start());
}

bool same_records(const std::vector<trace::UnavailabilityRecord>& a,
                  const std::vector<trace::UnavailabilityRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].machine != b[i].machine || a[i].start != b[i].start ||
        a[i].end != b[i].end || a[i].cause != b[i].cause ||
        a[i].host_cpu != b[i].host_cpu ||
        a[i].free_mem_mb != b[i].free_mem_mb) {
      return false;
    }
  }
  return true;
}

TEST(FaultChaosTest, RandomPlansReplayBitIdentically) {
  for (std::uint64_t iter = 1; iter <= 4; ++iter) {
    const auto config = chaos_config(iter);
    for (std::uint32_t m = 0; m < config.machines; ++m) {
      const auto a = core::run_testbed_machine_detailed(config, m);
      const auto b = core::run_testbed_machine_detailed(config, m);
      EXPECT_TRUE(same_records(a.records, b.records))
          << "iter " << iter << " machine " << m;
      const auto ia = a.timeline.intervals();
      const auto ib = b.timeline.intervals();
      ASSERT_EQ(ia.size(), ib.size()) << "iter " << iter;
      for (std::size_t i = 0; i < ia.size(); ++i) {
        EXPECT_EQ(ia[i].state, ib[i].state);
        EXPECT_EQ(ia[i].start, ib[i].start);
        EXPECT_EQ(ia[i].end, ib[i].end);
      }
      EXPECT_EQ(a.timeline.sensor_gap_time(), b.timeline.sensor_gap_time());
    }
  }
}

TEST(FaultChaosTest, TimelineInvariantsHoldUnderRandomPlans) {
  for (std::uint64_t iter = 1; iter <= 6; ++iter) {
    const auto config = chaos_config(iter);
    for (std::uint32_t m = 0; m < config.machines; ++m) {
      const auto detail = core::run_testbed_machine_detailed(config, m);
      expect_timeline_invariants(detail.timeline);
      // The trace records are the timeline's failure intervals: sorted
      // and non-overlapping too.
      for (std::size_t i = 1; i < detail.records.size(); ++i) {
        EXPECT_GE(detail.records[i].start, detail.records[i - 1].end);
      }
    }
  }
}

TEST(FaultChaosTest, ParallelTestbedMatchesSequentialMachines) {
  const auto config = chaos_config(3);
  const auto trace = core::run_testbed(config);
  std::vector<trace::UnavailabilityRecord> sequential;
  for (std::uint32_t m = 0; m < config.machines; ++m) {
    const auto records = core::run_testbed_machine(config, m);
    sequential.insert(sequential.end(), records.begin(), records.end());
  }
  const auto parallel = trace.records();
  ASSERT_EQ(parallel.size(), sequential.size());
  EXPECT_TRUE(same_records(
      std::vector<trace::UnavailabilityRecord>(parallel.begin(),
                                               parallel.end()),
      sequential));
}

// ---------------------------------------------------------------------------
// Fast-forward on/off equivalence with faults: a machine + sampler +
// detector + guest controller driven off one sim::Simulation, with a
// fault session injecting a dropout, a crash, and a guest kill. The
// scheduler fast-forward is a pure optimization — every observable
// (states, episodes, guest actions, CPU accounting) must be identical.

struct ChaosOutcome {
  std::vector<monitor::AvailabilityState> states;
  std::vector<monitor::GuestActionRecord> actions;
  std::vector<monitor::UnavailabilityEpisode> episodes;
  std::int64_t guest_cpu_us = 0;
  bool guest_killed = false;

  bool operator==(const ChaosOutcome& other) const {
    if (states != other.states || guest_cpu_us != other.guest_cpu_us ||
        guest_killed != other.guest_killed ||
        actions.size() != other.actions.size() ||
        episodes.size() != other.episodes.size()) {
      return false;
    }
    for (std::size_t i = 0; i < actions.size(); ++i) {
      if (actions[i].time != other.actions[i].time ||
          actions[i].action != other.actions[i].action ||
          actions[i].state != other.actions[i].state) {
        return false;
      }
    }
    for (std::size_t i = 0; i < episodes.size(); ++i) {
      if (episodes[i].start != other.episodes[i].start ||
          episodes[i].end != other.episodes[i].end ||
          episodes[i].cause != other.episodes[i].cause) {
        return false;
      }
    }
    return true;
  }
};

ChaosOutcome run_chaos_machine(bool fast_forward, std::uint64_t seed) {
  os::SchedulerParams sched = os::SchedulerParams::linux_2_4();
  sched.fast_forward = fast_forward;
  os::Machine machine(sched, os::MemoryParams::linux_1gb(), seed);
  util::RngStream rng(seed, {77});
  for (const auto& spec : workload::make_host_group(0.25, 2, rng)) {
    machine.spawn(spec);
  }
  const os::ProcessId guest = machine.spawn(workload::synthetic_guest(0));

  monitor::MachineSampler sampler(machine);
  const monitor::ThresholdPolicy policy =
      monitor::ThresholdPolicy::linux_testbed();
  monitor::UnavailabilityDetector detector(policy);
  monitor::CheckpointPolicy ckpt;
  ckpt.interval = SimDuration::minutes(10);
  ckpt.cost = SimDuration::seconds(5);
  monitor::GuestController controller(machine, guest, 0, ckpt);

  fault::FaultPlan plan;
  fault::FaultSpec dropout;
  dropout.kind = fault::FaultKind::kSensorDropout;
  dropout.at_hours = {0.1};
  dropout.duration_minutes = 3.0;
  plan.specs.push_back(dropout);
  fault::FaultSpec kill;
  kill.kind = fault::FaultKind::kGuestKill;
  kill.at_hours = {0.3};
  plan.specs.push_back(kill);
  fault::FaultSpec crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.at_hours = {1.0};
  crash.duration_minutes = 5.0;
  plan.specs.push_back(crash);

  const SimTime begin = SimTime::epoch();
  const SimTime end = begin + SimDuration::hours(2);
  const fault::FaultInjector injector(plan, seed, 1, begin, end);
  testkit::MachineFaultSession session(injector, 0);

  sim::Simulation simulation;
  session.schedule(simulation);

  ChaosOutcome out;
  struct Loop {
    os::Machine& machine;
    monitor::MachineSampler& sampler;
    monitor::UnavailabilityDetector& detector;
    monitor::GuestController& controller;
    testkit::MachineFaultSession& session;
    sim::Simulation& simulation;
    ChaosOutcome& out;
    os::ProcessId guest;
    SimTime last_sample;
    bool dropped = false;
  } loop{machine,    sampler, detector, controller, session,
         simulation, out,     guest,    begin};

  for (const SimTime k : session.guest_kill_times()) {
    simulation.at(k, [&loop] {
      loop.machine.run_until(loop.simulation.now());
      if (loop.machine.process(loop.guest).state() !=
          os::ProcState::kExited) {
        loop.machine.terminate(loop.guest);
      }
    });
  }

  simulation.every(policy.sample_period, [&loop] {
    const SimTime now = loop.simulation.now();
    loop.machine.run_until(now);
    if (loop.session.dropout_active()) {
      loop.dropped = true;
      return;
    }
    monitor::HostSample sample = loop.sampler.sample();
    if (loop.dropped) {
      loop.detector.record_gap(loop.last_sample, now);
      loop.dropped = false;
    }
    if (loop.session.crash_active()) sample.service_alive = false;
    loop.last_sample = sample.time;
    loop.out.states.push_back(loop.detector.observe(sample));
    loop.controller.apply(loop.detector);
  });

  simulation.run_until(end);
  machine.run_until(end);
  detector.finish(end);

  out.actions = controller.actions();
  out.episodes.assign(detector.episodes().begin(), detector.episodes().end());
  out.guest_cpu_us = machine.process(guest).cpu_time().as_micros();
  out.guest_killed = machine.process(guest).killed();
  return out;
}

TEST(FaultChaosTest, FastForwardOnOffAreEquivalentUnderFaults) {
  for (const std::uint64_t seed : {21u, 22u}) {
    const ChaosOutcome ff = run_chaos_machine(true, seed);
    const ChaosOutcome plain = run_chaos_machine(false, seed);
    EXPECT_FALSE(ff.states.empty());
    EXPECT_TRUE(ff == plain) << "seed " << seed;
    // The harness must actually exercise the fault paths: the injected
    // kill happened and was observed by the controller.
    EXPECT_TRUE(ff.guest_killed) << "seed " << seed;
    const bool observed = std::any_of(
        ff.actions.begin(), ff.actions.end(), [](const auto& a) {
          return a.action == monitor::GuestAction::kObservedKilled;
        });
    EXPECT_TRUE(observed) << "seed " << seed;
  }
}

TEST(FaultChaosTest, ChaosHarnessReplaysBitIdentically) {
  const ChaosOutcome a = run_chaos_machine(true, 33);
  const ChaosOutcome b = run_chaos_machine(true, 33);
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace fgcs
