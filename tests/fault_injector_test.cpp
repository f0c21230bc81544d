// Tests for deterministic fault expansion (FaultInjector).
#include <gtest/gtest.h>

#include <vector>

#include "fgcs/fault/injector.hpp"
#include "fgcs/util/error.hpp"

namespace fgcs::fault {
namespace {

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

bool same_events(std::span<const FaultEvent> a, std::span<const FaultEvent> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].machine != b[i].machine ||
        a[i].start != b[i].start || a[i].duration != b[i].duration ||
        a[i].skew != b[i].skew) {
      return false;
    }
  }
  return true;
}

TEST(FaultInjectorTest, ExpansionIsDeterministic) {
  const auto plan = rate_plan(4.0, 20.0);
  const FaultInjector a(plan, 42, 3, SimTime::epoch(),
                        SimTime::epoch() + SimDuration::days(14));
  const FaultInjector b(plan, 42, 3, SimTime::epoch(),
                        SimTime::epoch() + SimDuration::days(14));
  EXPECT_FALSE(a.events().empty());
  EXPECT_TRUE(same_events(a.events(), b.events()));
}

TEST(FaultInjectorTest, DifferentSeedsDiffer) {
  const auto plan = rate_plan(4.0, 20.0);
  const FaultInjector a(plan, 1, 2, SimTime::epoch(),
                        SimTime::epoch() + SimDuration::days(14));
  const FaultInjector b(plan, 2, 2, SimTime::epoch(),
                        SimTime::epoch() + SimDuration::days(14));
  EXPECT_FALSE(same_events(a.events(), b.events()));
}

TEST(FaultInjectorTest, MachinesDrawIndependentStreams) {
  const auto plan = rate_plan(4.0, 20.0);
  const FaultInjector inj(plan, 7, 2, SimTime::epoch(),
                          SimTime::epoch() + SimDuration::days(30));
  const auto m0 = inj.events_for(0);
  const auto m1 = inj.events_for(1);
  ASSERT_FALSE(m0.empty());
  ASSERT_FALSE(m1.empty());
  // Same spec, different machines: the occurrence times must not be a
  // shared sequence.
  bool identical = m0.size() == m1.size();
  if (identical) {
    for (std::size_t i = 0; i < m0.size(); ++i) {
      if (m0[i].start != m1[i].start) {
        identical = false;
        break;
      }
    }
  }
  EXPECT_FALSE(identical);
}

TEST(FaultInjectorTest, ScriptedTimesAreExact) {
  FaultPlan plan;
  FaultSpec s;
  s.kind = FaultKind::kSensorDropout;
  s.at_hours = {2.0, 10.5};
  s.duration_minutes = 15.0;
  s.machine = 0;
  plan.specs.push_back(s);

  const SimTime begin = SimTime::from_micros(500);
  const FaultInjector inj(plan, 9, 1, begin, begin + SimDuration::days(1));
  const auto events = inj.events_for(0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].start, begin + SimDuration::hours(2));
  EXPECT_EQ(events[0].duration, SimDuration::minutes(15));
  EXPECT_EQ(events[1].start,
            begin + SimDuration::from_seconds(10.5 * 3600.0));
}

TEST(FaultInjectorTest, MachineTargetingRestrictsEvents) {
  FaultPlan plan;
  FaultSpec s;
  s.kind = FaultKind::kCrash;
  s.at_hours = {1.0};
  s.machine = 1;
  plan.specs.push_back(s);

  const FaultInjector inj(plan, 3, 4, SimTime::epoch(),
                          SimTime::epoch() + SimDuration::hours(4));
  EXPECT_TRUE(inj.events_for(0).empty());
  ASSERT_EQ(inj.events_for(1).size(), 1u);
  EXPECT_TRUE(inj.events_for(2).empty());
  EXPECT_TRUE(inj.events_for(3).empty());
  for (const auto& ev : inj.events()) EXPECT_EQ(ev.machine, 1u);
}

TEST(FaultInjectorTest, HorizonClipsAndDrops) {
  FaultPlan plan;
  FaultSpec s;
  s.kind = FaultKind::kCrash;
  s.at_hours = {3.5, 6.0};     // 6h is outside a 4h horizon -> dropped
  s.duration_minutes = 120.0;  // 3.5h + 2h would overrun -> clipped
  plan.specs.push_back(s);

  const SimTime begin = SimTime::epoch();
  const SimTime end = begin + SimDuration::hours(4);
  const FaultInjector inj(plan, 5, 1, begin, end);
  const auto events = inj.events_for(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].start, begin + SimDuration::from_seconds(3.5 * 3600.0));
  EXPECT_EQ(events[0].start + events[0].duration, end);
}

TEST(FaultInjectorTest, EventsAreSortedAndPartitioned) {
  FaultPlan plan;
  auto crash = rate_plan(6.0, 10.0);
  plan.specs.push_back(crash.specs[0]);
  FaultSpec drop;
  drop.kind = FaultKind::kSensorDropout;
  drop.rate_per_day = 6.0;
  drop.mean_minutes = 4.0;
  plan.specs.push_back(drop);

  const FaultInjector inj(plan, 11, 3, SimTime::epoch(),
                          SimTime::epoch() + SimDuration::days(7));
  const auto all = inj.events();
  ASSERT_FALSE(all.empty());
  for (std::size_t i = 1; i < all.size(); ++i) {
    const bool ordered =
        all[i - 1].machine < all[i].machine ||
        (all[i - 1].machine == all[i].machine &&
         all[i - 1].start <= all[i].start);
    EXPECT_TRUE(ordered) << "events out of order at index " << i;
  }
  std::size_t total = 0;
  for (std::uint32_t m = 0; m < 3; ++m) {
    for (const auto& ev : inj.events_for(m)) {
      EXPECT_EQ(ev.machine, m);
      ++total;
    }
  }
  EXPECT_EQ(total, all.size());
}

// A machine's schedule must not depend on fleet size: the flood guard
// caps each (spec, machine), so the last machine of a fleet large enough
// to pass a million occurrences gets the same schedule under an
// all-machines spec as under the same spec aimed at it alone.
TEST(FaultInjectorTest, FloodGuardIsPerMachineNotFleetWide) {
  const std::uint32_t machines = 12000;
  const SimTime begin = SimTime::epoch();
  const SimTime end = begin + SimDuration::hours(1);
  const FaultPlan all = rate_plan(2400.0, 1.0);
  FaultPlan one = all;
  one.specs[0].machine = machines - 1;
  const FaultInjector fleet(all, 5, machines, begin, end);
  const FaultInjector targeted(one, 5, machines, begin, end);
  const auto late = targeted.events_for(machines - 1);
  EXPECT_GT(late.size(), 50u);
  EXPECT_TRUE(same_events(fleet.events_for(machines - 1), late));
}

// The guard still bounds a degenerate spec: one occurrence per second of
// horizon per machine.
TEST(FaultInjectorTest, FloodGuardCapsEachMachineAtOnePerSecond) {
  const FaultInjector inj(rate_plan(1e9, 1.0), 3, 2, SimTime::epoch(),
                          SimTime::epoch() + SimDuration::hours(1));
  EXPECT_EQ(inj.events_for(0).size(), 3600u);
  EXPECT_EQ(inj.events_for(1).size(), 3600u);
}

// Extreme but valid plans stay inside the clock's range: a vanishing rate
// yields no occurrence, a duration past int64 microseconds is clipped at
// `end`, and a skew past the horizon is bounded by it.
TEST(FaultInjectorTest, ExtremeRatesAndSkewsStayInRange) {
  FaultPlan plan = rate_plan(1e-300, 5.0);
  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  crash.at_hours = {12.0};
  crash.duration_minutes = 1.5e11;  // 9.0e18 us
  plan.specs.push_back(crash);
  FaultSpec skew;
  skew.kind = FaultKind::kClockSkew;
  skew.at_hours = {1.0, 2.0};
  skew.skew_ms = 1e300;
  plan.specs.push_back(skew);
  skew.skew_ms = -1e300;
  plan.specs.push_back(skew);
  const SimDuration horizon = SimDuration::days(1);
  const FaultInjector inj(plan, 8, 1, SimTime::epoch(),
                          SimTime::epoch() + horizon);
  const auto events = inj.events_for(0);
  ASSERT_EQ(events.size(), 5u);
  for (const auto& ev : events) {
    EXPECT_LE(ev.start + ev.duration, SimTime::epoch() + horizon);
    if (ev.kind == FaultKind::kCrash) continue;
    EXPECT_EQ(ev.skew < SimDuration::zero() ? -ev.skew : ev.skew, horizon);
  }
}

TEST(FaultInjectorTest, RejectsEmptyHorizonAndBadMachine) {
  const auto plan = rate_plan(1.0, 5.0);
  EXPECT_THROW(
      FaultInjector(plan, 1, 0, SimTime::epoch(),
                    SimTime::epoch() + SimDuration::hours(1)),
      ConfigError);
  EXPECT_THROW(FaultInjector(plan, 1, 1, SimTime::epoch(), SimTime::epoch()),
               ConfigError);
  const FaultInjector inj(plan, 1, 2, SimTime::epoch(),
                          SimTime::epoch() + SimDuration::hours(1));
  EXPECT_THROW(inj.events_for(2), ConfigError);
}

}  // namespace
}  // namespace fgcs::fault
