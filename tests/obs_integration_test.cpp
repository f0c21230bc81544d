// End-to-end observability: run a real testbed machine under an installed
// Observer and cross-check the recorded metrics and trace events against
// the ground truth the testbed itself returns (records + StateTimeline).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fgcs/core/testbed.hpp"
#include "fgcs/monitor/availability.hpp"
#include "fgcs/obs/observer.hpp"

namespace fgcs::obs {
namespace {

using monitor::AvailabilityState;

core::TestbedConfig small_config() {
  core::TestbedConfig config;
  config.machines = 1;
  config.days = 7;
  config.seed = 20050815;
  return config;
}

TEST(ObsIntegration, TestbedMachineMetricsMatchGroundTruth) {
  const auto config = small_config();

  Observer obs;
  core::TestbedMachineDetail detail;
  {
    ScopedObserver guard(&obs);
    detail = core::run_testbed_machine_detailed(config, 0);
  }

  // Without faults the walk reports one simulation event per monitor
  // sample (the event loop it mirrors fired one periodic task every
  // sample_period over `days` days).
  const auto expected_samples = static_cast<std::uint64_t>(
      config.days * 86400 /
      static_cast<std::int64_t>(config.policy.sample_period.as_seconds()));
  EXPECT_EQ(obs.metrics().counter("sim.events_executed").value(),
            expected_samples);
  EXPECT_EQ(obs.metrics().counter("detector.samples").value(),
            expected_samples);

  // Episode accounting matches the returned trace records exactly.
  EXPECT_EQ(obs.metrics().counter("detector.episodes_opened").value(),
            detail.records.size());
  EXPECT_EQ(obs.metrics().counter("testbed.machines_simulated").value(), 1u);

  // The labeled transition counters agree with the StateTimeline built
  // from the detector's own transition log — for every S-state edge.
  const char* const names[kStateCount] = {"S1", "S2", "S3", "S4", "S5"};
  std::uint64_t total = 0;
  for (int f = 1; f <= kStateCount; ++f) {
    for (int t = 1; t <= kStateCount; ++t) {
      const auto counted =
          obs.metrics()
              .counter("detector.transitions",
                       {{"from", names[f - 1]}, {"to", names[t - 1]}})
              .value();
      EXPECT_EQ(counted,
                detail.timeline.transition_count(
                    static_cast<AvailabilityState>(f),
                    static_cast<AvailabilityState>(t)))
          << "edge S" << f << "->S" << t;
      total += counted;
    }
  }
  EXPECT_GT(total, 0u) << "a week of lab load should produce transitions";
}

TEST(ObsIntegration, TransitionsAppearAsTraceInstantsWithSimTimestamps) {
  const auto config = small_config();

  Observer obs;
  core::TestbedMachineDetail detail;
  {
    ScopedObserver guard(&obs);
    detail = core::run_testbed_machine_detailed(config, 0);
  }

  // Ground truth: S1->S3 transition instants are the starts of S3
  // intervals whose predecessor interval is S1.
  std::vector<std::int64_t> expected_ts_us;
  const auto intervals = detail.timeline.intervals();
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    if (intervals[i - 1].state == AvailabilityState::kS1FullAvailability &&
        intervals[i].state == AvailabilityState::kS3CpuUnavailable) {
      expected_ts_us.push_back(intervals[i].start.as_micros());
    }
  }
  ASSERT_EQ(expected_ts_us.size(),
            detail.timeline.transition_count(
                AvailabilityState::kS1FullAvailability,
                AvailabilityState::kS3CpuUnavailable));

  std::vector<std::int64_t> traced_ts_us;
  for (const auto& event : obs.trace().events()) {
    if (event.phase == TraceSink::Phase::kInstant && event.name == "S1->S3") {
      EXPECT_EQ(event.category, "detector");
      EXPECT_EQ(event.track, 0u);  // machine 0's track
      traced_ts_us.push_back(event.ts_us);
    }
  }

  ASSERT_FALSE(expected_ts_us.empty())
      << "a week of lab load should hit S3 from S1 at least once";
  EXPECT_EQ(traced_ts_us, expected_ts_us);
}

TEST(ObsIntegration, RingBufferModeDropsButKeepsCounting) {
  const auto config = small_config();

  Observer::Options options;
  options.trace_capacity = 16;
  Observer obs(options);
  {
    ScopedObserver guard(&obs);
    (void)core::run_testbed_machine_detailed(config, 0);
  }

  EXPECT_LE(obs.trace().size(), 16u);
  EXPECT_GT(obs.trace().total_recorded(), 16u);
  EXPECT_EQ(obs.trace().dropped(), obs.trace().total_recorded() - 16u);
  // Metrics are unaffected by trace eviction.
  EXPECT_GT(obs.metrics().counter("sim.events_executed").value(), 0u);
}

}  // namespace
}  // namespace fgcs::obs
