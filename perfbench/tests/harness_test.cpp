// Tests of the benchmark's own code: the quantile rule, floor-based rates,
// the clock guard, the result report, the output checks failing on a
// corrupted reference, and the traced replay's allocation count.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "fgcs/fleet/fleet.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace pb = perfbench;
namespace fs = std::filesystem;

TEST(QuantileRule, TailPercentileLeavesTenSamplesBeyond) {
  EXPECT_EQ(pb::tail_percentile(19), 0.0);
  EXPECT_EQ(pb::tail_percentile(20), 50.0);
  EXPECT_EQ(pb::tail_percentile(99), 75.0);
  EXPECT_EQ(pb::tail_percentile(100), 90.0);
  EXPECT_EQ(pb::tail_percentile(999), 95.0);
  EXPECT_EQ(pb::tail_percentile(1000), 99.0);
  EXPECT_EQ(pb::tail_percentile(10000), 99.9);
  for (std::size_t n = 20; n <= 3000; ++n) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    const pb::Summary s = pb::summarize(v);
    ASSERT_GE(s.beyond_tail, 10u) << "n=" << n;
    // Exactly beyond_tail samples are larger than the reported value.
    ASSERT_EQ(static_cast<std::size_t>(
                  std::count_if(v.begin(), v.end(),
                                [&](double x) { return x > s.tail; })),
              s.beyond_tail)
        << "n=" << n;
  }
}

TEST(QuantileRule, NearestRankOnShuffledSample) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  const pb::Summary s = pb::summarize(v);
  EXPECT_EQ(s.n, 100u);
  EXPECT_EQ(s.p10, 10.0);
  EXPECT_EQ(s.p50, 50.0);
  EXPECT_EQ(s.tail_pct, 90.0);
  EXPECT_EQ(s.tail, 90.0);
}

TEST(FloorRate, WorkOverFastDecile) {
  std::vector<double> v(100, 0.5);
  EXPECT_DOUBLE_EQ(pb::floor_rate(1000.0, pb::summarize(v)), 2000.0);
}

TEST(FloorRate, InterferenceOnSlowOpsLeavesTheFloor) {
  // Interference only adds time. Slowing the slowest 80% of ops, even
  // threefold, moves the median but not the p10 or the rate from it.
  std::vector<double> v(200);
  std::iota(v.begin(), v.end(), 100.0);
  const pb::Summary clean = pb::summarize(v);
  for (std::size_t i = 40; i < v.size(); ++i) v[i] *= 3.0;
  const pb::Summary noisy = pb::summarize(v);
  EXPECT_EQ(noisy.p10, clean.p10);
  EXPECT_GT(noisy.p50, clean.p50);
  EXPECT_EQ(pb::floor_rate(7.0, noisy), pb::floor_rate(7.0, clean));
}

TEST(ClockGuard, FloorMustBeAThousandClockReads) {
  EXPECT_TRUE(pb::clears_clock_guard(40e-6, 40.0));
  EXPECT_FALSE(pb::clears_clock_guard(39e-6, 40.0));
  EXPECT_GT(pb::clock_read_ns(), 0.0);
}

TEST(ClosedLoop, CorruptedReferenceFailsEveryOp) {
  int value = 0;
  const int reference = 42 + 1;  // corrupted: the op computes 42
  std::vector<pb::OpType> types;
  types.push_back({"compute", {}, [&] { value = 6 * 7; },
                   [&]() -> std::string {
                     return value == reference ? "" : "wrong value";
                   }});
  pb::LoopConfig cfg;
  cfg.seconds = 0.0;
  cfg.min_ops = 5;
  cfg.cap_seconds = 2.0;
  const pb::LoopResult loop = pb::run_closed_loop(types, cfg);
  ASSERT_EQ(loop.ops.size(), 1u);
  EXPECT_GT(loop.ops[0].attempted, 1u);
  EXPECT_EQ(loop.ops[0].failed, loop.ops[0].attempted);
  EXPECT_TRUE(loop.ops[0].seconds.empty());
  pb::Report report;
  pb::record_loop(report, loop, 1.0, cfg.min_ops);
  EXPECT_FALSE(report.correct());
  EXPECT_EQ(report.failed(), report.attempted());
}

TEST(ClosedLoop, ThrowingOpCountsAsFailed) {
  std::vector<pb::OpType> types;
  int calls = 0;
  types.push_back({"flaky", {}, [&] {
                     if (++calls % 2 == 0) throw std::runtime_error("boom");
                   },
                   [] { return std::string(); }});
  pb::LoopConfig cfg;
  cfg.seconds = 0.0;
  cfg.min_ops = 3;
  const pb::LoopResult loop = pb::run_closed_loop(types, cfg);
  EXPECT_GT(loop.ops[0].failed, 0u);
  EXPECT_EQ(loop.ops[0].seconds.size() + loop.ops[0].failed,
            loop.ops[0].attempted - 1);  // the warm-up leaves no sample
  EXPECT_EQ(loop.ops[0].seconds.size(), 3u);
  EXPECT_EQ(loop.spin_seconds.size(), loop.ops[0].attempted - 1);
}

TEST(Report, PrintsDeclaredMetricsWithUnits) {
  pb::Report report;
  report.add("machine_days_per_s", 1234.5);
  report.add("serve.publish_us", 8.25);
  EXPECT_THROW(report.add("not_a_metric", 1.0), std::invalid_argument);
  report.ops.push_back(pb::OpStats{"x", {1.0}, 3, 0, {}});
  const std::string json = report.result_json();
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"machine_days_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, "
            "\"serve.publish_us\": {\"value\": 8.25, \"unit\": \"us\"}}}");
  EXPECT_EQ(std::string(pb::metric_unit("setup_s")), "s");
}

class SweepCheck : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::current_path() /
           ("perfbench-test-" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    config_.testbed.machines = 6;
    config_.testbed.days = 3;
    config_.threads = 1;
    config_.spill_dir = dir_.string();
    result_ = fgcs::fleet::run_fleet(config_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  fgcs::fleet::FleetConfig config_;
  fgcs::fleet::FleetResult result_;
};

TEST_F(SweepCheck, PassesOnItsOwnReference) {
  const auto reference = pb::digest_segments(result_);
  ASSERT_EQ(reference.size(), result_.shards.size());
  for (fgcs::trace::MachineId m = 0; m < config_.testbed.machines; ++m) {
    EXPECT_EQ(pb::check_sweep(reference, result_, config_.testbed, m), "");
  }
}

TEST_F(SweepCheck, FailsOnCorruptedDigest) {
  auto reference = pb::digest_segments(result_);
  reference[2].crc ^= 1;
  EXPECT_NE(pb::check_sweep(reference, result_, config_.testbed, 0), "");
  reference = pb::digest_segments(result_);
  reference.back().records += 1;
  EXPECT_NE(pb::check_sweep(reference, result_, config_.testbed, 0), "");
}

TEST_F(SweepCheck, FailsWhenSampledMachineDiffers) {
  const auto reference = pb::digest_segments(result_);
  auto other = config_.testbed;
  other.seed += 1;  // a reference machine from another seed
  bool any_failed = false;
  for (fgcs::trace::MachineId m = 0; m < config_.testbed.machines; ++m) {
    any_failed |= !pb::check_sweep(reference, result_, other, m).empty();
  }
  EXPECT_TRUE(any_failed);
}

TEST_F(SweepCheck, AnalysisAndLoadChecksFailOnCorruption) {
  const fgcs::trace::TraceSet trace = result_.load_trace();
  const auto want = pb::analyze(trace);
  EXPECT_EQ(pb::diff_analysis(want, pb::analyze(trace)), "");
  auto bad = want;
  bad.table2.total.mean += 1e-9;
  EXPECT_NE(pb::diff_analysis(bad, want), "");
  bad = want;
  bad.hourly.weekend[5].stddev += 1.0;
  EXPECT_NE(pb::diff_analysis(bad, want), "");
  bad = want;
  bad.training.availability_sum = 1.0;
  EXPECT_NE(pb::diff_training(bad, want), "");

  const fgcs::serve::LoadStats load{100, 12.5, 3.0};
  auto bad_load = load;
  EXPECT_EQ(pb::diff_load(load, bad_load), "");
  bad_load.prob_sum = 12.500001;
  EXPECT_NE(pb::diff_load(load, bad_load), "");

  std::vector<fgcs::trace::UnavailabilityRecord> records(
      trace.records().begin(), trace.records().end());
  ASSERT_FALSE(records.empty());
  auto changed = records;
  changed.back().free_mem_mb += 1.0;
  EXPECT_EQ(pb::diff_records(records, records), "");
  EXPECT_NE(pb::diff_records(records, changed), "");
}

TEST(AllocCount, CountsEveryHeapAllocation) {
  static int* volatile sink = nullptr;
  const std::uint64_t before = pb::allocations();
  sink = new int(1);
  delete sink;
  sink = new int[8];
  delete[] sink;
  EXPECT_EQ(pb::allocations() - before, 2u);
}

TEST(AllocCount, TracksThePeakOfLiveHeapBytes) {
  static char* volatile sink = nullptr;
  const std::uint64_t before = pb::peak_heap_bytes();
  const std::size_t big = before + (8u << 20);  // more than was ever live
  sink = new char[big];
  delete[] sink;
  const std::uint64_t peak = pb::peak_heap_bytes();
  EXPECT_GE(peak, big);
  // Freed blocks leave the peak where it was; a small block does not move it.
  sink = new char[64];
  delete[] sink;
  EXPECT_EQ(pb::peak_heap_bytes(), peak);
}

// Fails when TestbedRunner::run_into allocates once a shard's scratch is
// warm.
TEST(SteadyState, RunIntoDoesNotAllocateOnWarmScratch) {
  fgcs::fleet::FleetConfig config;
  config.testbed.machines = 8;
  config.testbed.days = 3;
  config.shard_machines = 4;
  EXPECT_EQ(pb::steady_state_allocs_per_machine_day(config), 0.0);
}
