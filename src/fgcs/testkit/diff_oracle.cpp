#include "fgcs/testkit/diff_oracle.hpp"

#include <sys/stat.h>

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <vector>

#include "fgcs/core/prediction_study.hpp"
#include "fgcs/core/testbed.hpp"
#include "fgcs/fleet/fleet.hpp"
#include "fgcs/obs/observer.hpp"
#include "fgcs/os/machine.hpp"
#include "fgcs/predict/semi_markov.hpp"
#include "fgcs/query/engine.hpp"
#include "fgcs/serve/query.hpp"
#include "fgcs/testkit/invariants.hpp"
#include "fgcs/testkit/reference_walk.hpp"
#include "fgcs/testkit/scenario.hpp"
#include "fgcs/trace/calendar.hpp"
#include "fgcs/trace/index.hpp"
#include "fgcs/trace/io.hpp"
#include "fgcs/util/rng.hpp"
#include "fgcs/workload/synthetic.hpp"

namespace fgcs::testkit {

namespace {

/// "ORCL": root tag of oracle substreams.
constexpr std::uint64_t kOracleTag = 0x4F52'434C;

bool records_equal(const trace::UnavailabilityRecord& a,
                   const trace::UnavailabilityRecord& b) {
  return a.machine == b.machine && a.start == b.start && a.end == b.end &&
         a.cause == b.cause && a.host_cpu == b.host_cpu &&
         a.free_mem_mb == b.free_mem_mb;
}

DiffResult diff_traces(const trace::TraceSet& a, const trace::TraceSet& b,
                       const char* what) {
  if (a.machine_count() != b.machine_count() ||
      a.horizon_start() != b.horizon_start() ||
      a.horizon_end() != b.horizon_end()) {
    return DiffResult::mismatch(std::string(what) + ": horizon differs");
  }
  const auto ra = a.records();
  const auto rb = b.records();
  if (ra.size() != rb.size()) {
    std::ostringstream out;
    out << what << ": " << ra.size() << " vs " << rb.size() << " records";
    return DiffResult::mismatch(out.str());
  }
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (!records_equal(ra[i], rb[i])) {
      std::ostringstream out;
      out << what << ": record " << i << " differs (machine " << ra[i].machine
          << ", start " << ra[i].start.as_micros() << "us vs "
          << rb[i].start.as_micros() << "us)";
      return DiffResult::mismatch(out.str());
    }
  }
  return DiffResult::ok();
}

// --- oracle 1: analytic fast-forward vs. tick-by-tick scheduler ----------

/// A pre-drawn workload + action script replayed identically on both
/// machines (ProcessSpec programs hold closure state, so each machine gets
/// freshly built specs from the same parameters).
struct SchedulerScript {
  std::vector<double> host_usages;
  std::vector<int> host_nices;
  double guest_usage = 1.0;  // 1.0: fully CPU-bound
  int guest_nice = 19;
  struct Step {
    sim::SimDuration advance;
    enum class Action { kNone, kSuspend, kResume, kRenice } action;
    int renice_to = 0;
  };
  std::vector<Step> steps;
};

SchedulerScript draw_scheduler_script(std::uint64_t seed) {
  util::RngStream rng(seed, {kOracleTag, 1});
  SchedulerScript script;
  const std::size_t hosts = 1 + rng.uniform_index(3);
  for (std::size_t i = 0; i < hosts; ++i) {
    script.host_usages.push_back(rng.uniform(0.05, 0.95));
    script.host_nices.push_back(rng.bernoulli(0.8) ? 0 : 10);
  }
  static constexpr int kNices[] = {0, 10, 19};
  script.guest_nice = kNices[rng.uniform_index(3)];
  script.guest_usage = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.6, 1.0);
  const std::size_t steps = 8 + rng.uniform_index(8);
  bool guest_suspended = false;
  for (std::size_t i = 0; i < steps; ++i) {
    SchedulerScript::Step step;
    step.advance = sim::SimDuration::micros(
        rng.uniform_int(30'000'000, 300'000'000));  // 30s .. 5min, uneven
    step.action = SchedulerScript::Step::Action::kNone;
    const double u = rng.uniform();
    if (u < 0.25) {
      step.action = guest_suspended ? SchedulerScript::Step::Action::kResume
                                    : SchedulerScript::Step::Action::kSuspend;
      guest_suspended = !guest_suspended;
    } else if (u < 0.40) {
      step.action = SchedulerScript::Step::Action::kRenice;
      step.renice_to = kNices[rng.uniform_index(3)];
    }
    script.steps.push_back(step);
  }
  return script;
}

struct MachineUnderTest {
  os::Machine machine;
  std::vector<os::ProcessId> hosts;
  os::ProcessId guest = 0;
};

MachineUnderTest build_machine(const SchedulerScript& script,
                               std::uint64_t seed, bool fast_forward) {
  os::SchedulerParams sched = os::SchedulerParams::linux_2_4();
  sched.fast_forward = fast_forward;
  MachineUnderTest mut{
      os::Machine(sched, os::MemoryParams::linux_1gb(), seed), {}, 0};
  for (std::size_t i = 0; i < script.host_usages.size(); ++i) {
    mut.hosts.push_back(mut.machine.spawn(workload::synthetic_host(
        script.host_usages[i], script.host_nices[i])));
  }
  mut.guest = mut.machine.spawn(
      script.guest_usage >= 1.0
          ? workload::synthetic_guest(script.guest_nice)
          : workload::synthetic_guest_with_usage(script.guest_usage,
                                                 script.guest_nice));
  return mut;
}

DiffResult diff_machines(const MachineUnderTest& ff,
                         const MachineUnderTest& ref, std::size_t step) {
  std::ostringstream where;
  where << "step " << step << ": ";
  const auto& a = ff.machine;
  const auto& b = ref.machine;
  if (a.now() != b.now()) {
    return DiffResult::mismatch(where.str() + "clocks diverged");
  }
  const auto& ta = a.totals();
  const auto& tb = b.totals();
  if (ta.host != tb.host || ta.guest != tb.guest || ta.system != tb.system ||
      ta.idle != tb.idle) {
    std::ostringstream out;
    out << where.str() << "CPU totals differ: host " << ta.host.as_micros()
        << " vs " << tb.host.as_micros() << "us, guest "
        << ta.guest.as_micros() << " vs " << tb.guest.as_micros() << "us";
    return DiffResult::mismatch(out.str());
  }
  if (a.free_memory_mb() != b.free_memory_mb() ||
      a.thrash_time() != b.thrash_time()) {
    return DiffResult::mismatch(where.str() + "memory state differs");
  }
  for (std::size_t i = 0; i <= ff.hosts.size(); ++i) {
    const os::ProcessId pid =
        i < ff.hosts.size() ? ff.hosts[i] : ff.guest;
    const auto& pa = a.process(pid);
    const auto& pb = b.process(pid);
    if (pa.state() != pb.state() || pa.cpu_time() != pb.cpu_time()) {
      std::ostringstream out;
      out << where.str() << "pid " << pid << " differs: " << "cpu "
          << pa.cpu_time().as_micros() << " vs " << pb.cpu_time().as_micros()
          << "us, state " << to_string(pa.state()) << " vs "
          << to_string(pb.state());
      return DiffResult::mismatch(out.str());
    }
  }
  return DiffResult::ok();
}

DiffResult oracle_scheduler_fastforward(std::uint64_t seed) {
  const SchedulerScript script = draw_scheduler_script(seed);
  MachineUnderTest ff = build_machine(script, seed, /*fast_forward=*/true);
  MachineUnderTest ref = build_machine(script, seed, /*fast_forward=*/false);
  for (std::size_t i = 0; i < script.steps.size(); ++i) {
    const auto& step = script.steps[i];
    for (MachineUnderTest* mut : {&ff, &ref}) {
      switch (step.action) {
        case SchedulerScript::Step::Action::kSuspend:
          mut->machine.suspend(mut->guest);
          break;
        case SchedulerScript::Step::Action::kResume:
          mut->machine.resume(mut->guest);
          break;
        case SchedulerScript::Step::Action::kRenice:
          mut->machine.renice(mut->guest, step.renice_to);
          break;
        case SchedulerScript::Step::Action::kNone:
          break;
      }
      mut->machine.run_for(step.advance);
    }
    if (auto diff = diff_machines(ff, ref, i); !diff.match) return diff;
  }
  return DiffResult::ok();
}

// --- oracle 2: parallel vs. sequential testbed sweep ----------------------

/// A small testbed drawn through the scenario generator (capped horizon so
/// a 200-seed sweep stays cheap).
core::TestbedConfig small_testbed(std::uint64_t seed) {
  core::TestbedConfig config = generate_scenario(seed).testbed;
  config.days = std::min(config.days, 3);
  return config;
}

DiffResult oracle_testbed_parallel(std::uint64_t seed) {
  const core::TestbedConfig config = small_testbed(seed);
  const trace::TraceSet parallel = core::run_testbed(config);
  trace::TraceSet sequential(config.machines, parallel.horizon_start(),
                             parallel.horizon_end());
  for (std::uint32_t m = 0; m < config.machines; ++m) {
    for (auto& record : core::run_testbed_machine(config, m)) {
      sequential.add(record);
    }
  }
  return diff_traces(parallel, sequential, "parallel vs sequential");
}

// --- oracle 3: salvage vs. strict readers on clean serializations ---------

DiffResult oracle_trace_roundtrip(std::uint64_t seed) {
  const trace::TraceSet original = core::run_testbed(small_testbed(seed));

  std::ostringstream csv, binary;
  trace::write_trace_csv(original, csv);
  trace::write_trace_binary(original, binary);

  std::istringstream csv_strict(csv.str());
  std::istringstream csv_lenient(csv.str());
  std::istringstream bin_strict(binary.str());
  std::istringstream bin_lenient(binary.str());

  const trace::TraceSet strict_csv = trace::read_trace_csv(csv_strict);
  const trace::LoadReport salvage_csv =
      trace::read_trace_csv_salvage(csv_lenient);
  const trace::TraceSet strict_bin = trace::read_trace_binary(bin_strict);
  const trace::LoadReport salvage_bin =
      trace::read_trace_binary_salvage(bin_lenient);

  if (!salvage_csv.clean()) {
    return DiffResult::mismatch("CSV salvage not clean on intact input");
  }
  if (!salvage_bin.clean()) {
    return DiffResult::mismatch("binary salvage not clean on intact input");
  }
  // Strict and salvage must agree bit-for-bit on both formats; the binary
  // format must additionally round-trip the original exactly (CSV goes
  // through decimal text, so it only has to match its own re-read).
  if (auto diff = diff_traces(strict_csv, salvage_csv.trace,
                              "CSV strict vs salvage");
      !diff.match) {
    return diff;
  }
  if (auto diff = diff_traces(strict_bin, salvage_bin.trace,
                              "binary strict vs salvage");
      !diff.match) {
    return diff;
  }
  return diff_traces(original, strict_bin, "original vs binary round-trip");
}

// --- oracle 4: semi-Markov predictor vs. brute-force enumeration ----------

struct TinyChain {
  trace::TraceSet trace;
  trace::DayOfWeek start_dow = trace::DayOfWeek::kMonday;
  std::vector<predict::PredictionQuery> queries;
};

TinyChain draw_tiny_chain(std::uint64_t seed) {
  util::RngStream rng(seed, {kOracleTag, 4});
  TinyChain chain;
  const int days = static_cast<int>(10 + rng.uniform_index(18));
  const sim::SimTime start = sim::SimTime::epoch();
  const sim::SimTime end = start + sim::SimDuration::days(days);
  chain.start_dow = static_cast<trace::DayOfWeek>(rng.uniform_index(7));
  chain.trace = trace::TraceSet(1, start, end);

  const double gap_mean_h = rng.uniform(1.0, 8.0);
  const double down_mean_min = rng.uniform(5.0, 90.0);
  sim::SimTime t = start;
  while (true) {
    t += sim::SimDuration::from_seconds(
        std::max(60.0, rng.exponential(gap_mean_h * 3600.0)));
    const sim::SimTime ep_end =
        t + sim::SimDuration::from_seconds(
                std::max(1.0, rng.exponential(down_mean_min * 60.0)));
    if (ep_end >= end) break;
    trace::UnavailabilityRecord record;
    record.machine = 0;
    record.start = t;
    record.end = ep_end;
    record.cause = rng.bernoulli(0.5)
                       ? monitor::AvailabilityState::kS3CpuUnavailable
                       : monitor::AvailabilityState::kS5MachineUnavailable;
    record.host_cpu = rng.uniform(0.0, 1.0);
    record.free_mem_mb = rng.uniform(0.0, 900.0);
    chain.trace.add(record);
    t = ep_end;
  }

  for (int i = 0; i < 8; ++i) {
    predict::PredictionQuery q;
    q.machine = 0;
    q.start = start + sim::SimDuration::from_seconds(
                          rng.uniform(3600.0, (end - start).as_seconds()));
    q.length = sim::SimDuration::from_seconds(rng.uniform(600.0, 6.0 * 3600.0));
    chain.queries.push_back(q);
  }
  return chain;
}

/// Independent reimplementation of the semi-Markov estimate, straight from
/// the record list (no TraceIndex, no Ecdf).
struct BruteSemiMarkov {
  const std::vector<trace::UnavailabilityRecord>& episodes;  // sorted
  const trace::TraceCalendar& calendar;
  sim::SimTime horizon_start;
  predict::SemiMarkovConfig config;

  std::vector<double> history_gaps(const predict::PredictionQuery& q) const {
    const bool want_weekend = calendar.is_weekend(q.start);
    std::vector<double> lengths;
    for (std::size_t i = 1; i < episodes.size(); ++i) {
      if (episodes[i].start >= q.start) break;
      const sim::SimTime gap_start = episodes[i - 1].end;
      const sim::SimTime gap_end = episodes[i].start;
      if (gap_end <= gap_start) continue;
      if (calendar.is_weekend(gap_start) != want_weekend) continue;
      lengths.push_back((gap_end - gap_start).as_hours());
    }
    return lengths;
  }

  static double survival(const std::vector<double>& lengths, double x) {
    std::size_t at_most = 0;
    for (double l : lengths) {
      if (l <= x) ++at_most;
    }
    return 1.0 - static_cast<double>(at_most) /
                     static_cast<double>(lengths.size());
  }

  double availability(const predict::PredictionQuery& q) const {
    bool inside = false;
    sim::SimTime last_end = horizon_start;
    for (const auto& ep : episodes) {
      if (ep.start <= q.start && q.start < ep.end) inside = true;
      if (ep.end <= q.start && ep.end > last_end) last_end = ep.end;
    }
    if (inside) return 0.0;
    const auto lengths = history_gaps(q);
    if (lengths.size() < config.min_samples) return config.prior_availability;
    const double age_h = (q.start - last_end).as_hours();
    const double surv_age = survival(lengths, age_h);
    const double surv_horizon =
        survival(lengths, age_h + q.length.as_hours());
    if (surv_age <= 0.0) return std::min(config.prior_availability, 0.2);
    return std::clamp(surv_horizon / surv_age, 0.0, 1.0);
  }

  double occurrences(const predict::PredictionQuery& q) const {
    const auto lengths = history_gaps(q);
    if (lengths.empty()) return 0.0;
    double sum = 0.0;
    for (double l : lengths) sum += l;
    const double mean_h = sum / static_cast<double>(lengths.size());
    if (mean_h <= 0.0) return 0.0;
    return q.length.as_hours() / mean_h;
  }
};

DiffResult oracle_semi_markov_brute(std::uint64_t seed) {
  const TinyChain chain = draw_tiny_chain(seed);
  const trace::TraceIndex index(chain.trace);
  const trace::TraceCalendar calendar(chain.start_dow);
  predict::SemiMarkovPredictor predictor;
  predictor.attach(index, calendar);

  const auto episodes = chain.trace.machine_records(0);
  const BruteSemiMarkov brute{episodes, calendar,
                              chain.trace.horizon_start(),
                              predict::SemiMarkovConfig{}};

  for (std::size_t i = 0; i < chain.queries.size(); ++i) {
    const auto& q = chain.queries[i];
    const double fast_a = predictor.predict_availability(q);
    const double brute_a = brute.availability(q);
    if (std::abs(fast_a - brute_a) > 1e-9) {
      std::ostringstream out;
      out << "query " << i << ": availability " << fast_a << " vs brute "
          << brute_a;
      return DiffResult::mismatch(out.str());
    }
    const double fast_n = predictor.predict_occurrences(q);
    const double brute_n = brute.occurrences(q);
    if (std::abs(fast_n - brute_n) > 1e-9) {
      std::ostringstream out;
      out << "query " << i << ": occurrences " << fast_n << " vs brute "
          << brute_n;
      return DiffResult::mismatch(out.str());
    }
  }
  return DiffResult::ok();
}

// --- oracle 5: sharded fleet sweep vs. single-threaded testbed ------------

DiffResult oracle_fleet_sharded(std::uint64_t seed) {
  const core::TestbedConfig config = small_testbed(seed);
  const trace::TraceSet reference = core::run_testbed(config);

  // Shard geometry and worker count drawn from the seed: the merged fleet
  // trace must be bit-identical to the plain testbed for every partition.
  util::RngStream rng(seed, {kOracleTag, 5});
  fleet::FleetConfig fc;
  fc.testbed = config;
  fc.shard_machines = static_cast<std::uint32_t>(1 + rng.uniform_index(3));
  fc.threads = 1 + rng.uniform_index(4);
  const fleet::FleetResult result = fleet::run_fleet(fc);
  if (result.total_records != reference.size()) {
    std::ostringstream out;
    out << "fleet recorded " << result.total_records << " records, testbed "
        << reference.size();
    return DiffResult::mismatch(out.str());
  }
  return diff_traces(result.load_trace(), reference,
                     "sharded fleet vs testbed");
}

// --- oracle 6: parallel vs. sequential prediction study -------------------

DiffResult diff_evaluations(const predict::EvaluationResult& a,
                            const predict::EvaluationResult& b,
                            const char* what) {
  std::ostringstream out;
  out << what << " [" << a.predictor << "]: ";
  if (a.predictor != b.predictor || a.queries != b.queries) {
    out << "query counts differ (" << a.queries << " vs " << b.queries << ")";
    return DiffResult::mismatch(out.str());
  }
  // Bit-exact comparison on every double: the parallel path must merge
  // per-machine partials in exactly the sequential order.
  if (a.brier != b.brier || a.accuracy != b.accuracy ||
      a.true_positive_rate != b.true_positive_rate ||
      a.false_positive_rate != b.false_positive_rate ||
      a.occurrence_mae != b.occurrence_mae ||
      a.base_availability != b.base_availability) {
    out << "aggregate metrics differ (brier " << a.brier << " vs " << b.brier
        << ")";
    return DiffResult::mismatch(out.str());
  }
  for (std::size_t i = 0; i < a.reliability.size(); ++i) {
    const auto& ra = a.reliability[i];
    const auto& rb = b.reliability[i];
    if (ra.count != rb.count || ra.mean_predicted != rb.mean_predicted ||
        ra.observed_available != rb.observed_available) {
      out << "reliability bucket " << i << " differs";
      return DiffResult::mismatch(out.str());
    }
  }
  return DiffResult::ok();
}

DiffResult oracle_prediction_parallel(std::uint64_t seed) {
  core::TestbedConfig testbed = small_testbed(seed);
  // The study needs a held-out evaluation period after training.
  testbed.days = std::max(testbed.days, 3);
  const trace::TraceSet trace = core::run_testbed(testbed);
  const trace::TraceCalendar calendar(testbed.start_dow);

  core::PredictionStudyConfig study;
  study.train_days = 1;
  study.windows = {sim::SimDuration::hours(1), sim::SimDuration::hours(4)};
  study.stride = sim::SimDuration::hours(1);

  study.parallel = true;
  const auto par = core::run_prediction_study(trace, calendar, study);
  study.parallel = false;
  const auto seq = core::run_prediction_study(trace, calendar, study);

  if (par.size() != seq.size()) {
    return DiffResult::mismatch("row counts differ");
  }
  for (std::size_t i = 0; i < par.size(); ++i) {
    if (par[i].window != seq[i].window) {
      return DiffResult::mismatch("row windows differ");
    }
    if (auto diff = diff_evaluations(par[i].result, seq[i].result,
                                     "parallel vs sequential study");
        !diff.match) {
      return diff;
    }
  }
  return DiffResult::ok();
}

// --- oracle 7: flight-recorder capture vs. replayed capture --------------

/// Renders a capture the way a post-mortem dump does: sim-time-ordered,
/// one formatted line per event.
std::string render_flight(const ScenarioOutcome& out) {
  std::ostringstream text;
  for (const auto& e : obs::sim_time_ordered(out.flight)) {
    text << obs::format_flight_event(e) << "\n";
  }
  return text.str();
}

DiffResult oracle_flight_recorder(std::uint64_t seed) {
  Scenario s = generate_scenario(seed);
  // The capture is O(transitions); cap the horizon so two full runs stay
  // cheap while fault specs and the lifecycle still exercise every
  // event kind.
  s.testbed.days = std::min(s.testbed.days, 3);

  const ScenarioOutcome a = run_scenario_recorded(s);
  const ScenarioOutcome b = run_scenario_recorded(s);

  // The stream must satisfy its own invariant battery...
  const auto violations = check_invariants(s, a);
  if (!violations.empty()) {
    return DiffResult::mismatch("invariant violations:\n" +
                                format_violations(violations));
  }
  if (a.flight_dropped != b.flight_dropped) {
    std::ostringstream out;
    out << "dropped counts differ (" << a.flight_dropped << " vs "
        << b.flight_dropped << ")";
    return DiffResult::mismatch(out.str());
  }
  // ...and two same-seed captures must render to byte-identical
  // post-mortems (the total sort order leaves no room for ties to land
  // differently).
  const std::string ra = render_flight(a);
  const std::string rb = render_flight(b);
  if (ra != rb) {
    std::ostringstream out;
    out << "rendered post-mortems differ (" << a.flight.size() << " vs "
        << b.flight.size() << " events)";
    return DiffResult::mismatch(out.str());
  }
  if (a.flight.empty() && !a.trace.records().empty()) {
    return DiffResult::mismatch(
        "trace has episodes but the flight capture is empty");
  }
  return DiffResult::ok();
}

// --- oracle 8: columnar machine walk vs. per-sample event loop ------------

/// What the observer saw of one machine walk: its counter shard and its
/// flight-recorder capture.
struct ObservedWalk {
  obs::CounterShard counters;
  std::vector<obs::FlightEvent> flight;
  std::uint64_t flight_dropped = 0;
};

template <typename Walk>
ObservedWalk observe_walk(Walk&& walk) {
  obs::FlightRecorder::Options recorder_options;
  recorder_options.capacity = 1 << 16;
  obs::FlightRecorder flight(recorder_options);
  obs::Observer::Options observer_options;
  observer_options.enable_trace = false;
  obs::Observer observer(observer_options);
  observer.set_flight_recorder(&flight);  // attach before installing
  ObservedWalk out;
  {
    const obs::ScopedObserver guard(&observer);
    const obs::ShardScope shard(&out.counters);
    walk();
  }
  out.flight = flight.events();
  out.flight_dropped = flight.dropped();
  return out;
}

/// First differing CounterShard field, or "" when bit-identical.
std::string counter_diff(const obs::CounterShard& a,
                         const obs::CounterShard& b) {
  std::ostringstream out;
  const auto field = [&out](const char* name, auto x, auto y) {
    if (out.tellp() == 0 && !(x == y)) out << name << " " << x << " vs " << y;
  };
  field("sim.events_executed", a.sim_events_executed, b.sim_events_executed);
  field("sim.events_scheduled", a.sim_events_scheduled,
        b.sim_events_scheduled);
  field("sim.max_queue_depth", a.sim_max_queue_depth, b.sim_max_queue_depth);
  field("sim.callbacks_spilled", a.sim_callbacks_spilled,
        b.sim_callbacks_spilled);
  for (int k = 0; k < obs::kFaultKindCount; ++k) {
    field("fault.injected", a.fault_injected[k], b.fault_injected[k]);
  }
  field("detector.samples", a.detector_samples, b.detector_samples);
  field("detector.sensor_gaps", a.detector_sensor_gaps,
        b.detector_sensor_gaps);
  field("detector.sensor_gap_us", a.detector_sensor_gap_us,
        b.detector_sensor_gap_us);
  for (int f = 0; f < obs::kStateCount; ++f) {
    for (int t = 0; t < obs::kStateCount; ++t) {
      field("detector.transitions", a.detector_transitions[f][t],
            b.detector_transitions[f][t]);
    }
  }
  field("detector.episodes_opened", a.detector_episodes_opened,
        b.detector_episodes_opened);
  field("detector.episodes_closed", a.detector_episodes_closed,
        b.detector_episodes_closed);
  field("testbed.machines", a.testbed_machines, b.testbed_machines);
  // Every field is 8 bytes wide, so the struct has no padding: a bytewise
  // compare catches anything the named list above misses.
  if (out.tellp() == 0 && std::memcmp(&a, &b, sizeof a) != 0) {
    out << "counter shards differ";
  }
  return out.str();
}

bool flight_equal(const obs::FlightEvent& a, const obs::FlightEvent& b) {
  return a.at == b.at && a.kind == b.kind && a.machine == b.machine &&
         a.a == b.a && a.b == b.b && a.dur == b.dur;
}

DiffResult diff_machine_walk(const core::TestbedConfig& config,
                             const core::TestbedRunner& runner,
                             trace::MachineId m) {
  const auto mismatch = [m](const std::string& what) {
    std::ostringstream out;
    out << "machine " << m << ": " << what;
    return DiffResult::mismatch(out.str());
  };
  core::MachineScratch scratch;
  std::vector<trace::UnavailabilityRecord> records;
  const ObservedWalk prod =
      observe_walk([&] { runner.run_into(m, scratch, records); });
  ReferenceMachine ref;
  const ObservedWalk refobs =
      observe_walk([&] { ref = run_reference_machine(config, m); });

  if (records.size() != ref.records.size() ||
      !std::equal(records.begin(), records.end(), ref.records.begin(),
                  records_equal)) {
    return mismatch("records differ");
  }
  const core::TestbedMachineDetail detail =
      core::run_testbed_machine_detailed(config, m);
  if (!std::equal(detail.records.begin(), detail.records.end(),
                  records.begin(), records.end(), records_equal)) {
    return mismatch("detailed records differ from run_into");
  }
  if (!std::equal(detail.transitions.begin(), detail.transitions.end(),
                  ref.transitions.begin(), ref.transitions.end(),
                  [](const monitor::Transition& a,
                     const monitor::Transition& b) {
                    return a.time == b.time && a.from == b.from && a.to == b.to;
                  })) {
    return mismatch("detector transitions differ");
  }
  if (!std::equal(detail.gaps.begin(), detail.gaps.end(), ref.gaps.begin(),
                  ref.gaps.end(),
                  [](const monitor::SensorGap& a, const monitor::SensorGap& b) {
                    return a.start == b.start && a.end == b.end &&
                           a.held == b.held;
                  })) {
    return mismatch("sensor gaps differ");
  }
  const auto ia = detail.timeline.intervals();
  const auto ib = ref.timeline.intervals();
  if (!std::equal(ia.begin(), ia.end(), ib.begin(), ib.end(),
                  [](const monitor::StateInterval& a,
                     const monitor::StateInterval& b) {
                    return a.state == b.state && a.start == b.start &&
                           a.end == b.end;
                  }) ||
      detail.timeline.sensor_gap_time() != ref.timeline.sensor_gap_time()) {
    return mismatch("timelines differ");
  }
  if (const std::string d = counter_diff(prod.counters, refobs.counters);
      !d.empty()) {
    return mismatch("counter shard: " + d);
  }
  if (prod.flight_dropped != refobs.flight_dropped ||
      !std::equal(prod.flight.begin(), prod.flight.end(),
                  refobs.flight.begin(), refobs.flight.end(), flight_equal)) {
    return mismatch("flight-recorder captures differ");
  }
  return DiffResult::ok();
}

DiffResult oracle_soa_machine_step(std::uint64_t seed) {
  return diff_testbed_walks(small_testbed(seed));
}

// --- oracle 9: resumed fleet sweep vs. uninterrupted sweep ----------------

bool read_file_bytes(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return true;
}

void write_file_bytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

void remove_tree_flat(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    ::unlink((dir + "/" + name).c_str());
  }
  ::closedir(d);
  ::rmdir(dir.c_str());
}

DiffResult oracle_fleet_resume(std::uint64_t seed) {
  // Two checkpointed sweeps of the same config; the second directory is
  // "doctored" (a segment deleted, a byte flipped, a state blob removed,
  // or the whole manifest erased — drawn from the seed) and then resumed.
  // The resumed directory must come back byte-identical to the clean one:
  // skipped shards splice, damaged shards re-run, and the metrics segment
  // rebuilds from the restored bins.
  util::RngStream rng(seed, {kOracleTag, 9});
  const std::string base = "fgcs-oracle-resume." +
                           std::to_string(::getpid()) + "." +
                           std::to_string(seed);
  const std::string clean_dir = base + "/clean";
  const std::string crash_dir = base + "/doctored";
  ::mkdir(base.c_str(), 0755);

  fleet::FleetConfig fc;
  fc.testbed = small_testbed(seed);
  fc.shard_machines = static_cast<std::uint32_t>(1 + rng.uniform_index(3));
  fc.threads = 1 + rng.uniform_index(4);
  fc.metrics_resolution = sim::SimDuration::hours(6);

  const auto sweep = [&](const std::string& dir, bool resume) {
    if (!resume) {
      remove_tree_flat(dir);
      ::mkdir(dir.c_str(), 0755);
    }
    fleet::FleetConfig run = fc;
    run.spill_dir = dir;
    run.metrics_path = dir + "/metrics.met1";
    run.resume = resume;
    return fleet::run_fleet(run);
  };

  const auto cleanup = [&] {
    remove_tree_flat(clean_dir);
    remove_tree_flat(crash_dir);
    ::rmdir(base.c_str());
  };

  const fleet::FleetResult clean = sweep(clean_dir, false);
  fleet::FleetResult doctored = sweep(crash_dir, false);

  // Doctor the second directory.
  const std::size_t victim = rng.uniform_index(doctored.shards.size());
  char victim_name[32];
  std::snprintf(victim_name, sizeof victim_name, "shard-%04zu", victim);
  const std::string victim_seg =
      crash_dir + "/" + victim_name + std::string(".trc2");
  const int damage = static_cast<int>(rng.uniform_index(4));
  switch (damage) {
    case 0:  // segment vanishes
      ::unlink(victim_seg.c_str());
      break;
    case 1: {  // one byte of the segment flips
      std::string bytes;
      if (!read_file_bytes(victim_seg, bytes) || bytes.empty()) {
        cleanup();
        return DiffResult::mismatch("doctored segment unreadable");
      }
      bytes[rng.uniform_index(bytes.size())] ^= 0x40;
      write_file_bytes(victim_seg, bytes);
      break;
    }
    case 2:  // state blob vanishes
      ::unlink((crash_dir + "/" + victim_name + std::string(".state")).c_str());
      break;
    default:  // the whole manifest vanishes: full (fresh-start) resume
      ::unlink((crash_dir + "/MANIFEST").c_str());
      break;
  }

  fleet::FleetResult resumed;
  try {
    resumed = sweep(crash_dir, true);
  } catch (const std::exception& e) {
    cleanup();
    return DiffResult::mismatch(std::string("resume threw: ") + e.what());
  }
  // A missing manifest means a fresh start (0 resumed); any other damage
  // invalidates exactly the victim shard.
  const std::size_t expected =
      damage == 3 ? 0 : clean.shards.size() - 1;
  if (resumed.resumed_shards != expected) {
    cleanup();
    std::ostringstream out;
    out << "resumed " << resumed.resumed_shards << " shards, expected "
        << expected << " (damage mode " << damage << ")";
    return DiffResult::mismatch(out.str());
  }

  std::vector<std::string> names;
  for (std::size_t s = 0; s < clean.shards.size(); ++s) {
    char name[32];
    std::snprintf(name, sizeof name, "shard-%04zu.trc2", s);
    names.emplace_back(name);
  }
  names.emplace_back("metrics.met1");
  names.emplace_back("MANIFEST");
  for (const auto& name : names) {
    std::string a, b;
    if (!read_file_bytes(clean_dir + "/" + name, a) ||
        !read_file_bytes(crash_dir + "/" + name, b)) {
      cleanup();
      return DiffResult::mismatch(name + " unreadable after resume");
    }
    if (a != b) {
      cleanup();
      std::ostringstream out;
      out << name << " diverges after resume (" << b.size() << " vs "
          << a.size() << " bytes, damage mode " << damage << ")";
      return DiffResult::mismatch(out.str());
    }
  }
  cleanup();
  return DiffResult::ok();
}

// --- oracle 10: online serve feed vs. batch predictor on each prefix ------

DiffResult oracle_serve_incremental(std::uint64_t seed) {
  util::RngStream rng(seed, {kOracleTag, 10});
  const auto machines = static_cast<std::uint32_t>(1 + rng.uniform_index(3));
  const int days = static_cast<int>(10 + rng.uniform_index(18));
  const sim::SimTime start = sim::SimTime::epoch();
  const sim::SimTime end = start + sim::SimDuration::days(days);
  const auto start_dow = static_cast<trace::DayOfWeek>(rng.uniform_index(7));

  // Per-machine renewal chains (the tiny-chain generator of oracle 4,
  // widened to a small fleet), delivered in global sim-time order the way
  // a live simulation's close events would arrive.
  std::vector<trace::UnavailabilityRecord> records;
  for (std::uint32_t m = 0; m < machines; ++m) {
    const double gap_mean_h = rng.uniform(1.0, 8.0);
    const double down_mean_min = rng.uniform(5.0, 90.0);
    sim::SimTime t = start;
    while (true) {
      t += sim::SimDuration::from_seconds(
          std::max(60.0, rng.exponential(gap_mean_h * 3600.0)));
      const sim::SimTime ep_end =
          t + sim::SimDuration::from_seconds(
                  std::max(1.0, rng.exponential(down_mean_min * 60.0)));
      if (ep_end >= end) break;
      trace::UnavailabilityRecord record;
      record.machine = m;
      record.start = t;
      record.end = ep_end;
      record.cause = rng.bernoulli(0.5)
                         ? monitor::AvailabilityState::kS3CpuUnavailable
                         : monitor::AvailabilityState::kS5MachineUnavailable;
      record.host_cpu = rng.uniform(0.0, 1.0);
      record.free_mem_mb = rng.uniform(0.0, 900.0);
      records.push_back(record);
      t = ep_end;
    }
  }
  std::sort(records.begin(), records.end(),
            [](const trace::UnavailabilityRecord& a,
               const trace::UnavailabilityRecord& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.machine < b.machine;
            });

  serve::FeedConfig fc;
  fc.machines = machines;
  fc.horizon_start = start;
  fc.start_dow = start_dow;
  fc.publish_every = 0;  // explicit publishes at the cut points
  serve::AvailabilityFeed feed(fc);
  const serve::QueryEngine engine(feed);
  const trace::TraceCalendar calendar(start_dow);

  // Prefix cuts: two random ones plus the full ingest (an empty chain
  // degenerates to the single empty-prefix check).
  std::vector<std::size_t> cuts;
  if (!records.empty()) {
    cuts.push_back(rng.uniform_index(records.size()) + 1);
    cuts.push_back(rng.uniform_index(records.size()) + 1);
  }
  cuts.push_back(records.size());
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::size_t ingested = 0;
  for (const std::size_t cut : cuts) {
    while (ingested < cut) feed.ingest(records[ingested++]);
    feed.publish();
    const auto snap = feed.snapshot();
    if (snap->events != ingested) {
      std::ostringstream out;
      out << "snapshot events " << snap->events << " after ingesting "
          << ingested;
      return DiffResult::mismatch(out.str());
    }

    // The batch predictor trained on exactly this prefix.
    trace::TraceSet prefix(machines, start, end);
    for (std::size_t i = 0; i < ingested; ++i) prefix.add(records[i]);
    const trace::TraceIndex index(prefix);
    predict::SemiMarkovPredictor batch;
    batch.attach(index, calendar);

    for (std::uint32_t m = 0; m < machines; ++m) {
      for (int k = 0; k < 4; ++k) {
        // Strictly past the machine's watermark, so the batch predictor's
        // history window covers the same episodes the feed ingested.
        const sim::SimTime at =
            feed.watermark(m) +
            sim::SimDuration::from_seconds(rng.uniform(1.0, 72.0 * 3600.0));
        const sim::SimDuration window =
            sim::SimDuration::from_seconds(rng.uniform(600.0, 6.0 * 3600.0));
        const serve::QueryAnswer online =
            engine.query(*snap, serve::ServeQuery{m, at, window});
        const predict::PredictionQuery pq{m, at, window};
        const double batch_a = batch.predict_availability(pq);
        const double batch_n = batch.predict_occurrences(pq);
        // Bit-identical, not approximately equal: both paths must reduce
        // to the same shared arithmetic on the same sample multiset.
        if (online.p_available != batch_a ||
            online.expected_occurrences != batch_n) {
          std::ostringstream out;
          out << std::setprecision(17) << "prefix " << ingested
              << ", machine " << m << ", query " << k << ": online ("
              << online.p_available << ", " << online.expected_occurrences
              << ") vs batch (" << batch_a << ", " << batch_n << ")";
          return DiffResult::mismatch(out.str());
        }
      }
    }
  }
  return DiffResult::ok();
}

// --- oracle 11: pushdown segment scan vs. brute force and materializer ----

DiffResult diff_query_results(const query::QueryResult& a,
                              const query::QueryResult& b, const char* what) {
  std::ostringstream out;
  out << std::setprecision(17) << what << ": ";
  const auto range_eq = [](const core::Table2Stats::Range& x,
                           const core::Table2Stats::Range& y) {
    return x.min == y.min && x.max == y.max && x.mean == y.mean;
  };
  if (a.table2.machines != b.table2.machines ||
      !range_eq(a.table2.total, b.table2.total) ||
      !range_eq(a.table2.cpu_contention, b.table2.cpu_contention) ||
      !range_eq(a.table2.mem_contention, b.table2.mem_contention) ||
      !range_eq(a.table2.urr, b.table2.urr) ||
      a.table2.cpu_pct_min != b.table2.cpu_pct_min ||
      a.table2.cpu_pct_max != b.table2.cpu_pct_max ||
      a.table2.mem_pct_min != b.table2.mem_pct_min ||
      a.table2.mem_pct_max != b.table2.mem_pct_max ||
      a.table2.urr_pct_min != b.table2.urr_pct_min ||
      a.table2.urr_pct_max != b.table2.urr_pct_max ||
      a.table2.reboot_fraction_of_urr != b.table2.reboot_fraction_of_urr) {
    out << "table2 differs (total mean " << a.table2.total.mean << " vs "
        << b.table2.total.mean << ")";
    return DiffResult::mismatch(out.str());
  }
  const auto class_eq = [](const query::IntervalClassSummary& x,
                           const query::IntervalClassSummary& y) {
    return x.count == y.count && x.mean_hours == y.mean_hours &&
           x.frac_under_5min == y.frac_under_5min &&
           x.frac_5min_to_2h == y.frac_5min_to_2h &&
           x.frac_2h_to_4h == y.frac_2h_to_4h &&
           x.frac_4h_to_6h == y.frac_4h_to_6h;
  };
  if (!class_eq(a.intervals.weekday, b.intervals.weekday) ||
      !class_eq(a.intervals.weekend, b.intervals.weekend)) {
    out << "intervals differ (weekday mean " << a.intervals.weekday.mean_hours
        << " vs " << b.intervals.weekday.mean_hours << ")";
    return DiffResult::mismatch(out.str());
  }
  if (a.hourly.weekday_days != b.hourly.weekday_days ||
      a.hourly.weekend_days != b.hourly.weekend_days) {
    out << "hourly day counts differ";
    return DiffResult::mismatch(out.str());
  }
  for (std::size_t h = 0; h < 24; ++h) {
    const auto row_eq = [](const core::HourlyPattern::HourRow& x,
                           const core::HourlyPattern::HourRow& y) {
      return x.mean == y.mean && x.min == y.min && x.max == y.max &&
             x.stddev == y.stddev;
    };
    if (!row_eq(a.hourly.weekday[h], b.hourly.weekday[h]) ||
        !row_eq(a.hourly.weekend[h], b.hourly.weekend[h])) {
      out << "hourly row " << h << " differs";
      return DiffResult::mismatch(out.str());
    }
  }
  if (a.relative_deviation_weekday != b.relative_deviation_weekday ||
      a.relative_deviation_weekend != b.relative_deviation_weekend) {
    out << "relative deviation differs";
    return DiffResult::mismatch(out.str());
  }
  if (a.training.machines != b.training.machines ||
      a.training.machines_with_history != b.training.machines_with_history ||
      a.training.gap_samples != b.training.gap_samples ||
      a.training.availability_sum != b.training.availability_sum ||
      a.training.occurrences_sum != b.training.occurrences_sum) {
    out << "training scan differs (availability sum "
        << a.training.availability_sum << " vs " << b.training.availability_sum
        << ")";
    return DiffResult::mismatch(out.str());
  }
  if (a.stats.records_matched != b.stats.records_matched) {
    out << "matched " << a.stats.records_matched << " vs "
        << b.stats.records_matched << " records";
    return DiffResult::mismatch(out.str());
  }
  return DiffResult::ok();
}

DiffResult oracle_query_pushdown(std::uint64_t seed) {
  // A spilled fleet queried three ways: the zone-map pushdown scan, the
  // brute-force full scan (pruning disabled), and the materializing
  // analyzer + predictor on the predicate-filtered TraceSet. All three
  // must agree bit-for-bit on every aggregate.
  util::RngStream rng(seed, {kOracleTag, 11});
  const std::string dir = "fgcs-oracle-query." + std::to_string(::getpid()) +
                          "." + std::to_string(seed);
  remove_tree_flat(dir);
  ::mkdir(dir.c_str(), 0755);
  const auto cleanup = [&] { remove_tree_flat(dir); };

  fleet::FleetConfig fc;
  fc.testbed = small_testbed(seed);
  fc.shard_machines = static_cast<std::uint32_t>(1 + rng.uniform_index(3));
  fc.threads = 1 + rng.uniform_index(4);
  fc.spill_dir = dir;
  fc.metrics_path = dir + "/metrics.met1";
  fleet::run_fleet(fc);
  ::unlink((dir + "/metrics.met1").c_str());  // only *.trc2 is queried

  DiffResult result = DiffResult::ok();
  try {
    const query::SegmentQuery segments(query::SegmentQuery::list_segments(dir));
    const std::uint32_t machines = segments.machine_count();
    const sim::SimTime hs = segments.horizon_start();
    const sim::SimTime he = segments.horizon_end();

    // A seed-drawn predicate: any subset of the three clause kinds,
    // including empty machine/time ranges (which must match nothing).
    query::Predicate pred;
    if (rng.bernoulli(0.6)) {
      pred.has_machine = true;
      pred.machine_lo = static_cast<std::uint32_t>(
          rng.uniform_index(machines + 1));
      pred.machine_hi = static_cast<std::uint32_t>(
          rng.uniform_index(machines + 2));
    }
    if (rng.bernoulli(0.5)) {
      pred.has_cause = true;
      pred.cause = static_cast<std::uint8_t>(3 + rng.uniform_index(3));
    }
    if (rng.bernoulli(0.5)) {
      pred.has_time = true;
      const auto span =
          static_cast<std::uint64_t>((he - hs).as_micros());
      pred.time_lo_us =
          hs.as_micros() + static_cast<std::int64_t>(rng.uniform_index(span));
      pred.time_hi_us =
          hs.as_micros() + static_cast<std::int64_t>(rng.uniform_index(span));
    }
    if (query::Predicate::parse(pred.str()).str() != pred.str()) {
      cleanup();
      return DiffResult::mismatch("predicate parse/str fixpoint broken: " +
                                  pred.str());
    }

    query::QueryOptions opts;
    opts.predicate = pred;
    const query::QueryResult pushdown = segments.run(opts);
    query::QueryOptions brute_opts = opts;
    brute_opts.disable_pruning = true;
    const query::QueryResult brute = segments.run(brute_opts);

    if (pushdown.stats.blocks_scanned + pushdown.stats.blocks_skipped !=
        pushdown.stats.blocks_total) {
      cleanup();
      return DiffResult::mismatch("pushdown block accounting broken");
    }
    if (brute.stats.blocks_skipped != 0 ||
        brute.stats.blocks_scanned != brute.stats.blocks_total) {
      cleanup();
      return DiffResult::mismatch("brute scan skipped blocks");
    }
    if (auto diff = diff_query_results(pushdown, brute,
                                       "pushdown vs brute");
        !diff.match) {
      cleanup();
      return diff;
    }

    // Materializing baseline: the analyzer and per-machine predictor on
    // the predicate-filtered trace.
    trace::TraceSet filtered(machines, hs, he);
    std::uint64_t kept = 0;
    for (std::size_t s = 0; s < segments.segment_count(); ++s) {
      const trace::TraceSet seg = segments.segment(s).to_trace_set();
      for (const auto& r : seg.records()) {
        if (!pred.matches(r.machine, r.start.as_micros(), r.end.as_micros(),
                          static_cast<std::uint8_t>(r.cause))) {
          continue;
        }
        filtered.add(r);
        ++kept;
      }
    }
    if (kept != pushdown.stats.records_matched) {
      cleanup();
      std::ostringstream out;
      out << "engine matched " << pushdown.stats.records_matched
          << " records, materializer kept " << kept;
      return DiffResult::mismatch(out.str());
    }

    const trace::TraceCalendar calendar;
    const core::TraceAnalyzer analyzer(filtered, calendar);
    query::QueryResult ref;
    ref.table2 = analyzer.table2();
    const core::IntervalStats intervals = analyzer.intervals();
    const auto to_summary = [](const core::IntervalClassStats& c) {
      query::IntervalClassSummary s;
      s.count = c.count;
      s.mean_hours = c.mean_hours;
      s.frac_under_5min = c.frac_under_5min;
      s.frac_5min_to_2h = c.frac_5min_to_2h;
      s.frac_2h_to_4h = c.frac_2h_to_4h;
      s.frac_4h_to_6h = c.frac_4h_to_6h;
      return s;
    };
    ref.intervals.weekday = to_summary(intervals.weekday);
    ref.intervals.weekend = to_summary(intervals.weekend);
    ref.hourly = analyzer.hourly();
    ref.relative_deviation_weekday = analyzer.hourly_relative_deviation(false);
    ref.relative_deviation_weekend = analyzer.hourly_relative_deviation(true);

    const trace::TraceIndex index(filtered);
    predict::SemiMarkovPredictor batch;
    batch.attach(index, calendar);
    const sim::SimDuration window = sim::SimDuration::hours(1);
    ref.training.machines = machines;
    for (std::uint32_t m = 0; m < machines; ++m) {
      const predict::PredictionQuery pq{m, he, window};
      ref.training.availability_sum += batch.predict_availability(pq);
      ref.training.occurrences_sum += batch.predict_occurrences(pq);
    }
    // gap_samples / machines_with_history are engine-side observability
    // the batch predictor does not expose; the pushdown-vs-brute diff
    // already pinned them.
    ref.training.gap_samples = pushdown.training.gap_samples;
    ref.training.machines_with_history = pushdown.training.machines_with_history;
    ref.stats.records_matched = kept;

    if (auto diff = diff_query_results(pushdown, ref,
                                       "streaming vs materializing");
        !diff.match) {
      cleanup();
      return diff;
    }
  } catch (const std::exception& e) {
    cleanup();
    return DiffResult::mismatch(std::string("query threw: ") + e.what());
  }
  cleanup();
  return result;
}

}  // namespace

DiffResult diff_testbed_walks(const core::TestbedConfig& config) {
  const core::TestbedRunner runner(config);
  for (std::uint32_t m = 0; m < config.machines; ++m) {
    if (DiffResult r = diff_machine_walk(config, runner, m); !r.match) {
      return r;
    }
  }
  const core::CapacityProfile a = core::run_capacity_profile(config);
  const core::CapacityProfile b = run_reference_capacity_profile(config);
  const bool same =
      a.weekday_cpu == b.weekday_cpu && a.weekend_cpu == b.weekend_cpu &&
      a.weekday_free_mem == b.weekday_free_mem &&
      a.weekend_free_mem == b.weekend_free_mem &&
      a.weekday_host_load == b.weekday_host_load &&
      a.weekend_host_load == b.weekend_host_load &&
      a.overall_cpu == b.overall_cpu && a.overall_usable == b.overall_usable;
  if (!same) return DiffResult::mismatch("capacity profiles differ");
  return DiffResult::ok();
}

const std::vector<DiffOracle>& standard_oracles() {
  static const std::vector<DiffOracle> oracles = {
      {"scheduler-fastforward", oracle_scheduler_fastforward},
      {"testbed-parallel", oracle_testbed_parallel},
      {"trace-roundtrip", oracle_trace_roundtrip},
      {"semi-markov-brute", oracle_semi_markov_brute},
      {"fleet-sharded", oracle_fleet_sharded},
      {"prediction-parallel", oracle_prediction_parallel},
      {"flight-recorder", oracle_flight_recorder},
      {"soa-machine-step", oracle_soa_machine_step},
      {"fleet-resume", oracle_fleet_resume},
      {"serve-incremental", oracle_serve_incremental},
      {"query-pushdown", oracle_query_pushdown},
  };
  return oracles;
}

const DiffOracle* find_oracle(std::string_view name) {
  for (const auto& oracle : standard_oracles()) {
    if (oracle.name == name) return &oracle;
  }
  return nullptr;
}

std::vector<OracleFailure> run_oracles(std::uint64_t base_seed,
                                       int seeds_per_oracle) {
  std::vector<OracleFailure> failures;
  const auto& oracles = standard_oracles();
  for (std::size_t o = 0; o < oracles.size(); ++o) {
    for (int i = 0; i < seeds_per_oracle; ++i) {
      const std::uint64_t seed = util::RngStream::derive(
          base_seed, {kOracleTag, o, static_cast<std::uint64_t>(i)});
      const DiffResult result = oracles[o].run(seed);
      if (!result.match) {
        failures.push_back(OracleFailure{oracles[o].name, seed, result.detail});
      }
    }
  }
  return failures;
}

}  // namespace fgcs::testkit
