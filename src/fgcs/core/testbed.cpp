#include "fgcs/core/testbed.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "fgcs/fault/injector.hpp"
#include "fgcs/monitor/detector.hpp"
#include "fgcs/obs/observer.hpp"
#include "fgcs/util/error.hpp"
#include "fgcs/util/parallel.hpp"

namespace fgcs::core {

void TestbedConfig::validate() const {
  fgcs::require(machines >= 1, "testbed needs at least one machine");
  fgcs::require(days >= 1, "testbed needs at least one day");
  profile.validate();
  policy.validate();
  fgcs::require(ram_mb > kernel_mb && kernel_mb >= 0,
                "invalid testbed memory sizes");
  faults.validate();
}

namespace {

/// One edge of a window fault (crash, dropout, skew) in the walk's
/// breakpoint column: its start (`sign` +1: activates the fault and counts
/// fault.injected) or its end (`sign` -1). Edges at one instant apply in
/// `seq` order (start 2k, end 2k+1 for the machine's k-th window fault),
/// all before the sample at that instant.
struct FaultEdge {
  std::int64_t t_us;
  std::uint32_t seq;
  std::int32_t sign;
  const fault::FaultEvent* event;
};

/// A machine's fault state between edges, plus the monitor-clock
/// bookkeeping: whether samples were lost since the last reported one,
/// and that sample's (skewed, clamped) time.
struct FaultState {
  int crashes = 0;
  int dropouts = 0;
  std::int64_t skew_us = 0;
  bool dropped = false;
  std::int64_t last_us = 0;

  void apply(const FaultEdge& edge) {
    const fault::FaultEvent& ev = *edge.event;
    crashes += ev.kind == fault::FaultKind::kCrash ? edge.sign : 0;
    dropouts += ev.kind == fault::FaultKind::kSensorDropout ? edge.sign : 0;
    skew_us += edge.sign * ev.skew.as_micros();  // zero unless a skew
    if (edge.sign > 0) {
      if (auto* o = obs::observer()) {
        o->on_fault_injected(static_cast<int>(ev.kind), ev.start, ev.duration);
      }
    }
  }
};

/// One batch the walk hands the detector: `count` samples reported at t0,
/// t0+stride, ... (stride 0 where the clock clamp repeats a timestamp)
/// sharing one reading. `before` is the model state ahead of the batch
/// and `fresh` the transitions it made, so a visitor can recover each
/// sample's state.
struct SampleRun {
  sim::SimTime t0;
  sim::SimDuration stride;
  std::uint64_t count;
  double host_cpu;
  double free_mem_mb;
  bool alive;
  monitor::AvailabilityState before;
  std::span<const monitor::Transition> fresh;
};

/// The testbed's machine walk: drives the detector over a machine's
/// synthesized load and `injector`'s (nullable) window faults.
///
/// The synthesized load is piecewise-constant with segments far longer
/// than the sample period, so consecutive samples overwhelmingly carry
/// identical inputs. The walk iterates the *columns* directly —
/// trajectory points, downtimes and fault edges, each with a monotone
/// cursor — and hands every maximal run of constant-input samples to
/// observe_run in one call.
///
/// Semantics (checked end-to-end against testkit's per-sample event-loop
/// reference by the soa-machine-step oracle):
///  * samples fall at begin+period, ..., end, the horizon being a whole
///    multiple of the period;
///  * cpu/mem/alive per sample reproduce TrajectorySampler::sample;
///  * a fault edge at time e applies to samples at t >= e. Crashes force
///    service_alive false; dropouts swallow samples, and the detector
///    gets one sensor gap from the last reported time to the next
///    reported one (or to `end`); skews shift reported times by the
///    summed active skew, clamped to [last reported, end];
///  * the obs batch mirrors an event loop that ran one periodic sample
///    event plus a start and an end event per window fault, all the
///    fault events scheduled up front.
template <typename OnRun>
monitor::UnavailabilityDetector walk_machine_columnar(
    const TestbedConfig& config, trace::MachineId machine,
    const fault::FaultInjector* injector, util::Arena& arena,
    OnRun&& on_run) {
  workload::ArenaLoadTrace load(&arena);
  workload::generate_machine_load_into(
      config.profile, config.seed, machine, config.days,
      static_cast<int>(config.start_dow), &arena, load);

  monitor::UnavailabilityDetector detector(config.policy, &arena);

  const obs::TrackScope track(machine);
  const sim::SimTime begin = sim::SimTime::epoch();
  const sim::SimTime end = begin + sim::SimDuration::days(config.days);
  const sim::SimDuration period = config.policy.sample_period;

  const std::int64_t period_us = period.as_micros();
  const std::int64_t begin_us = begin.as_micros();
  const std::int64_t end_us = end.as_micros();
  const auto total =
      static_cast<std::uint64_t>((end_us - begin_us) / period_us);

  const auto& pts = load.points;
  const auto& downs = load.downtimes;
  FGCS_ASSERT(!pts.empty());

  // Fault edges in firing order, closed by a sentinel past the last
  // sample — without faults the sentinel is the whole column.
  util::ArenaVector<FaultEdge> edges{util::ArenaAllocator<FaultEdge>(&arena)};
  if (injector != nullptr) {
    const auto events = injector->events_for(machine);
    edges.reserve(2 * events.size() + 1);
    for (const auto& ev : events) {
      if (ev.kind == fault::FaultKind::kGuestKill) continue;
      const auto k = static_cast<std::uint32_t>(edges.size());
      edges.push_back({ev.start.as_micros(), k, 1, &ev});
      edges.push_back({(ev.start + ev.duration).as_micros(), k + 1, -1, &ev});
    }
    std::sort(edges.begin(), edges.end(),
              [](const FaultEdge& a, const FaultEdge& b) {
                return a.t_us != b.t_us ? a.t_us < b.t_us : a.seq < b.seq;
              });
  }
  const std::uint64_t window_faults = edges.size() / 2;
  edges.push_back({end_us + period_us, 0, 0, nullptr});

  FaultState faults{.last_us = begin_us};
  double host_cpu = 0.0;
  double free_mem = 0.0;
  bool up = true;
  const auto observe = [&](std::int64_t t0_us, std::int64_t stride_us,
                           std::uint64_t count) {
    if (count == 0) return;
    const sim::SimTime t0 = sim::SimTime::from_micros(t0_us);
    const sim::SimDuration stride = sim::SimDuration::micros(stride_us);
    const monitor::AvailabilityState before = detector.state();
    const std::size_t mark = detector.transitions().size();
    detector.observe_run(t0, stride, count, host_cpu, free_mem, up);
    on_run(SampleRun{t0, stride, count, host_cpu, free_mem, up, before,
                     detector.transitions().subspan(mark)});
  };

  std::size_t pi = 0;  // invariant: pts[pi].t <= t (< pts[pi+1].t)
  std::size_t di = 0;  // first downtime not entirely before t
  std::size_t fi = 0;  // first fault edge after t
  std::uint64_t done = 0;
  std::int64_t t_us = begin_us + period_us;
  while (done < total) {
    const sim::SimTime t = sim::SimTime::from_micros(t_us);
    while (pi + 1 < pts.size() && pts[pi + 1].t <= t) ++pi;
    while (di < downs.size() &&
           downs[di].start + downs[di].duration <= t) {
      ++di;
    }
    while (edges[fi].t_us <= t_us) faults.apply(edges[fi++]);
    // Downtimes cover [start, start+duration), matching
    // TrajectorySampler::in_downtime.
    const bool alive = !(di < downs.size() && downs[di].start <= t);

    // The instant any input changes: the next fault edge (or the
    // sentinel), trajectory point, or near edge of the pending downtime.
    std::int64_t change_us = edges[fi].t_us;
    if (pi + 1 < pts.size()) {
      change_us = std::min(change_us, pts[pi + 1].t.as_micros());
    }
    if (di < downs.size()) {
      const sim::SimTime edge =
          alive ? downs[di].start : downs[di].start + downs[di].duration;
      change_us = std::min(change_us, edge.as_micros());
    }
    // Samples at t, t+period, ... strictly before the change (cursors
    // guarantee change_us > t_us, so the run is never empty).
    auto run =
        static_cast<std::uint64_t>((change_us - t_us - 1) / period_us) + 1;
    if (run > total - done) run = total - done;

    if (faults.dropouts > 0) {
      faults.dropped = true;  // samples lost; the gap closes on resume
    } else {
      host_cpu = pts[pi].cpu;
      free_mem =
          std::max(0.0, config.ram_mb - config.kernel_mb - pts[pi].mem_mb);
      up = alive && faults.crashes == 0;
      // Sample i is reported at clamp(raw + i*period, lo, end): those
      // below `lo` repeat it, those past `end` repeat `end`.
      const std::int64_t lo = faults.last_us;
      const std::int64_t raw = t_us + faults.skew_us;
      const std::int64_t raw_last =
          raw + period_us * static_cast<std::int64_t>(run - 1);
      std::uint64_t below = 0;
      std::uint64_t upto_end = run;
      if (raw < lo) {
        below = std::min<std::uint64_t>(
            run, static_cast<std::uint64_t>((lo - raw + period_us - 1) /
                                            period_us));
      }
      if (raw_last > end_us) {
        upto_end = raw > end_us ? 0
                                : static_cast<std::uint64_t>(
                                      (end_us - raw) / period_us) + 1;
      }
      if (faults.dropped) {
        // The gap ends where observation resumes, in the monitor's clock;
        // one the clamp collapses to nothing is dropped.
        const std::int64_t resume = std::min(end_us, std::max(raw, lo));
        if (resume > lo) {
          detector.record_gap(sim::SimTime::from_micros(lo),
                              sim::SimTime::from_micros(resume));
        }
        faults.dropped = false;
      }
      observe(lo, 0, below);
      observe(raw + period_us * static_cast<std::int64_t>(below), period_us,
              upto_end - below);
      observe(end_us, 0, run - upto_end);
      faults.last_us = std::min(end_us, std::max(raw_last, lo));
    }
    done += run;
    t_us += period_us * static_cast<std::int64_t>(run);
  }
  if (faults.dropped && faults.last_us < end_us) {
    detector.record_gap(sim::SimTime::from_micros(faults.last_us), end);
  }
  detector.finish(end);

  if (auto* o = obs::observer()) {
    const std::uint64_t events = total + 2 * window_faults;
    o->on_sim_batch(events, static_cast<double>(2 * window_faults + 1),
                    events + 1, 0, 0, 0, 0);
    o->on_sim_run("run_until", begin, end, events);
    o->on_testbed_machine(machine, begin, end, detector.episodes().size(),
                          events);
  }
  return detector;
}

void append_records(const monitor::UnavailabilityDetector& detector,
                    trace::MachineId machine,
                    std::vector<trace::UnavailabilityRecord>& out) {
  for (const auto& ep : detector.episodes()) {
    trace::UnavailabilityRecord r;
    r.machine = machine;
    r.start = ep.start;
    r.end = ep.end;
    r.cause = ep.cause;
    r.host_cpu = ep.host_cpu_at_start;
    r.free_mem_mb = ep.free_mem_at_start;
    out.push_back(r);
  }
}

/// Builds the testbed's fault injector when a plan is present.
std::optional<fault::FaultInjector> make_injector(const TestbedConfig& config) {
  if (config.faults.empty()) return std::nullopt;
  const sim::SimTime begin = sim::SimTime::epoch();
  return fault::FaultInjector(config.faults, config.seed, config.machines,
                              begin, begin + sim::SimDuration::days(config.days));
}

}  // namespace

TestbedRunner::TestbedRunner(TestbedConfig config)
    : config_(std::move(config)) {
  config_.validate();
  injector_ = make_injector(config_);
}

std::vector<trace::UnavailabilityRecord> TestbedRunner::run(
    trace::MachineId machine) const {
  MachineScratch scratch;
  std::vector<trace::UnavailabilityRecord> records;
  run_into(machine, scratch, records);
  return records;
}

void TestbedRunner::run_into(
    trace::MachineId machine, MachineScratch& scratch,
    std::vector<trace::UnavailabilityRecord>& out) const {
  fgcs::require(machine < config_.machines, "machine id out of range");
  out.clear();
  scratch.arena.reset();
  const auto detector =
      walk_machine_columnar(config_, machine, injector_ ? &*injector_ : nullptr,
                            scratch.arena, [](const SampleRun&) {});
  append_records(detector, machine, out);
}

std::vector<trace::UnavailabilityRecord> run_testbed_machine(
    const TestbedConfig& config, trace::MachineId machine) {
  return TestbedRunner(config).run(machine);
}

TestbedMachineDetail run_testbed_machine_detailed(const TestbedConfig& config,
                                                  trace::MachineId machine) {
  config.validate();
  fgcs::require(machine < config.machines, "machine id out of range");
  const auto injector = make_injector(config);
  MachineScratch scratch;
  const auto detector =
      walk_machine_columnar(config, machine, injector ? &*injector : nullptr,
                            scratch.arena, [](const SampleRun&) {});
  TestbedMachineDetail detail;
  append_records(detector, machine, detail.records);
  detail.transitions.assign(detector.transitions().begin(),
                            detector.transitions().end());
  detail.gaps.assign(detector.gaps().begin(), detector.gaps().end());
  detail.timeline = monitor::StateTimeline::from_detector(
      detector, sim::SimTime::epoch(),
      sim::SimTime::epoch() + sim::SimDuration::days(config.days));
  return detail;
}

CapacityProfile run_capacity_profile(const TestbedConfig& config) {
  FGCS_OBS_SCOPE("testbed/capacity_profile");
  config.validate();
  const trace::TraceCalendar calendar(config.start_dow);

  struct Acc {
    std::array<double, 24> cpu_sum{};
    std::array<double, 24> mem_sum{};
    std::array<double, 24> load_sum{};
    std::array<std::uint64_t, 24> n{};
    double cpu_total = 0.0;
    std::uint64_t usable = 0;
    std::uint64_t samples = 0;
  };
  std::vector<Acc> weekday_acc(config.machines), weekend_acc(config.machines);

  const auto injector = make_injector(config);
  const fault::FaultInjector* injector_ptr = injector ? &*injector : nullptr;
  util::parallel_for(config.machines, [&](std::size_t m) {
    MachineScratch scratch;
    // Expands each run into its samples, in order, at their reported
    // times, so the float sums fold exactly as one add per sample.
    walk_machine_columnar(
        config, static_cast<trace::MachineId>(m), injector_ptr, scratch.arena,
        [&](const SampleRun& r) {
          monitor::AvailabilityState state = r.before;
          std::size_t next = 0;
          for (std::uint64_t i = 0; i < r.count; ++i) {
            const sim::SimTime t =
                r.t0 + r.stride * static_cast<std::int64_t>(i);
            while (next < r.fresh.size() && r.fresh[next].time <= t) {
              state = r.fresh[next++].to;
            }
            Acc& acc = calendar.is_weekend(t) ? weekend_acc[m] : weekday_acc[m];
            const auto hour = static_cast<std::size_t>(calendar.hour_of_day(t));
            const bool usable = !monitor::is_failure(state);
            const double cpu = usable ? 1.0 - r.host_cpu : 0.0;
            acc.cpu_sum[hour] += cpu;
            acc.mem_sum[hour] += usable ? r.free_mem_mb : 0.0;
            acc.load_sum[hour] += r.host_cpu;
            acc.n[hour] += 1;
            acc.cpu_total += cpu;
            acc.usable += usable ? 1 : 0;
            acc.samples += 1;
          }
        });
  });

  CapacityProfile out;
  double cpu_total = 0.0;
  std::uint64_t usable = 0, samples = 0;
  for (int h = 0; h < 24; ++h) {
    double wd_cpu = 0.0, wd_mem = 0.0, wd_load = 0.0;
    double we_cpu = 0.0, we_mem = 0.0, we_load = 0.0;
    std::uint64_t wd_n = 0, we_n = 0;
    for (std::uint32_t m = 0; m < config.machines; ++m) {
      const auto hh = static_cast<std::size_t>(h);
      wd_cpu += weekday_acc[m].cpu_sum[hh];
      wd_mem += weekday_acc[m].mem_sum[hh];
      wd_load += weekday_acc[m].load_sum[hh];
      wd_n += weekday_acc[m].n[hh];
      we_cpu += weekend_acc[m].cpu_sum[hh];
      we_mem += weekend_acc[m].mem_sum[hh];
      we_load += weekend_acc[m].load_sum[hh];
      we_n += weekend_acc[m].n[hh];
    }
    const auto hh = static_cast<std::size_t>(h);
    out.weekday_cpu[hh] = wd_n ? wd_cpu / static_cast<double>(wd_n) : 0.0;
    out.weekday_free_mem[hh] = wd_n ? wd_mem / static_cast<double>(wd_n) : 0.0;
    out.weekday_host_load[hh] = wd_n ? wd_load / static_cast<double>(wd_n) : 0.0;
    out.weekend_cpu[hh] = we_n ? we_cpu / static_cast<double>(we_n) : 0.0;
    out.weekend_free_mem[hh] = we_n ? we_mem / static_cast<double>(we_n) : 0.0;
    out.weekend_host_load[hh] = we_n ? we_load / static_cast<double>(we_n) : 0.0;
  }
  for (std::uint32_t m = 0; m < config.machines; ++m) {
    for (const auto* acc : {&weekday_acc[m], &weekend_acc[m]}) {
      cpu_total += acc->cpu_total;
      usable += acc->usable;
      samples += acc->samples;
    }
  }
  if (samples > 0) {
    out.overall_cpu = cpu_total / static_cast<double>(samples);
    out.overall_usable =
        static_cast<double>(usable) / static_cast<double>(samples);
  }
  return out;
}

trace::TraceSet run_testbed(const TestbedConfig& config) {
  FGCS_OBS_SCOPE("testbed/run");
  const TestbedRunner runner(config);
  trace::TraceSet trace(config.machines, runner.horizon_start(),
                        runner.horizon_end());

  std::vector<std::vector<trace::UnavailabilityRecord>> per_machine(
      config.machines);
  util::parallel_for(config.machines, [&](std::size_t m) {
    per_machine[m] = runner.run(static_cast<trace::MachineId>(m));
  });
  std::size_t total = 0;
  for (const auto& records : per_machine) total += records.size();
  trace.reserve(total);
  // Machine-major insertion is the canonical order: records() stays O(1),
  // no re-sort.
  for (const auto& records : per_machine) {
    for (const auto& r : records) trace.add(r);
  }
  return trace;
}

}  // namespace fgcs::core
