#include "fgcs/testkit/reference_walk.hpp"

#include <algorithm>
#include <optional>

#include "fgcs/monitor/machine_sampler.hpp"
#include "fgcs/obs/observer.hpp"
#include "fgcs/sim/simulation.hpp"
#include "fgcs/trace/calendar.hpp"
#include "fgcs/util/error.hpp"

namespace fgcs::testkit {

MachineFaultSession::MachineFaultSession(const fault::FaultInjector& injector,
                                         std::uint32_t machine)
    : events_(injector.events_for(machine)) {
  for (const auto& ev : events_) {
    if (ev.kind == fault::FaultKind::kGuestKill) kills_.push_back(ev.start);
  }
}

void MachineFaultSession::schedule(sim::Simulation& simulation) {
  using fault::FaultKind;
  for (const auto& ev : events_) {
    if (ev.kind == FaultKind::kGuestKill) continue;
    const fault::FaultEvent* event = &ev;
    simulation.at(ev.start, [this, event] {
      switch (event->kind) {
        case FaultKind::kCrash:
          ++crash_depth_;
          break;
        case FaultKind::kSensorDropout:
          ++dropout_depth_;
          break;
        case FaultKind::kClockSkew:
          skew_ += event->skew;
          break;
        case FaultKind::kGuestKill:
          break;
      }
      if (auto* o = obs::observer()) {
        o->on_fault_injected(static_cast<int>(event->kind), event->start,
                             event->duration);
      }
    });
    simulation.at(ev.start + ev.duration, [this, event] {
      switch (event->kind) {
        case FaultKind::kCrash:
          --crash_depth_;
          break;
        case FaultKind::kSensorDropout:
          --dropout_depth_;
          break;
        case FaultKind::kClockSkew:
          skew_ -= event->skew;
          break;
        case FaultKind::kGuestKill:
          break;
      }
    });
  }
}

namespace {

/// Per-machine fault-injection state while walking: the live session plus
/// the dropout bookkeeping the sampling loop needs to report sensor gaps
/// once per dropout (not once per missed sample).
struct FaultRuntime {
  MachineFaultSession session;
  bool dropped = false;
  sim::SimTime last_sample_time;

  FaultRuntime(const fault::FaultInjector& injector, trace::MachineId machine,
               sim::SimTime begin)
      : session(injector, machine), last_sample_time(begin) {}
};

std::optional<fault::FaultInjector> make_injector(
    const core::TestbedConfig& config) {
  if (config.faults.empty()) return std::nullopt;
  const sim::SimTime begin = sim::SimTime::epoch();
  return fault::FaultInjector(config.faults, config.seed, config.machines,
                              begin, begin + sim::SimDuration::days(config.days));
}

/// Drives the detector over a machine's synthesized load, invoking
/// `on_sample(sample, state)` for every observation. Sampling runs as a
/// periodic task on a per-machine sim::Simulation, so the observability
/// layer sees the event execution, and each machine's trace events land
/// on its own track. `injector` (nullable) layers the config's fault plan
/// on top.
template <typename OnSample>
monitor::UnavailabilityDetector walk_machine(
    const core::TestbedConfig& config, trace::MachineId machine,
    const fault::FaultInjector* injector, OnSample&& on_sample) {
  const auto load = workload::generate_machine_load(
      config.profile, config.seed, machine, config.days,
      static_cast<int>(config.start_dow));

  monitor::TrajectorySampler sampler(load, config.ram_mb, config.kernel_mb);
  monitor::UnavailabilityDetector detector(config.policy);

  const obs::TrackScope track(machine);
  const sim::SimTime begin = sim::SimTime::epoch();
  const sim::SimTime end = begin + sim::SimDuration::days(config.days);
  const sim::SimDuration period = config.policy.sample_period;

  sim::Simulation simulation;
  std::optional<FaultRuntime> fault_state;
  FaultRuntime* faults = nullptr;
  if (injector != nullptr) {
    fault_state.emplace(*injector, machine, begin);
    faults = &*fault_state;
    faults->session.schedule(simulation);
  }

  // Bundled so the periodic callback captures two pointers and stays
  // within the event queue's inline (allocation-free) budget.
  struct WalkLoop {
    monitor::TrajectorySampler& sampler;
    monitor::UnavailabilityDetector& detector;
    sim::Simulation& simulation;
    FaultRuntime* faults;
    sim::SimTime end;
    sim::SimDuration period;
  } loop{sampler, detector, simulation, faults, end, period};

  simulation.every(period, [&loop, &on_sample] {
    const sim::SimTime now = loop.simulation.now();
    FaultRuntime* const fr = loop.faults;
    if (fr != nullptr && fr->session.dropout_active()) {
      fr->dropped = true;  // sample lost; gap reported on resume
      return;
    }
    monitor::HostSample sample = loop.sampler.sample(now, loop.period);
    if (fr != nullptr) {
      if (fr->session.crash_active()) sample.service_alive = false;
      // The monitor reads current load but timestamps it with its skewed
      // clock; keep reported times monotone and inside the horizon. The
      // monotone clamp applies even when no skew is active right now: a
      // positive skew that just ended may have pushed last_sample_time
      // past this sample's raw time.
      if (fr->session.skew() != sim::SimDuration::zero()) {
        sample.time = now + fr->session.skew();
      }
      sample.time =
          std::min(loop.end, std::max(sample.time, fr->last_sample_time));
      if (fr->dropped) {
        // The gap must end exactly where observation resumes — in the
        // monitor's (possibly skewed) clock, not the simulation's —
        // or a negative skew would timestamp this sample before the
        // gap end. A gap the skew collapses to nothing is dropped.
        if (sample.time > fr->last_sample_time) {
          loop.detector.record_gap(fr->last_sample_time, sample.time);
        }
        fr->dropped = false;
      }
      fr->last_sample_time = sample.time;
    }
    const monitor::AvailabilityState state = loop.detector.observe(sample);
    on_sample(sample, state);
  });
  simulation.run_until(end);
  if (faults != nullptr && faults->dropped &&
      faults->last_sample_time < end) {
    detector.record_gap(faults->last_sample_time, end);
  }
  detector.finish(end);

  if (auto* o = obs::observer()) {
    o->on_testbed_machine(machine, begin, end, detector.episodes().size(),
                          simulation.events_executed());
  }
  return detector;
}

}  // namespace

ReferenceMachine run_reference_machine(const core::TestbedConfig& config,
                                       trace::MachineId machine) {
  config.validate();
  fgcs::require(machine < config.machines, "machine id out of range");
  const auto injector = make_injector(config);
  const auto detector =
      walk_machine(config, machine, injector ? &*injector : nullptr,
                   [](const auto&, auto) {});
  ReferenceMachine out;
  for (const auto& ep : detector.episodes()) {
    trace::UnavailabilityRecord r;
    r.machine = machine;
    r.start = ep.start;
    r.end = ep.end;
    r.cause = ep.cause;
    r.host_cpu = ep.host_cpu_at_start;
    r.free_mem_mb = ep.free_mem_at_start;
    out.records.push_back(r);
  }
  out.transitions.assign(detector.transitions().begin(),
                         detector.transitions().end());
  out.gaps.assign(detector.gaps().begin(), detector.gaps().end());
  out.timeline = monitor::StateTimeline::from_detector(
      detector, sim::SimTime::epoch(),
      sim::SimTime::epoch() + sim::SimDuration::days(config.days));
  return out;
}

core::CapacityProfile run_reference_capacity_profile(
    const core::TestbedConfig& config) {
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
  for (std::uint32_t m = 0; m < config.machines; ++m) {
    walk_machine(config, m, injector ? &*injector : nullptr,
                 [&](const monitor::HostSample& sample,
                     monitor::AvailabilityState state) {
                   Acc& acc = calendar.is_weekend(sample.time)
                                  ? weekend_acc[m]
                                  : weekday_acc[m];
                   const auto hour = static_cast<std::size_t>(
                       calendar.hour_of_day(sample.time));
                   const bool usable = !monitor::is_failure(state);
                   const double cpu = usable ? 1.0 - sample.host_cpu : 0.0;
                   acc.cpu_sum[hour] += cpu;
                   acc.mem_sum[hour] += usable ? sample.free_mem_mb : 0.0;
                   acc.load_sum[hour] += sample.host_cpu;
                   acc.n[hour] += 1;
                   acc.cpu_total += cpu;
                   acc.usable += usable ? 1 : 0;
                   acc.samples += 1;
                 });
  }

  // Folded per hour in machine order, then overall — the order
  // core::run_capacity_profile folds in.
  core::CapacityProfile out;
  for (std::size_t h = 0; h < 24; ++h) {
    double wd_cpu = 0.0, wd_mem = 0.0, wd_load = 0.0;
    double we_cpu = 0.0, we_mem = 0.0, we_load = 0.0;
    std::uint64_t wd_n = 0, we_n = 0;
    for (std::uint32_t m = 0; m < config.machines; ++m) {
      wd_cpu += weekday_acc[m].cpu_sum[h];
      wd_mem += weekday_acc[m].mem_sum[h];
      wd_load += weekday_acc[m].load_sum[h];
      wd_n += weekday_acc[m].n[h];
      we_cpu += weekend_acc[m].cpu_sum[h];
      we_mem += weekend_acc[m].mem_sum[h];
      we_load += weekend_acc[m].load_sum[h];
      we_n += weekend_acc[m].n[h];
    }
    const auto mean = [](double sum, std::uint64_t n) {
      return n ? sum / static_cast<double>(n) : 0.0;
    };
    out.weekday_cpu[h] = mean(wd_cpu, wd_n);
    out.weekday_free_mem[h] = mean(wd_mem, wd_n);
    out.weekday_host_load[h] = mean(wd_load, wd_n);
    out.weekend_cpu[h] = mean(we_cpu, we_n);
    out.weekend_free_mem[h] = mean(we_mem, we_n);
    out.weekend_host_load[h] = mean(we_load, we_n);
  }
  double cpu_total = 0.0;
  std::uint64_t usable = 0, samples = 0;
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

}  // namespace fgcs::testkit
