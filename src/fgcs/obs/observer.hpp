// The global observability hook.
//
// An Observer bundles a MetricRegistry with an optional TraceSink and
// pre-registers the hot-path metric series so instrumented code touches
// only atomics — no lookups, no allocation. Installation is a single
// global atomic pointer:
//
//   fgcs::obs::Observer observer;
//   fgcs::obs::ScopedObserver guard(&observer);   // or set_observer()
//   ... run a testbed / simulation ...
//   observer.metrics().write_csv(out);
//   observer.trace().write_chrome_json(out);
//
// When no observer is installed (the default), every instrumentation site
// costs one relaxed-ish atomic load and a predictable branch, and performs
// zero allocations — cheap enough to leave compiled into the event loop
// and the scheduler tick unconditionally.
//
// Tracks: trace events are attributed to the calling thread's *current
// track* (a plain integer; the testbed uses the machine id). TrackScope
// sets it RAII-style and is itself thread-local, so parallel per-machine
// simulation attributes events correctly.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "fgcs/obs/flight_recorder.hpp"
#include "fgcs/obs/metrics.hpp"
#include "fgcs/obs/timeseries.hpp"
#include "fgcs/obs/trace_sink.hpp"
#include "fgcs/sim/time.hpp"

namespace fgcs::obs {

/// Number of availability-model states (S1..S5) — mirrors
/// monitor::AvailabilityState without depending on the monitor layer.
inline constexpr int kStateCount = 5;

/// Number of injectable fault kinds — mirrors fault::FaultKind without
/// depending on the fault layer.
inline constexpr int kFaultKindCount = 4;

/// Plain (non-atomic) mirror of the Observer's hot counters.
///
/// A sweep worker installs one with ShardScope; every hook then bumps a
/// thread-local uint64_t instead of a shared atomic — no cross-core
/// cache-line ping-pong on `fault.injected`/`os.ticks_fast_forwarded`
/// while thousands of machines simulate in parallel. The shard is folded
/// into the global registry once, at shard completion, via
/// Observer::merge_shard().
struct CounterShard {
  std::uint64_t sim_events_executed = 0;
  std::uint64_t sim_events_scheduled = 0;
  std::uint64_t sim_events_cancelled = 0;
  std::uint64_t sim_events_compacted = 0;
  std::uint64_t sim_compactions = 0;
  std::uint64_t sim_callbacks_spilled = 0;
  double sim_max_queue_depth = 0.0;
  std::uint64_t fault_injected[kFaultKindCount] = {};
  std::uint64_t detector_samples = 0;
  std::uint64_t detector_sensor_gaps = 0;
  std::uint64_t detector_sensor_gap_us = 0;
  std::uint64_t detector_transitions[kStateCount][kStateCount] = {};
  std::uint64_t detector_episodes_opened = 0;
  std::uint64_t detector_episodes_closed = 0;
  std::uint64_t os_ticks = 0;
  std::uint64_t os_ticks_fast_forwarded = 0;
  std::uint64_t os_context_switches = 0;
  double os_max_runnable = 0.0;
  std::uint64_t testbed_machines = 0;
  std::uint64_t serve_ingest_events = 0;
  std::uint64_t serve_queries = 0;
  std::uint64_t serve_snapshot_swaps = 0;
};

namespace detail {
extern constinit thread_local CounterShard* t_shard;
}  // namespace detail

/// The calling thread's installed counter shard (nullptr when hooks write
/// straight to the global registry).
inline CounterShard* current_shard() { return detail::t_shard; }

/// RAII thread-local shard install/restore. The caller owns the shard and
/// is responsible for merge_shard() after the scope ends.
class ShardScope {
 public:
  explicit ShardScope(CounterShard* shard);
  ~ShardScope();
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  CounterShard* previous_;
};

/// Receives a copy of every timestamped flight event the Observer sees,
/// synchronously on the emitting thread. This is the seam the online
/// serving layer (fgcs::serve) subscribes through: episode open/close
/// events carry everything AvailabilityFeed needs to maintain incremental
/// predictor state without rescanning the trace. Like the flight
/// recorder, a sink must be attached *before* the observer is installed —
/// the pointer is read unsynchronized from hook paths.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_flight_event(const FlightEvent& event) = 0;
};

class Observer {
 public:
  struct Options {
    /// Trace ring-buffer capacity; 0 retains every event.
    std::size_t trace_capacity = 0;
    /// Set false to run metrics-only (trace calls become no-ops).
    bool enable_trace = true;
  };

  Observer() : Observer(Options{}) {}
  explicit Observer(const Options& options);

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }
  TraceSink& trace() { return trace_; }
  const TraceSink& trace() const { return trace_; }
  bool trace_enabled() const { return trace_enabled_; }

  /// Attaches (or, with nullptr, detaches) a flight recorder; timestamped
  /// hooks then mirror their events into its ring. The caller owns the
  /// recorder and must attach it *before* installing the observer — the
  /// pointer is read unsynchronized from hook paths.
  void set_flight_recorder(FlightRecorder* recorder) { flight_ = recorder; }
  FlightRecorder* flight_recorder() const { return flight_; }

  /// Attaches (or, with nullptr, detaches) an event sink; episode
  /// open/close hooks then forward their events to it synchronously.
  /// Same ownership and attach-before-install rules as the recorder.
  void set_event_sink(EventSink* sink) { sink_ = sink; }
  EventSink* event_sink() const { return sink_; }

  // -- sim hooks -------------------------------------------------------------

  /// One event popped and executed; `live_depth` is the number of *live*
  /// (uncancelled) events remaining — cancelled-but-unswept heap entries
  /// are excluded so the queue-depth gauge reports real backlog.
  void on_sim_event(std::size_t live_depth) {
    const double depth = static_cast<double>(live_depth) + 1.0;
    if (CounterShard* s = current_shard()) {
      ++s->sim_events_executed;
      if (depth > s->sim_max_queue_depth) s->sim_max_queue_depth = depth;
      return;
    }
    sim_events_executed_->inc();
    sim_max_queue_depth_->set_max(depth);
  }

  /// One event scheduled; `inlined` says the callback's captures fit the
  /// inline buffer (no allocation).
  void on_sim_schedule(bool inlined) {
    if (CounterShard* s = current_shard()) {
      ++s->sim_events_scheduled;
      if (!inlined) ++s->sim_callbacks_spilled;
      return;
    }
    sim_events_scheduled_->inc();
    if (!inlined) sim_callbacks_spilled_->inc();
  }

  /// One live event cancelled through its handle.
  void on_sim_cancel() {
    if (CounterShard* s = current_shard()) {
      ++s->sim_events_cancelled;
      return;
    }
    sim_events_cancelled_->inc();
  }

  /// A heap compaction pass removed `removed` cancelled entries.
  void on_sim_compaction(std::size_t removed) {
    if (CounterShard* s = current_shard()) {
      ++s->sim_compactions;
      s->sim_events_compacted += removed;
      return;
    }
    sim_compactions_->inc();
    sim_events_compacted_->inc(removed);
  }

  /// A completed run_until/run_all, as a sim-time span.
  void on_sim_run(const char* what, sim::SimTime begin, sim::SimTime end,
                  std::uint64_t events);

  /// One run's worth of event-loop activity, flushed by the Simulation at
  /// the end of run_until/run_all from the queue's plain counters — the
  /// per-event hooks above remain for direct instrumentation, but the
  /// event loop itself reports through this batch, so enabling the
  /// observer adds no per-event work at all. `max_depth` is the queue's
  /// peak pending-event count over the batch (the executing event is not
  /// counted, unlike on_sim_event); 0 leaves the gauge untouched.
  void on_sim_batch(std::uint64_t executed, double max_depth,
                    std::uint64_t scheduled, std::uint64_t spilled,
                    std::uint64_t cancelled, std::uint64_t compactions,
                    std::uint64_t compacted);

  // -- fault hooks -----------------------------------------------------------

  /// An injected fault activated. `kind` indexes fault::FaultKind
  /// (0 crash, 1 dropout, 2 skew, 3 guest-kill).
  void on_fault_injected(int kind, sim::SimTime at, sim::SimDuration duration);

  // -- guest lifecycle hooks -------------------------------------------------

  // All take the sim time of the action so the flight recorder can place
  // them on the run's timeline.
  void on_guest_restart(sim::SimTime at);
  void on_guest_migration(sim::SimTime at);
  void on_guest_checkpoint(sim::SimTime at);
  void on_guest_completed(sim::SimTime at);

  /// Guest CPU work discarded because it was never checkpointed.
  void on_guest_work_lost(sim::SimTime at, sim::SimDuration lost);

  // -- monitor hooks ---------------------------------------------------------

  /// Hottest hook in a telemetry-enabled sweep: one per detector sample
  /// (one per simulated sample period per machine). With a time-series
  /// scope installed the whole hook is one thread-local load and one bin
  /// bump — the bins are then authoritative for the sample count, and
  /// the scope's owner folds TimeSeriesShard::total_samples() back into
  /// its CounterShard (or the registry) when the shard retires, as the
  /// fleet sweep does at the end of each shard.
  void on_detector_sample(sim::SimTime at) {
    if (TimeSeriesShard* ts = current_ts_shard()) {
      ts->on_sample(at);
      return;
    }
    if (CounterShard* s = current_shard()) {
      ++s->detector_samples;
      return;
    }
    detector_samples_->inc();
  }

  /// Batched equivalent of `count` on_detector_sample calls at at,
  /// at+stride, ... — the columnar testbed walk reports a whole run of
  /// constant-input samples at once. Totals and bins end up identical
  /// to the per-sample hook.
  void on_detector_samples(sim::SimTime at, sim::SimDuration stride,
                           std::uint64_t count) {
    if (count == 0) return;
    if (TimeSeriesShard* ts = current_ts_shard()) {
      ts->on_samples(at, stride, count);
      return;
    }
    if (CounterShard* s = current_shard()) {
      s->detector_samples += count;
      return;
    }
    detector_samples_->inc(count);
  }

  /// A sensor gap (dropped samples) was bridged by hold-last-state.
  void on_sensor_gap(sim::SimTime start, sim::SimDuration duration);

  /// State-machine edge; `from`/`to` are 1-based S-state numbers.
  void on_detector_transition(sim::SimTime at, int from, int to);

  void on_episode_opened(sim::SimTime at, int cause, double host_cpu,
                         double free_mem_mb);
  void on_episode_closed(sim::SimTime at, int cause,
                         sim::SimDuration duration);

  // -- os hooks --------------------------------------------------------------

  /// One scheduler tick; `switched` means a different process (or idle)
  /// got the CPU than on the previous tick.
  void on_machine_tick(bool switched, std::size_t runnable) {
    if (CounterShard* s = current_shard()) {
      ++s->os_ticks;
      if (switched) ++s->os_context_switches;
      if (static_cast<double>(runnable) > s->os_max_runnable) {
        s->os_max_runnable = static_cast<double>(runnable);
      }
      return;
    }
    os_ticks_->inc();
    if (switched) os_context_switches_->inc();
    os_max_runnable_->set_max(static_cast<double>(runnable));
  }

  /// The scheduler fast-forward jumped over `skipped` ticks that a forced
  /// per-tick run would have executed individually.
  void on_machine_ticks_skipped(std::uint64_t skipped) {
    if (CounterShard* s = current_shard()) {
      s->os_ticks_fast_forwarded += skipped;
      return;
    }
    os_ticks_fast_forwarded_->inc(skipped);
  }

  // -- core hooks ------------------------------------------------------------

  /// A finished per-machine testbed simulation, as a sim-time span on the
  /// machine's track.
  void on_testbed_machine(std::uint32_t machine, sim::SimTime begin,
                          sim::SimTime end, std::size_t episodes,
                          std::uint64_t samples);

  // -- fleet hooks -----------------------------------------------------------

  /// One fleet machine finished simulating (live progress counter; bumps
  /// the registry directly so monitors see it move mid-run).
  void on_fleet_machine_done() { fleet_machines_done_->inc(); }

  /// One fleet shard finished (all its machines simulated); recorded on
  /// the flight-recorder timeline at the horizon end.
  void on_fleet_shard_done(std::size_t shard, std::uint32_t first_machine,
                           std::size_t machine_count, sim::SimTime at);

  /// A shard attempt failed (machine `failed` threw) and the supervisor
  /// is retrying it; `attempt` is the attempt that failed (1-based).
  /// Bumps the registry directly, like on_fleet_machine_done.
  void on_fleet_shard_retry(std::size_t shard, std::uint32_t failed,
                            int attempt, sim::SimTime at);

  /// The supervisor gave up on `machine` after `failures` failed shard
  /// attempts and excluded it from the sweep. Latches a flight-recorder
  /// dump (via the recorder's first-fault mechanism).
  void on_fleet_machine_quarantined(std::uint32_t machine, int failures,
                                    sim::SimTime at);

  // -- serve hooks -----------------------------------------------------------

  /// One availability record ingested by the online serving feed, at the
  /// record's end time.
  void on_serve_ingest(sim::SimTime at);

  /// A batch of `n` predictor queries answered, attributed to sim time
  /// `at` (the queries' nominal arrival time).
  void on_serve_queries(sim::SimTime at, std::uint64_t n);

  /// The serving feed published a fresh fleet snapshot.
  void on_serve_snapshot_swap();

  // -- profiling scopes ------------------------------------------------------

  /// Feeds the "scope.seconds{scope=...}" histogram family (wall-clock).
  void record_scope(std::string_view name, double seconds);

  /// Folds a completed worker shard into the global registry: counters
  /// are added, max-gauges raised. Called once per shard, off the hot
  /// path; safe to call concurrently from multiple finishing workers.
  void merge_shard(const CounterShard& shard);

 private:
  MetricRegistry metrics_;
  TraceSink trace_;
  bool trace_enabled_;
  FlightRecorder* flight_ = nullptr;
  EventSink* sink_ = nullptr;

  // Hot-path series, registered once at construction.
  Counter* sim_events_executed_;
  Counter* sim_events_scheduled_;
  Counter* sim_events_cancelled_;
  Counter* sim_events_compacted_;
  Counter* sim_compactions_;
  Counter* sim_callbacks_spilled_;
  Gauge* sim_max_queue_depth_;
  Counter* fault_injected_[kFaultKindCount];
  Counter* guest_restarts_;
  Counter* guest_migrations_;
  Counter* guest_checkpoints_;
  Counter* guest_completions_;
  Counter* guest_work_lost_us_;
  Counter* detector_samples_;
  Counter* detector_sensor_gaps_;
  Counter* detector_sensor_gap_us_;
  Counter* detector_transitions_[kStateCount][kStateCount];
  Counter* detector_episodes_opened_;
  Counter* detector_episodes_closed_;
  Counter* os_ticks_;
  Counter* os_ticks_fast_forwarded_;
  Counter* os_context_switches_;
  Gauge* os_max_runnable_;
  Counter* testbed_machines_;
  Counter* fleet_machines_done_;
  Counter* fleet_shards_done_;
  Counter* fleet_shard_retries_;
  Counter* fleet_machines_quarantined_;
  Counter* serve_ingest_events_;
  Counter* serve_queries_;
  Counter* serve_snapshot_swaps_;
};

namespace detail {
extern std::atomic<Observer*> g_observer;
}  // namespace detail

/// The installed observer, or nullptr when observability is disabled.
inline Observer* observer() {
  return detail::g_observer.load(std::memory_order_acquire);
}

/// Installs (or, with nullptr, disables) the global observer. The caller
/// keeps ownership and must keep it alive while installed.
void set_observer(Observer* observer);

/// RAII install/restore, for tools and tests.
class ScopedObserver {
 public:
  explicit ScopedObserver(Observer* obs) : previous_(observer()) {
    set_observer(obs);
  }
  ~ScopedObserver() { set_observer(previous_); }
  ScopedObserver(const ScopedObserver&) = delete;
  ScopedObserver& operator=(const ScopedObserver&) = delete;

 private:
  Observer* previous_;
};

/// The calling thread's trace track id (0 until set).
std::uint32_t current_track();

/// RAII thread-local track assignment.
class TrackScope {
 public:
  explicit TrackScope(std::uint32_t track);
  ~TrackScope();
  TrackScope(const TrackScope&) = delete;
  TrackScope& operator=(const TrackScope&) = delete;

 private:
  std::uint32_t previous_;
};

/// Wall-clock RAII timer feeding record_scope(); use via FGCS_OBS_SCOPE.
/// `name` must outlive the scope (a string literal in practice).
class ScopeTimer {
 public:
  explicit ScopeTimer(const char* name)
      : observer_(obs::observer()), name_(name) {
    if (observer_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopeTimer() {
    if (observer_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    observer_->record_scope(
        name_, std::chrono::duration<double>(elapsed).count());
  }
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  Observer* observer_;
  const char* name_;
  std::chrono::steady_clock::time_point start_{};
};

#define FGCS_OBS_CONCAT_IMPL(a, b) a##b
#define FGCS_OBS_CONCAT(a, b) FGCS_OBS_CONCAT_IMPL(a, b)

/// Times the enclosing scope on the wall clock and feeds the
/// "scope.seconds{scope=<name>}" histogram. Zero-cost when disabled.
#define FGCS_OBS_SCOPE(name) \
  ::fgcs::obs::ScopeTimer FGCS_OBS_CONCAT(fgcs_obs_scope_, __LINE__)(name)

}  // namespace fgcs::obs
