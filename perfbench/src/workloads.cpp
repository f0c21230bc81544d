#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "fgcs/core/analyzer.hpp"
#include "fgcs/fault/fault_plan.hpp"
#include "fgcs/obs/observer.hpp"
#include "fgcs/recover/manifest.hpp"
#include "fgcs/recover/shard_state.hpp"
#include "fgcs/serve/feed.hpp"
#include "fgcs/serve/query.hpp"
#include "fgcs/trace/format_v2.hpp"
#include "fgcs/util/io.hpp"
#include "fgcs/util/parallel.hpp"
#include "fgcs/util/rng.hpp"
#include "fgcs/workload/load_model.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using fgcs::trace::UnavailabilityRecord;

namespace {

// Op sizes. Each op must stay short enough that a run collects at least
// kMinOps of every op type within the run length BENCHMARK.json sets,
// and long enough to clear the clock guard by orders of magnitude.
constexpr std::size_t kMinOps = 100;
// Stands in for the config fingerprint in the traced replay's manifest.
// Nothing reads the replay's manifest back, and the value does not change
// the manifest's length.
constexpr std::uint64_t kReplayFingerprint = 0x70657266'62656e63ull;
constexpr std::uint32_t kReadMachines = 2000;
constexpr int kReadDays = 28;
constexpr std::uint64_t kQueryBatch = 1ull << 18;
constexpr const char* kSelective = "machine=[0,20) cause=S3";
constexpr int kSetupReps = 3;
constexpr const char* kFaultPlanFile = "fault_basic.plan";

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::uint64_t testbed_seed(std::uint64_t seed) {
  return fgcs::util::RngStream::derive(20050815, {seed});
}

/// fleet's segment file name for `shard` inside `dir`.
std::string segment_path(const std::string& dir, std::size_t shard) {
  char name[32];
  std::snprintf(name, sizeof name, "shard-%04zu.trc2", shard);
  return (fs::path(dir) / name).string();
}

/// Writes the traced run's last spans next to the run's work directory.
void write_spans(const Options& opt, const Tracer& tracer) {
  tracer.write_chrome_json(
      (fs::path(opt.work_dir).parent_path() / ("spans-" + opt.workload + ".json"))
          .string());
}

void fresh_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

/// Empties `dir` and then commits every pending file-system change.
/// Deleting the previous op's files leaves journal work (and, on file
/// systems mounted with online discard, discards) for the next commit;
/// without the sync that cost lands inside whichever timed op fsyncs next.
void fresh_synced_dir(const std::string& dir) {
  fresh_dir(dir);
  ::sync();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return nearest_rank(v, 0.5);
}

/// p10 of a traced layer's per-op times. The first sample comes from the
/// warm-up op and is left out, as the loop leaves out the warm-up's time.
double p10(const std::vector<double>& v) {
  return summarize(std::vector<double>(v.begin() + 1, v.end())).p10;
}

// ---------------------------------------------------------------- sweeps

struct SweepShape {
  const char* name;
  std::uint32_t machines;
  int days;
  std::uint32_t shard_machines;
  bool telemetry;
  bool faulted;

  double machine_days() const { return static_cast<double>(machines) * days; }
};

// `sweep` runs 16 x 28 in shards of four machines: the partition of a
// 256-machine sweep (fleet caps a sweep at 64 shards), so each machine
// carries the same share of the per-shard costs (writer, segment seal,
// state blob, manifest rewrite). `sweep-faulted` runs 16 x 7 with one
// machine per shard, the partition of a 64-machine sweep.
constexpr SweepShape kSweep{"sweep", 16, 28, 4, true, false};
constexpr SweepShape kFaulted{"sweep-faulted", 16, 7, 1, false, true};

fgcs::fleet::FleetConfig sweep_config(const SweepShape& shape,
                                      const fgcs::core::TestbedConfig& testbed,
                                      const fgcs::fault::FaultPlan& plan) {
  fgcs::fleet::FleetConfig config;
  config.testbed = testbed;
  config.testbed.machines = shape.machines;
  config.testbed.days = shape.days;
  if (shape.faulted) config.testbed.faults = plan;
  config.shard_machines = shape.shard_machines;
  config.threads = 1;
  config.checkpoint = true;
  return config;
}

struct ReplayCounts {
  std::vector<std::string> segments;
  std::vector<std::uint64_t> shard_records;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
};

/// Synthesizes every machine's load the way run_into does first, one span
/// per machine. run_into gives no hook inside itself, so synthesis is
/// timed by this separate op and subtracted from run_into's time.
/// Returns the total of trajectory points and downtimes generated, which
/// the op's check compares run to run.
std::uint64_t replay_synthesis(const fgcs::core::TestbedConfig& tb,
                               fgcs::util::Arena& arena, Tracer& tracer) {
  std::uint64_t generated = 0;
  for (std::uint32_t m = 0; m < tb.machines; ++m) {
    const Tracer::Scope y(tracer, "workload.synth");
    arena.reset();
    fgcs::workload::ArenaLoadTrace load(&arena);
    fgcs::workload::generate_machine_load_into(tb.profile, tb.seed, m, tb.days,
                                               static_cast<int>(tb.start_dow),
                                               &arena, load);
    generated += load.points.size() + load.downtimes.size();
  }
  return generated;
}

/// The traced replay of one sweep op: the calls run_fleet makes for a
/// single-worker spilled sweep without telemetry, in its order, each
/// wrapped in a span.
ReplayCounts replay_sweep(const fgcs::fleet::FleetConfig& config,
                          Tracer& tracer) {
  namespace rc = fgcs::recover;
  ReplayCounts counts;
  const Tracer::Scope op(tracer, "fleet.op");
  const auto& tb = config.testbed;
  const fgcs::core::TestbedRunner runner(tb);
  fs::create_directories(config.spill_dir);
  const std::uint32_t per_shard = config.effective_shard_machines();
  const std::size_t shard_count = config.shard_count();
  std::optional<rc::CheckpointLog> log;
  {
    const Tracer::Scope s(tracer, "recover.commit");
    log.emplace(config.spill_dir, kReplayFingerprint, shard_count);
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    const Tracer::Scope shard(tracer, "fleet.shard");
    fgcs::obs::CounterShard counters;
    const fgcs::obs::ShardScope scope(&counters);
    const auto first = static_cast<std::uint32_t>(s) * per_shard;
    const std::uint32_t count = std::min(per_shard, tb.machines - first);
    const std::string segment = segment_path(config.spill_dir, s);
    std::optional<fgcs::trace::TraceWriterV2> writer;
    {
      const Tracer::Scope e(tracer, "trace.encode");
      writer.emplace(segment, tb.machines, runner.horizon_start(),
                     runner.horizon_end());
    }
    fgcs::core::MachineScratch scratch;
    std::vector<UnavailabilityRecord> records;
    std::uint64_t shard_records = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const fgcs::trace::MachineId machine = first + i;
      {
        const Tracer::Scope w(tracer, "core.run_into");
        runner.run_into(machine, scratch, records);
      }
      {
        const Tracer::Scope e(tracer, "trace.encode");
        writer->append(records);
      }
      shard_records += records.size();
    }
    {
      const Tracer::Scope e(tracer, "trace.encode");
      writer->finish();
    }
    rc::ShardCheckpoint cp;
    cp.shard = s;
    cp.first_machine = first;
    cp.machine_count = count;
    cp.records = shard_records;
    cp.segment_name = fs::path(segment).filename().string();
    cp.state_name = rc::shard_state_name(s);
    cp.rng_key = rc::shard_rng_key(tb.seed, first);
    cp.segment_crc = writer->content_crc();
    cp.segment_bytes = writer->bytes_written();
    rc::ShardState state;
    state.counters = counters;
    state.records = shard_records;
    {
      const Tracer::Scope r(tracer, "recover.state");
      cp.state_crc = rc::write_shard_state(
          (fs::path(config.spill_dir) / cp.state_name).string(), state);
    }
    {
      const Tracer::Scope r(tracer, "recover.commit");
      log->commit(cp);
    }
    counts.records += shard_records;
    counts.bytes += cp.segment_bytes;
    counts.segments.push_back(segment);
    counts.shard_records.push_back(shard_records);
  }
  {
    const Tracer::Scope r(tracer, "recover.sync");
    log->sync();
  }
  return counts;
}

/// fault.injected summed over a sweep's shards. The counter only moves
/// with an observer installed, which the measured sweep runs without, so
/// this is one extra, untimed sweep.
std::uint64_t count_injected_faults(fgcs::fleet::FleetConfig config) {
  fgcs::obs::Observer observer;
  const fgcs::obs::ScopedObserver guard(&observer);
  const auto result = fgcs::fleet::run_fleet(config);
  std::uint64_t injected = 0;
  for (const auto& s : result.shards) {
    for (const auto n : s.counters.fault_injected) injected += n;
  }
  return injected;
}

// ------------------------------------------------------------- sweep ops

struct SweepOp {
  fgcs::fleet::FleetConfig config;
  std::vector<ShardDigest> reference;  // from the op's first run
  std::optional<fgcs::fleet::FleetResult> result;
  std::uint64_t count = 0;
};

/// A sweep op: run_fleet into a fresh spill directory, checked against
/// the first op's segments and one sampled machine.
OpType make_sweep_op(const std::string& name, SweepOp& state) {
  OpType op;
  op.name = name;
  op.prepare = [&state] {
    state.result.reset();
    fresh_synced_dir(state.config.spill_dir);
  };
  op.body = [&state] { state.result = fgcs::fleet::run_fleet(state.config); };
  op.check = [&state] {
    if (state.reference.empty()) state.reference = digest_segments(*state.result);
    const auto sampled = static_cast<fgcs::trace::MachineId>(
        (state.count++ * 7919) % state.config.testbed.machines);
    return check_sweep(state.reference, *state.result, state.config.testbed, sampled);
  };
  return op;
}

/// One sweep op type, and what the traced run adds to it: the sweep again
/// without telemetry (so telemetry's cost is a floor difference),
/// synthesis alone, and the traced replay of the sweep without telemetry,
/// each collecting its layers' self times per op. Its ops capture it by
/// reference, so it never moves.
struct SweepPart {
  SweepPart(const SweepShape& s, const fgcs::fleet::FleetConfig& config,
            const std::string& work_dir)
      : shape(s) {
    const fs::path dir(work_dir);
    const std::string name = shape.name;
    op.config = config;
    op.config.spill_dir = (dir / name).string();
    if (shape.telemetry) op.config.metrics_path = (dir / name / "metrics.met").string();
    plain.config = config;
    plain.config.spill_dir = (dir / (name + "-plain")).string();
    replay_config = config;
    replay_config.spill_dir = (dir / (name + "-replay")).string();
  }
  SweepPart(const SweepPart&) = delete;
  SweepPart& operator=(const SweepPart&) = delete;

  void add_op(std::vector<OpType>& types) {
    op_index = types.size();
    types.push_back(make_sweep_op(shape.name, op));
  }

  void add_traced_ops(std::vector<OpType>& types, Tracer& tracer) {
    const std::string name = shape.name;
    plain_index = op_index;
    if (shape.telemetry) {
      plain_index = types.size();
      types.push_back(make_sweep_op(name + "-plain", plain));
    }
    OpType synth;
    synth.name = name + "-synth";
    synth.body = [this, &tracer] {
      mark = tracer.spans().size();
      generated = replay_synthesis(replay_config.testbed, arena, tracer);
    };
    synth.check = [this, &tracer]() -> std::string {
      if (!generated_first) generated_first = generated;
      if (generated != *generated_first) return "synthesis output differs run to run";
      synth_s.push_back(tracer.self_seconds("workload.synth", mark));
      return {};
    };
    types.push_back(std::move(synth));
    OpType replay;
    replay.name = name + "-replay";
    replay.prepare = [this] { fresh_synced_dir(replay_config.spill_dir); };
    replay.body = [this, &tracer] {
      mark = tracer.spans().size();
      counts = replay_sweep(replay_config, tracer);
    };
    replay.check = [this, &tracer]() -> std::string {
      std::vector<ShardDigest> digests;
      for (std::size_t i = 0; i < counts.segments.size(); ++i) {
        digests.push_back(ShardDigest{fgcs::util::file_crc32(counts.segments[i]),
                                      counts.shard_records[i]});
      }
      if (digests != op.reference) return "replay segments differ from the sweep's";
      run_into_s.push_back(tracer.self_seconds("core.run_into", mark));
      encode_s.push_back(tracer.self_seconds("trace.encode", mark));
      commit_s.push_back(tracer.self_seconds("recover.commit", mark));
      recover_s.push_back(commit_s.back() + tracer.self_seconds("recover.state", mark) +
                          tracer.self_seconds("recover.sync", mark));
      return {};
    };
    replay_index = types.size();
    types.push_back(std::move(replay));
  }

  /// Self time of the walk, run_into minus synthesis, per machine-day.
  double walk_ns_per_machine_day() const {
    return (p10(run_into_s) - p10(synth_s)) / shape.machine_days() * 1e9;
  }

  /// The replay's layer self times at their floors: run_into (synthesis
  /// included), the encode and the recover calls.
  double layer_seconds() const {
    return p10(run_into_s) + p10(encode_s) + p10(recover_s);
  }

  const SweepShape shape;
  SweepOp op;
  SweepOp plain;  // traced run only, and only for a telemetry sweep
  fgcs::fleet::FleetConfig replay_config;
  fgcs::util::Arena arena;
  std::size_t mark = 0;  // first span of the traced op in progress
  std::uint64_t generated = 0;
  std::optional<std::uint64_t> generated_first;
  ReplayCounts counts;
  std::vector<double> synth_s, run_into_s, encode_s, recover_s, commit_s;
  // Positions of this part's op types in the loop.
  std::size_t op_index = 0, plain_index = 0, replay_index = 0;
};

// -------------------------------------------------------------- read ops

namespace q = fgcs::query;
namespace sv = fgcs::serve;

/// The read side over the set-up's spill: full scan, selective scan, feed
/// ingest and query batch, with their references computed at
/// construction, outside every timed interval. The traced run adds the
/// same four ops with a span around each call into a layer. Its ops
/// capture it by reference, so it never moves.
class ReadPart {
 public:
  ReadPart(const fgcs::fleet::FleetResult& fleet, const fgcs::trace::TraceSet& trace,
           std::uint64_t seed, Report& report)
      : paths_(fleet.segment_paths()), records_(trace.records()) {
    all_opts_.pool = &inline_pool_;
    sel_opts_ = all_opts_;
    sel_opts_.predicate = q::Predicate::parse(kSelective);
    brute_opts_ = sel_opts_;
    brute_opts_.disable_pruning = true;
    full_ref_ = analyze(trace);
    fgcs::trace::TraceSet filtered(trace.machine_count(), trace.horizon_start(),
                                   trace.horizon_end());
    for (const auto& r : records_) {
      if (sel_opts_.predicate.matches(r.machine, r.start.as_micros(), r.end.as_micros(),
                                      static_cast<std::uint8_t>(r.cause))) {
        filtered.add(r);
      }
    }
    sel_ref_ = analyze(filtered);
    brute_ref_ = q::SegmentQuery(paths_).run(brute_opts_);
    ++report.extra_attempted;
    if (std::string d = diff_analysis(sel_ref_, brute_ref_); !d.empty()) {
      ++report.extra_failed;
      report.fail("brute-force selective scan vs analyzer: " + d);
    }

    feed_cfg_.machines = kReadMachines;
    feed_cfg_.horizon_start = trace.horizon_start();
    query_feed_ = std::make_unique<sv::AvailabilityFeed>(feed_cfg_);
    for (const auto& r : records_) query_feed_->ingest(r);
    query_feed_->publish();
    sv::LoadSpec spec;
    spec.machines = kReadMachines;
    spec.queries = kQueryBatch;
    spec.mix = sv::MixSpec::parse("zipf:1.1");
    spec.at_hours = 24.0 * kReadDays + 1.0;  // strictly past every episode
    spec.seed = fgcs::util::RngStream::derive(20060806, {seed});
    gen_ = std::make_unique<const sv::LoadGenerator>(spec);
    engine_ = std::make_unique<const sv::QueryEngine>(*query_feed_);
  }
  ReadPart(const ReadPart&) = delete;
  ReadPart& operator=(const ReadPart&) = delete;

  void add_ops(std::vector<OpType>& types) {
    first_ = types.size();
    types.push_back({"scan-full", {}, [this] { full_out_ = q::SegmentQuery(paths_).run(all_opts_); },
                     [this] { return check_full(); }});
    types.push_back({"scan-selective", {},
                     [this] { sel_out_ = q::SegmentQuery(paths_).run(sel_opts_); },
                     [this] { return check_selective(); }});
    types.push_back({"ingest", {}, [this] {
                       feed_ = std::make_unique<sv::AvailabilityFeed>(feed_cfg_);
                       for (const auto& r : records_) feed_->ingest(r);
                       feed_->publish();
                     },
                     [this] { return check_ingest(); }});
    types.push_back({"query-batch", {},
                     [this] { load_out_ = sv::run_load(*engine_, *gen_, 0, kQueryBatch); },
                     [this] { return check_load(); }});
  }

  void add_traced_ops(std::vector<OpType>& types, Tracer& tracer) {
    traced_first_ = types.size();
    types.push_back({"traced-scan-full", {},
                     [this, &tracer] {
                       traced_scan(tracer, all_opts_, full_out_, open_full_s_, run_full_s_);
                     },
                     [this] { return check_full(); }});
    types.push_back({"traced-scan-sel", {},
                     [this, &tracer] {
                       traced_scan(tracer, sel_opts_, sel_out_, open_sel_s_, run_sel_s_);
                     },
                     [this] { return check_selective(); }});
    types.push_back({"traced-ingest", {}, [this, &tracer] {
                       const std::size_t mark = tracer.spans().size();
                       {
                         const Tracer::Scope s(tracer, "serve.ingest");
                         feed_ = std::make_unique<sv::AvailabilityFeed>(feed_cfg_);
                         for (const auto& r : records_) feed_->ingest(r);
                       }
                       {
                         const Tracer::Scope s(tracer, "serve.publish");
                         feed_->publish();
                       }
                       ingest_s_.push_back(tracer.self_seconds("serve.ingest", mark));
                       publish_s_.push_back(tracer.self_seconds("serve.publish", mark));
                     },
                     [this] { return check_ingest(); }});
    types.push_back({"traced-query", {}, [this, &tracer] {
                       const std::size_t mark = tracer.spans().size();
                       const std::uint64_t before = allocations();
                       {
                         const Tracer::Scope s(tracer, "serve.run_load");
                         load_out_ = sv::run_load(*engine_, *gen_, 0, kQueryBatch);
                       }
                       load_allocs_ = allocations() - before;
                       load_s_.push_back(tracer.self_seconds("serve.run_load", mark));
                     },
                     [this] { return check_load(); }});
  }

  void add_metrics(Report& report, const std::vector<Summary>& s) const {
    const double n = records();
    report.add("scan_records_per_s", floor_rate(n, s[first_]));
    report.add("selective_scan_ms", s[first_ + 1].p10 * 1e3);
    report.add("ingest_events_per_s", floor_rate(n, s[first_ + 2]));
    report.add("serve_queries_per_s",
               floor_rate(static_cast<double>(kQueryBatch), s[first_ + 3]));
  }

  void add_layer_metrics(Report& report, const std::vector<Summary>& s) const {
    const double n = records();
    std::uint64_t bytes = 0;
    for (const auto& p : paths_) bytes += fs::file_size(p);
    const q::QueryResult& sel = *sel_out_;
    std::vector<double> open_s(open_full_s_.begin() + 1, open_full_s_.end());
    open_s.insert(open_s.end(), open_sel_s_.begin() + 1, open_sel_s_.end());
    report.add("trace.open_ms", summarize(open_s).p10 * 1e3);
    report.add("trace.bytes_per_record", static_cast<double>(bytes) / n);
    report.add("query.scan_ns_per_record", p10(run_full_s_) / n * 1e9);
    report.add("query.blocks_skipped_ratio",
               static_cast<double>(sel.stats.blocks_skipped) /
                   static_cast<double>(sel.stats.blocks_total));
    report.add("query.records_scanned_per_match",
               static_cast<double>(sel.stats.records_scanned) /
                   static_cast<double>(sel.stats.records_matched));
    report.add("serve.ingest_ns_per_event", p10(ingest_s_) / n * 1e9);
    report.add("serve.publish_us", p10(publish_s_) * 1e6);
    report.add("serve.snapshot_swaps", static_cast<double>(swaps_));
    report.add("serve.query_ns", p10(load_s_) / static_cast<double>(kQueryBatch) * 1e9);
    report.add("serve.allocs_per_query",
               static_cast<double>(load_allocs_) / static_cast<double>(kQueryBatch));
    const double layers = p10(open_full_s_) + p10(run_full_s_) + p10(open_sel_s_) +
                          p10(run_sel_s_) + p10(ingest_s_) + p10(publish_s_) + p10(load_s_);
    report.add("read.residual_share", 1.0 - layers / untraced_seconds(s));
  }

  /// Sum of the floors of the four untraced read ops.
  double untraced_seconds(const std::vector<Summary>& s) const {
    return s[first_].p10 + s[first_ + 1].p10 + s[first_ + 2].p10 + s[first_ + 3].p10;
  }

  /// Sum of the floors of the four traced read ops.
  double traced_seconds(const std::vector<Summary>& s) const {
    const std::size_t t = traced_first_;
    return s[t].p10 + s[t + 1].p10 + s[t + 2].p10 + s[t + 3].p10;
  }

 private:
  double records() const { return static_cast<double>(records_.size()); }

  void traced_scan(Tracer& tracer, const q::QueryOptions& o, std::optional<q::QueryResult>& out,
                   std::vector<double>& open, std::vector<double>& run) {
    const std::size_t mark = tracer.spans().size();
    std::optional<q::SegmentQuery> query;
    {
      const Tracer::Scope s(tracer, "trace.open");
      query.emplace(paths_);
    }
    {
      const Tracer::Scope s(tracer, "query.run");
      out = query->run(o);
    }
    open.push_back(tracer.self_seconds("trace.open", mark));
    run.push_back(tracer.self_seconds("query.run", mark));
  }

  std::string check_full() {
    if (!full_first_) full_first_ = *full_out_;
    if (auto d = diff_analysis(full_ref_, *full_out_); !d.empty()) return d;
    if (full_out_->stats.records_matched != records_.size()) {
      return "full scan matched " + std::to_string(full_out_->stats.records_matched) +
             " of " + std::to_string(records_.size()) + " records";
    }
    return diff_training(*full_first_, *full_out_);
  }

  std::string check_selective() const {
    if (auto d = diff_analysis(sel_ref_, *sel_out_); !d.empty()) return d;
    if (auto d = diff_analysis(brute_ref_, *sel_out_); !d.empty()) return d;
    return diff_training(brute_ref_, *sel_out_);
  }

  std::string check_ingest() {
    const std::uint64_t got = feed_->events_ingested();
    const std::uint64_t published = feed_->snapshot()->events;
    swaps_ = feed_->snapshots_published();
    feed_.reset();
    if (got != records_.size() || published != records_.size()) {
      return "ingested " + std::to_string(got) + " (published " + std::to_string(published) +
             ") of " + std::to_string(records_.size()) + " records";
    }
    return {};
  }

  std::string check_load() {
    if (!load_first_) load_first_ = load_out_;
    return diff_load(*load_first_, load_out_);
  }

  const std::vector<std::string> paths_;
  const std::span<const UnavailabilityRecord> records_;
  fgcs::util::ThreadPool inline_pool_{0};
  q::QueryOptions all_opts_, sel_opts_, brute_opts_;
  q::QueryResult full_ref_, sel_ref_, brute_ref_;
  sv::FeedConfig feed_cfg_;
  std::unique_ptr<sv::AvailabilityFeed> query_feed_;
  std::unique_ptr<const sv::LoadGenerator> gen_;
  std::unique_ptr<const sv::QueryEngine> engine_;
  // Op outputs, each kept until its check has run.
  std::optional<q::QueryResult> full_out_, sel_out_, full_first_;
  std::unique_ptr<sv::AvailabilityFeed> feed_;
  sv::LoadStats load_out_{};
  std::optional<sv::LoadStats> load_first_;
  // Per-op layer times of the traced run.
  std::vector<double> open_full_s_, run_full_s_, open_sel_s_, run_sel_s_;
  std::vector<double> ingest_s_, publish_s_, load_s_;
  std::uint64_t swaps_ = 0, load_allocs_ = 0;
  // Positions of the untraced and traced read ops in the loop.
  std::size_t first_ = 0, traced_first_ = 0;
};

// ----------------------------------------------------------------- mix

/// The inputs set-up builds through the program.
struct Inputs {
  fgcs::fleet::FleetConfig sweep;
  fgcs::fleet::FleetConfig faulted;
  std::optional<fgcs::fleet::FleetResult> fleet;  // the spill the reads run over
  std::optional<fgcs::trace::TraceSet> trace;     // its records, materialized
};

/// Set-up: the fault plan parsed from its file, both sweep configs
/// validated and their testbed runners built (which expands the plan into
/// a per-machine fault injector), then the 2000 x 28 spill the reads run
/// over and its records materialized.
void build_inputs(const fgcs::core::TestbedConfig& testbed, const std::string& plan_path,
                  const std::string& spill, Inputs& in) {
  const fgcs::fault::FaultPlan plan = fgcs::fault::FaultPlan::load(plan_path);
  in.sweep = sweep_config(kSweep, testbed, plan);
  in.faulted = sweep_config(kFaulted, testbed, plan);
  for (const auto* config : {&in.sweep, &in.faulted}) {
    config->validate();
    const fgcs::core::TestbedRunner runner(config->testbed);
  }
  fgcs::fleet::FleetConfig read;
  read.testbed = testbed;
  read.testbed.machines = kReadMachines;
  read.testbed.days = kReadDays;
  read.threads = 1;
  read.spill_dir = spill;
  in.fleet = fgcs::fleet::run_fleet(read);
  in.trace = in.fleet->load_trace();
}

/// Every workload runs the same op types on inputs synthesized from its
/// host-load profile: the two sweeps, then the four reads, and in the
/// traced run the ops that time each layer.
Report run_mix(const Options& opt, const fgcs::workload::LabProfile& profile) {
  Report report;
  fgcs::core::TestbedConfig testbed;
  testbed.seed = testbed_seed(opt.seed);
  testbed.profile = profile;
  const std::string plan_path = (fs::path(opt.inputs_dir) / kFaultPlanFile).string();
  const std::string spill = (fs::path(opt.work_dir) / "spill").string();

  // Set-up is repeated; the median is reported.
  Inputs in;
  std::vector<double> setup_samples;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in = Inputs{};
    fresh_dir(spill);
    const auto t0 = Clock::now();
    build_inputs(testbed, plan_path, spill, in);
    setup_samples.push_back(seconds_between(t0, Clock::now()));
  }
  // The spill's writeback must not land inside the timed ops.
  ::sync();

  SweepPart sweep(kSweep, in.sweep, opt.work_dir);
  SweepPart faulted(kFaulted, in.faulted, opt.work_dir);
  ReadPart read(*in.fleet, *in.trace, opt.seed, report);
  Tracer tracer;
  std::vector<OpType> types;
  sweep.add_op(types);
  faulted.add_op(types);
  read.add_ops(types);
  if (opt.trace) {
    sweep.add_traced_ops(types, tracer);
    faulted.add_traced_ops(types, tracer);
    read.add_traced_ops(types, tracer);
  }

  LoopConfig loop_cfg;
  loop_cfg.seconds = opt.seconds;
  loop_cfg.min_ops = kMinOps;
  // Spans of one rotation are kept, so the file written at exit shows a
  // whole rotation.
  loop_cfg.per_rotation = [&] { tracer.clear(); };
  const double clock_ns = clock_read_ns();
  const LoopResult loop = run_closed_loop(types, loop_cfg);
  const auto s = record_loop(report, loop, clock_ns, kMinOps);
  report.diag("setup.reps", kSetupReps);
  report.diag("proc.peak_rss_mb", peak_rss_mb());

  if (!opt.trace) {
    report.add("setup_s", median(setup_samples));
    report.add("peak_heap_mb", static_cast<double>(peak_heap_bytes()) / (1024.0 * 1024.0));
    report.add("machine_days_per_s", floor_rate(kSweep.machine_days(), s[sweep.op_index]));
    report.add("faulted_machine_days_per_s",
               floor_rate(kFaulted.machine_days(), s[faulted.op_index]));
    read.add_metrics(report, s);
    return report;
  }

  if (!report.correct()) return report;
  const double machine_days = kSweep.machine_days();
  const double floor_sweep = s[sweep.op_index].p10;
  const double floor_plain = s[sweep.plain_index].p10;
  const double floor_faulted = s[faulted.op_index].p10;
  const double telemetry_s = floor_sweep - floor_plain;
  const double shards =
      static_cast<double>(sweep.op.config.shard_count() + faulted.op.config.shard_count());
  report.add("workload.synth_ns_per_machine_day", p10(sweep.synth_s) / machine_days * 1e9);
  report.add("core.walk_ns_per_machine_day", sweep.walk_ns_per_machine_day());
  report.add("core.faulted_walk_ns_per_machine_day", faulted.walk_ns_per_machine_day());
  report.add("core.allocs_per_machine_day", steady_state_allocs_per_machine_day(sweep.op.config));
  report.add("trace.encode_ns_per_record",
             p10(sweep.encode_s) / static_cast<double>(sweep.counts.records) * 1e9);
  report.add("recover.commit_ms_per_shard",
             (p10(sweep.commit_s) + p10(faulted.commit_s)) / shards * 1e3);
  report.add("obs.telemetry_ns_per_machine_day", telemetry_s / machine_days * 1e9);
  // synth + walk = run_into.
  report.add("fleet.residual_share",
             1.0 - (sweep.layer_seconds() + telemetry_s + faulted.layer_seconds()) /
                       (floor_sweep + floor_faulted));
  auto fault_config = faulted.op.config;
  fault_config.spill_dir = (fs::path(opt.work_dir) / "faults").string();
  fresh_dir(fault_config.spill_dir);
  report.add("fault.injected_per_machine_day",
             static_cast<double>(count_injected_faults(fault_config)) /
                 kFaulted.machine_days());
  read.add_layer_metrics(report, s);
  const double untraced = floor_plain + floor_faulted + read.untraced_seconds(s);
  const double traced =
      s[sweep.replay_index].p10 + s[faulted.replay_index].p10 + read.traced_seconds(s);
  report.add("bench.trace_overhead_share", traced / untraced - 1.0);
  write_spans(opt, tracer);
  return report;
}

}  // namespace


double steady_state_allocs_per_machine_day(const fgcs::fleet::FleetConfig& config) {
  const auto& tb = config.testbed;
  const fgcs::core::TestbedRunner runner(tb);
  const std::uint32_t per_shard = config.effective_shard_machines();
  std::uint64_t allocs = 0;
  for (std::size_t s = 0; s < config.shard_count(); ++s) {
    const auto first = static_cast<std::uint32_t>(s) * per_shard;
    const std::uint32_t count = std::min(per_shard, tb.machines - first);
    fgcs::core::MachineScratch scratch;
    std::vector<UnavailabilityRecord> records;
    for (std::uint32_t i = 0; i < count; ++i) runner.run_into(first + i, scratch, records);
    const std::uint64_t before = allocations();
    for (std::uint32_t i = 0; i < count; ++i) runner.run_into(first + i, scratch, records);
    allocs += allocations() - before;
  }
  return static_cast<double>(allocs) / (static_cast<double>(tb.machines) * tb.days);
}

// ------------------------------------------------------- output checks

std::vector<ShardDigest> digest_segments(const fgcs::fleet::FleetResult& result) {
  std::vector<ShardDigest> out;
  for (const auto& s : result.shards) {
    out.push_back(ShardDigest{fgcs::util::file_crc32(s.segment_path), s.records});
  }
  return out;
}

std::string diff_records(std::span<const UnavailabilityRecord> want,
                         std::span<const UnavailabilityRecord> got) {
  if (want.size() != got.size()) {
    return "record count " + std::to_string(got.size()) + ", expected " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& a = want[i];
    const auto& b = got[i];
    if (a.machine != b.machine || a.start != b.start || a.end != b.end ||
        a.cause != b.cause || a.host_cpu != b.host_cpu ||
        a.free_mem_mb != b.free_mem_mb) {
      return "record " + std::to_string(i) + " differs";
    }
  }
  return {};
}

std::string check_sweep(const std::vector<ShardDigest>& reference,
                        const fgcs::fleet::FleetResult& got,
                        const fgcs::core::TestbedConfig& testbed,
                        fgcs::trace::MachineId sampled) {
  if (digest_segments(got) != reference) {
    return "segment CRCs or record counts differ from the first op's";
  }
  const auto want = fgcs::core::run_testbed_machine(testbed, sampled);
  std::vector<UnavailabilityRecord> spilled;
  for (const auto& s : got.shards) {
    if (sampled < s.first_machine || sampled >= s.first_machine + s.machine_count) {
      continue;
    }
    fgcs::trace::TraceView(s.segment_path).for_each([&](const UnavailabilityRecord& r) {
      if (r.machine == sampled) spilled.push_back(r);
    });
  }
  if (auto d = diff_records(want, spilled); !d.empty()) {
    return "machine " + std::to_string(sampled) + " vs run_testbed_machine: " + d;
  }
  return {};
}

fgcs::query::QueryResult analyze(const fgcs::trace::TraceSet& trace) {
  const fgcs::core::TraceAnalyzer analyzer(trace);
  fgcs::query::QueryResult out;
  out.table2 = analyzer.table2();
  const auto intervals = analyzer.intervals();
  const auto summary = [](const fgcs::core::IntervalClassStats& c) {
    fgcs::query::IntervalClassSummary s;
    s.count = c.count;
    s.mean_hours = c.mean_hours;
    s.frac_under_5min = c.frac_under_5min;
    s.frac_5min_to_2h = c.frac_5min_to_2h;
    s.frac_2h_to_4h = c.frac_2h_to_4h;
    s.frac_4h_to_6h = c.frac_4h_to_6h;
    return s;
  };
  out.intervals.weekday = summary(intervals.weekday);
  out.intervals.weekend = summary(intervals.weekend);
  out.hourly = analyzer.hourly();
  out.relative_deviation_weekday = analyzer.hourly_relative_deviation(false);
  out.relative_deviation_weekend = analyzer.hourly_relative_deviation(true);
  return out;
}

std::string diff_analysis(const fgcs::query::QueryResult& want,
                          const fgcs::query::QueryResult& got) {
  const auto range_eq = [](const fgcs::core::Table2Stats::Range& x,
                           const fgcs::core::Table2Stats::Range& y) {
    return x.min == y.min && x.max == y.max && x.mean == y.mean;
  };
  const auto& a = want.table2;
  const auto& b = got.table2;
  if (a.machines != b.machines || !range_eq(a.total, b.total) ||
      !range_eq(a.cpu_contention, b.cpu_contention) ||
      !range_eq(a.mem_contention, b.mem_contention) || !range_eq(a.urr, b.urr) ||
      a.cpu_pct_min != b.cpu_pct_min || a.cpu_pct_max != b.cpu_pct_max ||
      a.mem_pct_min != b.mem_pct_min || a.mem_pct_max != b.mem_pct_max ||
      a.urr_pct_min != b.urr_pct_min || a.urr_pct_max != b.urr_pct_max ||
      a.reboot_fraction_of_urr != b.reboot_fraction_of_urr) {
    return "Table 2 differs";
  }
  const auto class_eq = [](const fgcs::query::IntervalClassSummary& x,
                           const fgcs::query::IntervalClassSummary& y) {
    return x.count == y.count && x.mean_hours == y.mean_hours &&
           x.frac_under_5min == y.frac_under_5min &&
           x.frac_5min_to_2h == y.frac_5min_to_2h &&
           x.frac_2h_to_4h == y.frac_2h_to_4h &&
           x.frac_4h_to_6h == y.frac_4h_to_6h;
  };
  if (!class_eq(want.intervals.weekday, got.intervals.weekday) ||
      !class_eq(want.intervals.weekend, got.intervals.weekend)) {
    return "Figure 6 interval summary differs";
  }
  const auto& h = want.hourly;
  const auto& g = got.hourly;
  if (h.weekday_days != g.weekday_days || h.weekend_days != g.weekend_days) {
    return "Figure 7 day counts differ";
  }
  const auto row_eq = [](const fgcs::core::HourlyPattern::HourRow& x,
                         const fgcs::core::HourlyPattern::HourRow& y) {
    return x.mean == y.mean && x.min == y.min && x.max == y.max &&
           x.stddev == y.stddev;
  };
  for (std::size_t i = 0; i < 24; ++i) {
    if (!row_eq(h.weekday[i], g.weekday[i]) || !row_eq(h.weekend[i], g.weekend[i])) {
      return "Figure 7 hour " + std::to_string(i) + " differs";
    }
  }
  if (want.relative_deviation_weekday != got.relative_deviation_weekday ||
      want.relative_deviation_weekend != got.relative_deviation_weekend) {
    return "relative deviation differs";
  }
  return {};
}

std::string diff_training(const fgcs::query::QueryResult& want,
                          const fgcs::query::QueryResult& got) {
  const auto& a = want.training;
  const auto& b = got.training;
  if (a.machines != b.machines || a.machines_with_history != b.machines_with_history ||
      a.gap_samples != b.gap_samples || a.availability_sum != b.availability_sum ||
      a.occurrences_sum != b.occurrences_sum) {
    return "semi-Markov training scan differs";
  }
  if (want.stats.records_matched != got.stats.records_matched) {
    return "matched-record count differs";
  }
  return {};
}

std::string diff_load(const fgcs::serve::LoadStats& want,
                      const fgcs::serve::LoadStats& got) {
  if (want.queries != got.queries || want.prob_sum != got.prob_sum ||
      want.occ_sum != got.occ_sum) {
    return "query batch sums differ from the first batch's";
  }
  return {};
}


Report run_workload(const Options& opt) {
  if (opt.workload == "purdue") {
    return run_mix(opt, fgcs::workload::LabProfile::purdue_lab());
  }
  if (opt.workload == "enterprise") {
    return run_mix(opt, fgcs::workload::LabProfile::enterprise_desktop());
  }
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

}  // namespace perfbench
