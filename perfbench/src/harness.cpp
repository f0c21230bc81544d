#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

// ---------------------------------------------------------------- stats

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("nearest_rank: no samples");
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double tail_percentile(std::size_t n) {
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
    if (rank >= 1 && n >= rank + 10) return pct;
  }
  return 0.0;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p10 = nearest_rank(samples, 0.10);
  s.p50 = nearest_rank(samples, 0.50);
  s.tail_pct = tail_percentile(s.n);
  if (s.tail_pct > 0.0) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(s.tail_pct / 100.0 * s.n - 1e-9));
    s.tail = samples[rank - 1];
    s.beyond_tail = s.n - rank;
  }
  return s;
}

// ---------------------------------------------------------- clock guard

double clock_read_ns() {
  constexpr int kBatches = 9;
  constexpr int kReads = 1 << 16;
  std::vector<double> per_read;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    Clock::time_point last = t0;
    for (int i = 0; i < kReads; ++i) last = Clock::now();
    per_read.push_back(
        std::chrono::duration<double, std::nano>(last - t0).count() / kReads);
  }
  std::sort(per_read.begin(), per_read.end());
  return per_read[kBatches / 2];
}

// ------------------------------------------------------ closed-loop ops

namespace {
// Keeps the probe's chain live without a volatile store inside the loop.
volatile std::uint64_t g_spin_sink = 0;
}  // namespace

double spin_probe() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < (1 << 21); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_spin_sink = x;
  return seconds_between(t0, Clock::now());
}

namespace {

/// Runs one op of `type`; returns its timed seconds, or a negative value
/// when the op failed (recorded on `stats`).
double run_one(OpType& type, OpStats& stats) {
  ++stats.attempted;
  std::string error;
  double seconds = -1.0;
  try {
    if (type.prepare) type.prepare();
    const auto t0 = Clock::now();
    type.body();
    const auto t1 = Clock::now();
    error = type.check ? type.check() : std::string();
    if (error.empty()) seconds = seconds_between(t0, t1);
  } catch (const std::exception& e) {
    error = std::string("threw: ") + e.what();
  }
  if (!error.empty()) {
    ++stats.failed;
    if (stats.first_error.empty()) stats.first_error = error;
  }
  return seconds;
}

}  // namespace

LoopResult run_closed_loop(std::vector<OpType>& types, const LoopConfig& cfg) {
  LoopResult result;
  for (const auto& t : types) result.ops.push_back(OpStats{t.name, {}, 0, 0, {}});

  for (std::size_t i = 0; i < types.size(); ++i) run_one(types[i], result.ops[i]);

  const auto start = Clock::now();
  const auto enough = [&] {
    for (const auto& s : result.ops) {
      if (s.seconds.size() < cfg.min_ops) return false;
    }
    return true;
  };
  for (;;) {
    const double elapsed = seconds_between(start, Clock::now());
    if (elapsed >= cfg.cap_seconds) break;
    if (elapsed >= cfg.seconds && enough()) break;
    if (cfg.per_rotation) cfg.per_rotation();
    result.spin_seconds.push_back(spin_probe());
    for (std::size_t i = 0; i < types.size(); ++i) {
      const double s = run_one(types[i], result.ops[i]);
      if (s >= 0.0) result.ops[i].seconds.push_back(s);
    }
  }
  return result;
}

// ----------------------------------------------------------------- spans

Tracer::Scope::Scope(Tracer& t, const char* name)
    : tracer_(t), saved_parent_(t.parent_) {
  index_ = static_cast<int>(t.spans_.size());
  t.spans_.push_back(Span{name, t.parent_, 0, 0});
  t.parent_ = index_;
  t.spans_[index_].start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count();
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count();
  tracer_.parent_ = saved_parent_;
}

double Tracer::self_seconds(const char* name, std::size_t from) const {
  const std::string wanted = name;
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::int64_t total = 0;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (wanted == spans_[i].name) {
      total += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    }
  }
  return static_cast<double>(total) * 1e-9;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}%s\n",
                  s.name, static_cast<double>(s.start_ns - base) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
}

// ---------------------------------------------------------------- report

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every metric the benchmark can print. BENCHMARK.json declares the same
// names with the same units, and every workload prints all of them
// (tests/test_contract.py checks each result line against it).
constexpr MetricDef kMetrics[] = {
    // end to end
    {"setup_s", "s"},
    {"peak_heap_mb", "MB"},
    {"machine_days_per_s", "1/s"},
    {"faulted_machine_days_per_s", "1/s"},
    {"scan_records_per_s", "1/s"},
    {"selective_scan_ms", "ms"},
    {"ingest_events_per_s", "1/s"},
    {"serve_queries_per_s", "1/s"},
    // per layer
    {"workload.synth_ns_per_machine_day", "ns"},
    {"core.walk_ns_per_machine_day", "ns"},
    {"core.faulted_walk_ns_per_machine_day", "ns"},
    {"core.allocs_per_machine_day", "count"},
    {"trace.encode_ns_per_record", "ns"},
    {"trace.bytes_per_record", "B"},
    {"recover.commit_ms_per_shard", "ms"},
    {"obs.telemetry_ns_per_machine_day", "ns"},
    {"fleet.residual_share", "ratio"},
    {"fault.injected_per_machine_day", "count"},
    {"trace.open_ms", "ms"},
    {"query.scan_ns_per_record", "ns"},
    {"query.blocks_skipped_ratio", "ratio"},
    {"query.records_scanned_per_match", "ratio"},
    {"serve.ingest_ns_per_event", "ns"},
    {"serve.publish_us", "us"},
    {"serve.snapshot_swaps", "count"},
    {"serve.query_ns", "ns"},
    {"serve.allocs_per_query", "count"},
    {"read.residual_share", "ratio"},
    {"bench.trace_overhead_share", "ratio"},
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

const char* metric_unit(const std::string& name) {
  for (const auto& m : kMetrics) {
    if (name == m.name) return m.unit;
  }
  throw std::invalid_argument("undeclared metric: " + name);
}

void Report::add(const std::string& name, double value) {
  metric_unit(name);
  if (!std::isfinite(value)) fail("metric " + name + " is not finite");
  for (const auto& m : metrics) {
    if (m.name == name) throw std::logic_error("metric added twice: " + name);
  }
  metrics.push_back(Metric{name, value});
}

void Report::diag(const std::string& key, double value) {
  diagnostics.push_back("\"" + key + "\": " + json_number(value));
}

void Report::fail(const std::string& why) { errors.push_back(why); }

std::uint64_t Report::attempted() const {
  std::uint64_t n = extra_attempted;
  for (const auto& o : ops) n += o.attempted;
  return n;
}

std::uint64_t Report::failed() const {
  std::uint64_t n = extra_failed;
  for (const auto& o : ops) n += o.failed;
  return n;
}

bool Report::correct() const { return failed() == 0 && errors.empty(); }

std::string Report::result_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted());
  out += ", \"failed\": " + std::to_string(failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    if (i > 0) out += ", ";
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    out += "\"" + m.name + "\": {\"value\": " + json_number(v) +
           ", \"unit\": \"" + metric_unit(m.name) + "\"}";
  }
  return out + "}}";
}

std::vector<Summary> record_loop(Report& report, const LoopResult& loop,
                                 double clock_ns, std::size_t min_ops) {
  std::vector<Summary> summaries;
  for (const auto& op : loop.ops) {
    const Summary s = summarize(op.seconds);
    summaries.push_back(s);
    std::printf(
        "op %-16s attempted=%llu failed=%llu n=%zu p10=%.6fs p50=%.6fs "
        "p%g=%.6fs (%zu beyond)\n",
        op.name.c_str(), static_cast<unsigned long long>(op.attempted),
        static_cast<unsigned long long>(op.failed), s.n, s.p10, s.p50,
        s.tail_pct, s.tail, s.beyond_tail);
    if (!op.first_error.empty()) {
      std::fprintf(stderr, "op %s failed: %s\n", op.name.c_str(),
                   op.first_error.c_str());
    }
    report.diag("op." + op.name + ".n", static_cast<double>(s.n));
    report.diag("op." + op.name + ".p10_s", s.p10);
    report.diag("op." + op.name + ".p50_s", s.p50);
    report.diag("op." + op.name + ".tail_pct", s.tail_pct);
    report.diag("op." + op.name + ".tail_s", s.tail);
    OpStats kept = op;
    if (s.n < min_ops) {
      report.fail("op " + op.name + " has " + std::to_string(s.n) +
                  " samples, fewer than " + std::to_string(min_ops));
    } else if (!clears_clock_guard(s.p10, clock_ns)) {
      // A floor this close to the clock's own cost measures the clock:
      // the whole op type fails.
      report.fail("op " + op.name + " floor is below the clock guard");
      kept.failed = kept.attempted;
    }
    report.ops.push_back(std::move(kept));
  }
  const Summary spin = summarize(loop.spin_seconds);
  if (spin.n > 0) {
    report.diag("host.spin_p10_ms", spin.p10 * 1e3);
    report.diag("host.spin_p50_over_p10", spin.p50 / spin.p10);
  }
  report.diag("host.clock_read_ns", clock_ns);
  return summaries;
}

}  // namespace perfbench
