// Measurement core of the benchmark: order statistics, the closed-loop op
// rotation, the host-interference probe, the clock guard, the span tracer
// and the result report.
//
// Host interference on a shared guest only ever adds time to a
// deterministic op, so the benchmark scores each op type by its fast
// decile (p10) over many short ops rather than by a median: the floor
// tracks the program, the median tracks the neighbours.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Heap allocations made by this process so far (counted by the
/// replacement operator new in alloc_count.cpp).
std::uint64_t allocations();

/// Highest number of heap bytes live at once in this process so far (the
/// usable sizes of the blocks the replacement operator new handed out).
std::uint64_t peak_heap_bytes();

// ---------------------------------------------------------------- stats

/// Nearest-rank quantile of an ascending sample: the smallest value with
/// at least q*n samples at or below it. q in (0, 1]; `sorted` non-empty.
double nearest_rank(const std::vector<double>& sorted, double q);

/// The highest of the percentiles 99.9, 99, 95, 90, 75, 50 that leaves at
/// least ten samples strictly beyond its nearest-rank position, or 0 when
/// the sample is too small for any of them.
double tail_percentile(std::size_t n);

struct Summary {
  std::size_t n = 0;
  double p10 = 0.0;
  double p50 = 0.0;
  double tail_pct = 0.0;  // 0 when n is too small for a tail percentile
  double tail = 0.0;
  std::size_t beyond_tail = 0;  // samples ranked above the tail value
};

Summary summarize(std::vector<double> samples);

/// Work units per second at the op floor: `work` done by one op divided
/// by the op type's p10 time.
inline double floor_rate(double work, const Summary& s) {
  return work / s.p10;
}

// ---------------------------------------------------------- clock guard

/// Cost of one steady_clock read, in ns (median of several batches).
double clock_read_ns();

/// An op type's floor must be at least this many clock reads long, so a
/// timing is never dominated by the quantization of the clock itself.
inline constexpr double kClockGuardFactor = 1000.0;

inline bool clears_clock_guard(double floor_s, double clock_ns) {
  return floor_s * 1e9 >= kClockGuardFactor * clock_ns;
}

// ------------------------------------------------------ closed-loop ops

/// One op type of a workload. The loop calls prepare() (untimed), times
/// body(), then calls check() (untimed), which returns an empty string
/// when the op's output is correct and a reason otherwise. An op that
/// throws from any step, or whose check fails, counts as failed and
/// contributes no timing sample.
struct OpType {
  std::string name;
  std::function<void()> prepare;
  std::function<void()> body;
  std::function<std::string()> check;
};

struct OpStats {
  std::string name;
  std::vector<double> seconds;  // one sample per passed timed op
  std::uint64_t attempted = 0;  // warm-up included
  std::uint64_t failed = 0;
  std::string first_error;
};

struct LoopConfig {
  double seconds = 10.0;          // measure at least this long ...
  std::size_t min_ops = 100;      // ... and until every type has this many
  double cap_seconds = 150.0;     // hard stop, whatever the sample count
  /// Optional work run once per rotation, untimed by the loop.
  std::function<void()> per_rotation;
};

struct LoopResult {
  std::vector<OpStats> ops;
  std::vector<double> spin_seconds;  // host probe, one per rotation
};

/// Runs one untimed (but checked) warm-up op per type, then rotates
/// through the types in a fixed order, one probe spin per rotation, so
/// every type samples the same stretches of host noise.
LoopResult run_closed_loop(std::vector<OpType>& types, const LoopConfig& cfg);

/// The fixed host-interference kernel: a dependent integer chain whose
/// work never changes. Returns its wall time in seconds.
double spin_probe();

// ----------------------------------------------------------------- spans

/// In-memory span recorder for the traced run: name, start, end, parent.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;  // index into spans(), -1 for a root
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
    int saved_parent_;
  };

  void clear() { spans_.clear(); parent_ = -1; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of every span named `name` recorded at index `from` or
  /// later, minus the parts of it its child spans cover, summed, in
  /// seconds.
  double self_seconds(const char* name, std::size_t from = 0) const;

  /// Writes the spans as a Chrome trace-event JSON array.
  void write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int parent_ = -1;
};

// ---------------------------------------------------------------- report

/// Unit of a metric the benchmark may print; throws for an unknown name,
/// so nothing undeclared reaches the result line.
const char* metric_unit(const std::string& name);

struct Report {
  struct Metric {
    std::string name;
    double value;
  };
  std::vector<Metric> metrics;
  std::vector<OpStats> ops;
  std::vector<std::string> diagnostics;  // "key": value JSON fragments
  std::uint64_t extra_attempted = 0;     // checked work outside the loop
  std::uint64_t extra_failed = 0;
  std::vector<std::string> errors;

  void add(const std::string& name, double value);
  void diag(const std::string& key, double value);
  void fail(const std::string& why);

  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  bool correct() const;

  /// The final result line: {"correct", "attempted", "failed", "metrics"}.
  std::string result_json() const;
};

/// Folds a finished loop into the report: per-type sample counts and
/// diagnostics (p10, p50, tail percentile), the clock guard, and the host
/// probe. Returns the per-type summaries in loop order.
std::vector<Summary> record_loop(Report& report, const LoopResult& loop,
                                 double clock_ns, std::size_t min_ops);

}  // namespace perfbench
