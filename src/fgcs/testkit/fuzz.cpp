#include "fgcs/testkit/fuzz.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "fgcs/core/testbed.hpp"
#include "fgcs/fault/fault_plan.hpp"
#include "fgcs/query/predicate.hpp"
#include "fgcs/serve/load.hpp"
#include "fgcs/testkit/diff_oracle.hpp"
#include "fgcs/trace/io.hpp"
#include "fgcs/util/cli.hpp"
#include "fgcs/util/error.hpp"
#include "fgcs/util/rng.hpp"

namespace fgcs::testkit {

namespace {

/// "FUZZ": substream tag for mutation draws.
constexpr std::uint64_t kFuzzTag = 0x4655'5A5A;

/// Inputs are capped so pathological growth chains stay cheap.
constexpr std::size_t kMaxInputBytes = 1 << 14;

std::string to_text(const std::uint8_t* data, std::size_t size) {
  return std::string(reinterpret_cast<const char*>(data), size);
}

[[noreturn]] void finding(const std::string& what) {
  // Deliberately NOT IoError/ConfigError: escapes the target's catch
  // blocks and reaches the driver as a crash.
  throw std::logic_error("fuzz finding: " + what);
}

bool traces_identical(const trace::TraceSet& a, const trace::TraceSet& b) {
  if (a.machine_count() != b.machine_count() ||
      a.horizon_start() != b.horizon_start() ||
      a.horizon_end() != b.horizon_end() || a.size() != b.size()) {
    return false;
  }
  const auto ra = a.records();
  const auto rb = b.records();
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (ra[i].machine != rb[i].machine || ra[i].start != rb[i].start ||
        ra[i].end != rb[i].end || ra[i].cause != rb[i].cause ||
        ra[i].host_cpu != rb[i].host_cpu ||
        ra[i].free_mem_mb != rb[i].free_mem_mb) {
      return false;
    }
  }
  return true;
}

}  // namespace

void fuzz_trace_csv(const std::uint8_t* data, std::size_t size) {
  const std::string text = to_text(data, size);

  // Strict path: IoError is the contract for bad input; success must
  // round-trip exactly through the writer.
  try {
    std::istringstream in(text);
    const trace::TraceSet parsed = trace::read_trace_csv(in, "<fuzz>");
    std::ostringstream out;
    trace::write_trace_csv(parsed, out);
    std::istringstream again(out.str());
    if (!traces_identical(parsed, trace::read_trace_csv(again, "<fuzz2>"))) {
      finding("CSV strict read -> write -> read is not a fixpoint");
    }
  } catch (const IoError&) {
  }

  // Salvage path: never throws, and salvaging its own re-serialization
  // must be clean and lossless.
  std::istringstream in(text);
  const trace::LoadReport report = trace::read_trace_csv_salvage(in, "<fuzz>");
  std::ostringstream out;
  trace::write_trace_csv(report.trace, out);
  std::istringstream again(out.str());
  const trace::LoadReport second =
      trace::read_trace_csv_salvage(again, "<fuzz2>");
  if (!second.clean()) {
    finding("salvaged CSV trace did not re-salvage cleanly");
  }
  if (!traces_identical(report.trace, second.trace)) {
    finding("CSV salvage -> write -> salvage changed the trace");
  }
}

void fuzz_trace_binary(const std::uint8_t* data, std::size_t size) {
  const std::string bytes = to_text(data, size);

  try {
    std::istringstream in(bytes);
    const trace::TraceSet parsed = trace::read_trace_binary(in, "<fuzz>");
    std::ostringstream out;
    trace::write_trace_binary(parsed, out);
    std::istringstream again(out.str());
    if (!traces_identical(parsed,
                          trace::read_trace_binary(again, "<fuzz2>"))) {
      finding("binary strict read -> write -> read is not a fixpoint");
    }
  } catch (const IoError&) {
  }

  std::istringstream in(bytes);
  const trace::LoadReport report =
      trace::read_trace_binary_salvage(in, "<fuzz>");
  std::ostringstream out;
  trace::write_trace_binary(report.trace, out);
  std::istringstream again(out.str());
  const trace::LoadReport second =
      trace::read_trace_binary_salvage(again, "<fuzz2>");
  if (!second.clean()) {
    finding("salvaged binary trace did not re-salvage cleanly");
  }
  if (!traces_identical(report.trace, second.trace)) {
    finding("binary salvage -> write -> salvage changed the trace");
  }
}

void fuzz_fault_plan(const std::uint8_t* data, std::size_t size) {
  const std::string text = to_text(data, size);
  fault::FaultPlan plan;
  try {
    plan = fault::FaultPlan::parse_string(text);
    plan.validate();
  } catch (const ConfigError&) {
    return;  // rejected input: the expected outcome for junk
  }
  // Accepted input: serialization must be a parser fixpoint.
  const std::string written = plan.str();
  fault::FaultPlan reparsed;
  try {
    reparsed = fault::FaultPlan::parse_string(written);
  } catch (const ConfigError& e) {
    finding(std::string("writer emitted an unparseable plan: ") + e.what());
  }
  if (reparsed.str() != written) {
    finding("fault plan write -> parse -> write is not a fixpoint");
  }
  // Accepted plan: the production walk and the reference walk must agree
  // on a 1-machine x 1-day testbed running it.
  core::TestbedConfig config;
  config.machines = 1;
  config.days = 1;
  config.faults = plan;
  const DiffResult diff = diff_testbed_walks(config);
  if (!diff.match) finding("faulted walk vs reference: " + diff.detail);
}

void fuzz_cli_args(const std::uint8_t* data, std::size_t size) {
  const std::string text = to_text(data, size);
  std::vector<std::string> tokens;
  std::istringstream in(text);
  std::string token;
  while (in >> token) tokens.push_back(token);

  util::CliArgs args;
  try {
    args = util::CliArgs::parse(tokens);
  } catch (const ConfigError&) {
    return;  // malformed option syntax: the documented rejection path
  }
  (void)args.command();
  (void)args.positional();
  // Poke the typed accessors with keys the fuzzer likes to synthesize;
  // ConfigError on a malformed integer is the documented behavior.
  for (const char* key : {"seed", "machines", "days", "out", "fault-plan"}) {
    (void)args.get(key, "");
    (void)args.has_flag(key);
    try {
      (void)args.get_int(key, 0);
    } catch (const ConfigError&) {
    }
  }
}

void fuzz_serve_query(const std::uint8_t* data, std::size_t size) {
  const std::string text = to_text(data, size);

  // The mix sub-grammar alone, fed the first line: ConfigError with a
  // field diagnosis is the contract for junk; an accepted mix must
  // round-trip through str() as a parser fixpoint.
  {
    const std::size_t eol = text.find('\n');
    const std::string first =
        eol == std::string::npos ? text : text.substr(0, eol);
    try {
      const serve::MixSpec mix = serve::MixSpec::parse(first);
      serve::MixSpec reparsed;
      try {
        reparsed = serve::MixSpec::parse(mix.str());
      } catch (const ConfigError& e) {
        finding(std::string("MixSpec::str emitted an unparseable mix: ") +
                e.what());
      }
      if (reparsed.str() != mix.str()) {
        finding("mix spec parse -> str -> parse is not a fixpoint");
      }
    } catch (const ConfigError&) {
    }
  }

  // The full load-spec surface (the bytes behind the CLI's --mix /
  // --machines / --queries arguments and the serve config file).
  serve::LoadSpec spec;
  try {
    spec = serve::LoadSpec::parse(text);
  } catch (const ConfigError&) {
    return;  // line/field-diagnosed rejection: the documented path
  }
  const std::string written = spec.str();
  serve::LoadSpec reparsed;
  try {
    reparsed = serve::LoadSpec::parse(written);
  } catch (const ConfigError& e) {
    finding(std::string("LoadSpec::str emitted an unparseable spec: ") +
            e.what());
  }
  if (reparsed.str() != written) {
    finding("load spec parse -> str -> parse is not a fixpoint");
  }

  // Accepted spec: a bounded generator probe. Every drawn query must
  // respect the spec's own bounds; the draw is random-access so probing
  // scattered indices is cheap regardless of spec.queries.
  const serve::LoadGenerator gen(spec);
  const std::uint64_t probes = std::min<std::uint64_t>(spec.queries, 64);
  for (std::uint64_t i = 0; i < probes; ++i) {
    const std::uint64_t index = (i * 977) % spec.queries;
    const serve::ServeQuery q = gen.query(index);
    if (q.machine >= spec.machines) {
      finding("generated query targets a machine outside the fleet");
    }
    if (!(q.window > sim::SimDuration{})) {
      finding("generated query has a non-positive window");
    }
    const serve::ServeQuery again = gen.query(index);
    if (again.machine != q.machine || again.at != q.at ||
        again.window != q.window) {
      finding("load generator is not deterministic in the query index");
    }
  }
}

void fuzz_query_pred(const std::uint8_t* data, std::size_t size) {
  const std::string text = to_text(data, size);
  query::Predicate pred;
  try {
    pred = query::Predicate::parse(text);
  } catch (const ConfigError&) {
    return;  // diagnosed rejection: the documented path
  }

  // Accepted predicate: str() must be a parser fixpoint.
  const std::string written = pred.str();
  query::Predicate reparsed;
  try {
    reparsed = query::Predicate::parse(written);
  } catch (const ConfigError& e) {
    finding(std::string("Predicate::str emitted an unparseable predicate: ") +
            e.what());
  }
  if (reparsed.str() != written) {
    finding("predicate parse -> str -> parse is not a fixpoint");
  }

  // Eval consistency on a probe grid clustered at the predicate's own
  // boundaries: the reparsed predicate must agree record-for-record, and
  // block-level pruning must never contradict a record-level match (a
  // zone summarizing exactly one matching record may not be prunable).
  const std::uint32_t machine_probes[] = {
      0, 1, pred.machine_lo, pred.machine_hi,
      pred.machine_hi == 0 ? 0 : pred.machine_hi - 1, 0xFFFF'FFFFu};
  const std::int64_t time_probes[] = {
      pred.time_lo_us, pred.time_hi_us, pred.time_lo_us - 1,
      pred.time_hi_us + 1, 0, 86'400'000'000};
  for (const std::uint32_t m : machine_probes) {
    for (const std::int64_t start : time_probes) {
      const std::int64_t end = start + 1'800'000'000;
      for (std::uint8_t cause = 3; cause <= 5; ++cause) {
        const bool hit = pred.matches(m, start, end, cause);
        if (hit != reparsed.matches(m, start, end, cause)) {
          finding("reparsed predicate disagrees with the original");
        }
        if (!hit) continue;
        if (!pred.may_match_machines(m, m)) {
          finding("machine pruning contradicts a record match");
        }
        trace::TraceView::BlockZone zone;
        zone.min_start_us = start;
        zone.max_start_us = start;
        zone.min_end_us = end;
        zone.max_end_us = end;
        zone.cause_mask = static_cast<std::uint8_t>(1u << (cause - 3));
        if (!pred.may_match_zone(zone)) {
          finding("zone pruning contradicts a record match");
        }
      }
    }
  }
}

std::span<const FuzzTargetInfo> fuzz_targets() {
  static constexpr FuzzTargetInfo kTargets[] = {
      {"trace-csv", fuzz_trace_csv, "trace_csv"},
      {"trace-binary", fuzz_trace_binary, "trace_binary"},
      {"fault-plan", fuzz_fault_plan, "fault_plan"},
      {"cli-args", fuzz_cli_args, "cli"},
      {"serve-query", fuzz_serve_query, "serve_query"},
      {"query-pred", fuzz_query_pred, "query_pred"},
  };
  return kTargets;
}

const FuzzTargetInfo* find_fuzz_target(std::string_view name) {
  for (const auto& target : fuzz_targets()) {
    if (name == target.name) return &target;
  }
  return nullptr;
}

std::vector<std::vector<std::uint8_t>> load_corpus(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    throw IoError("fuzz corpus directory missing: " + dir);
  }
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::vector<std::uint8_t>> corpus;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw IoError("cannot read corpus file: " + path.string());
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    corpus.push_back(std::move(bytes));
  }
  if (corpus.empty()) throw IoError("fuzz corpus is empty: " + dir);
  return corpus;
}

namespace {

using Bytes = std::vector<std::uint8_t>;

void op_bit_flip(Bytes& b, util::RngStream& rng) {
  if (b.empty()) return;
  const std::size_t i = rng.uniform_index(b.size());
  b[i] ^= static_cast<std::uint8_t>(1u << rng.uniform_index(8));
}

void op_overwrite(Bytes& b, util::RngStream& rng) {
  if (b.empty()) return;
  b[rng.uniform_index(b.size())] =
      static_cast<std::uint8_t>(rng.uniform_index(256));
}

void op_insert(Bytes& b, util::RngStream& rng) {
  const std::size_t n = 1 + rng.uniform_index(8);
  const std::size_t at = rng.uniform_index(b.size() + 1);
  Bytes chunk(n);
  for (auto& c : chunk) {
    // Bias toward structure-relevant bytes: digits, separators, newlines.
    static constexpr char kAlphabet[] = "0123456789,=.*-# \n";
    c = rng.bernoulli(0.7)
            ? static_cast<std::uint8_t>(
                  kAlphabet[rng.uniform_index(sizeof(kAlphabet) - 1)])
            : static_cast<std::uint8_t>(rng.uniform_index(256));
  }
  b.insert(b.begin() + static_cast<std::ptrdiff_t>(at), chunk.begin(),
           chunk.end());
}

void op_erase(Bytes& b, util::RngStream& rng) {
  if (b.empty()) return;
  const std::size_t at = rng.uniform_index(b.size());
  const std::size_t n = 1 + rng.uniform_index(std::min<std::size_t>(
                                b.size() - at, 16));
  b.erase(b.begin() + static_cast<std::ptrdiff_t>(at),
          b.begin() + static_cast<std::ptrdiff_t>(at + n));
}

void op_duplicate(Bytes& b, util::RngStream& rng) {
  if (b.empty()) return;
  const std::size_t at = rng.uniform_index(b.size());
  const std::size_t n = 1 + rng.uniform_index(std::min<std::size_t>(
                                b.size() - at, 32));
  Bytes chunk(b.begin() + static_cast<std::ptrdiff_t>(at),
              b.begin() + static_cast<std::ptrdiff_t>(at + n));
  const std::size_t dest = rng.uniform_index(b.size() + 1);
  b.insert(b.begin() + static_cast<std::ptrdiff_t>(dest), chunk.begin(),
           chunk.end());
}

void op_truncate(Bytes& b, util::RngStream& rng) {
  if (b.empty()) return;
  b.resize(rng.uniform_index(b.size()));
}

void op_splice(Bytes& b, const Bytes& other, util::RngStream& rng) {
  if (other.empty()) return;
  const std::size_t keep = b.empty() ? 0 : rng.uniform_index(b.size());
  const std::size_t from = rng.uniform_index(other.size());
  b.resize(keep);
  b.insert(b.end(), other.begin() + static_cast<std::ptrdiff_t>(from),
           other.end());
}

/// Structure-aware: find an ASCII digit run and replace it with a fresh
/// number (possibly huge or negative) — exercises integer/double parsing
/// edges far faster than blind byte noise.
void op_rewrite_number(Bytes& b, util::RngStream& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  std::size_t i = 0;
  while (i < b.size()) {
    if (std::isdigit(b[i]) != 0) {
      std::size_t j = i;
      while (j < b.size() && std::isdigit(b[j]) != 0) ++j;
      runs.emplace_back(i, j);
      i = j;
    } else {
      ++i;
    }
  }
  if (runs.empty()) return;
  const auto [lo, hi] = runs[rng.uniform_index(runs.size())];
  std::string fresh;
  switch (rng.uniform_index(4)) {
    case 0: fresh = std::to_string(rng.uniform_int(0, 9)); break;
    case 1: fresh = std::to_string(rng.next_u64()); break;
    case 2: fresh = "-" + std::to_string(rng.uniform_int(0, 1'000'000)); break;
    default:
      fresh = std::to_string(rng.uniform_int(0, 1'000'000)) + "." +
              std::to_string(rng.uniform_int(0, 999));
      break;
  }
  b.erase(b.begin() + static_cast<std::ptrdiff_t>(lo),
          b.begin() + static_cast<std::ptrdiff_t>(hi));
  b.insert(b.begin() + static_cast<std::ptrdiff_t>(lo), fresh.begin(),
           fresh.end());
}

}  // namespace

std::vector<std::uint8_t> mutate_input(const std::vector<std::uint8_t>& base,
                                       const std::vector<std::uint8_t>& other,
                                       std::uint64_t seed,
                                       std::uint64_t iteration) {
  util::RngStream rng(seed, {kFuzzTag, iteration});
  Bytes bytes = base;
  const std::size_t ops = 1 + rng.uniform_index(4);
  for (std::size_t i = 0; i < ops; ++i) {
    switch (rng.uniform_index(8)) {
      case 0: op_bit_flip(bytes, rng); break;
      case 1: op_overwrite(bytes, rng); break;
      case 2: op_insert(bytes, rng); break;
      case 3: op_erase(bytes, rng); break;
      case 4: op_duplicate(bytes, rng); break;
      case 5: op_truncate(bytes, rng); break;
      case 6: op_splice(bytes, other, rng); break;
      default: op_rewrite_number(bytes, rng); break;
    }
    if (bytes.size() > kMaxInputBytes) bytes.resize(kMaxInputBytes);
  }
  return bytes;
}

FuzzRunStats run_fuzz_iterations(
    const FuzzTargetInfo& target,
    std::span<const std::vector<std::uint8_t>> corpus, std::uint64_t seed,
    std::uint64_t iterations) {
  FuzzRunStats stats;
  for (const auto& entry : corpus) {
    target.fn(entry.data(), entry.size());
    ++stats.corpus_entries;
    stats.max_input_bytes = std::max(stats.max_input_bytes,
                                     static_cast<std::uint64_t>(entry.size()));
  }
  const Bytes empty;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    util::RngStream pick(seed, {kFuzzTag, i, 0xBA5E});
    const Bytes& base =
        corpus.empty() ? empty : corpus[pick.uniform_index(corpus.size())];
    const Bytes& other =
        corpus.empty() ? empty : corpus[pick.uniform_index(corpus.size())];
    const Bytes input = mutate_input(base, other, seed, i);
    target.fn(input.data(), input.size());
    ++stats.iterations;
    stats.max_input_bytes = std::max(stats.max_input_bytes,
                                     static_cast<std::uint64_t>(input.size()));
  }
  return stats;
}

}  // namespace fgcs::testkit
