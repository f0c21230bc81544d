// Structure-aware fuzz targets for the parsing surfaces.
//
// Each target is *total* over arbitrary bytes: expected parse failures
// (IoError, ConfigError) are caught inside the target; anything that
// escapes — any other exception, an FGCS_ASSERT, a sanitizer report — is
// a finding. On a successful parse the targets additionally check
// round-trip properties (parse → write → parse must be stable, salvage of
// a salvaged trace must be clean), so the fuzzer hunts semantic
// inconsistencies, not just crashes.
//
// Two drivers share these targets:
//   * libFuzzer entry points when built with Clang and -DFGCS_FUZZ=ON
//     (see tests/fuzz/libfuzzer_entry.cpp);
//   * the deterministic corpus-mutation driver (tests/fuzz/fuzz_driver.cpp)
//     on any toolchain — it replays the checked-in corpus, then runs
//     seeded structure-aware mutations for a bounded iteration count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fgcs::testkit {

/// Trace CSV reader pair (strict + salvage) with round-trip checks.
void fuzz_trace_csv(const std::uint8_t* data, std::size_t size);

/// Trace binary reader pair (strict + salvage) with round-trip checks.
void fuzz_trace_binary(const std::uint8_t* data, std::size_t size);

/// fault::FaultPlan text parser with write/parse idempotence check; every
/// accepted plan must also give identical records, transitions, gaps,
/// counters and flight captures from the production walk and the testkit
/// reference walk on a 1-machine x 1-day testbed.
void fuzz_fault_plan(const std::uint8_t* data, std::size_t size);

/// util::CliArgs tokenizer/lookup surface.
void fuzz_cli_args(const std::uint8_t* data, std::size_t size);

/// serve::LoadSpec / serve::MixSpec query-surface parsers with str()
/// fixpoint checks and a bounded LoadGenerator probe on accepted specs.
void fuzz_serve_query(const std::uint8_t* data, std::size_t size);

/// query::Predicate text parser: str() fixpoint, reparse/eval agreement,
/// and zone/machine pruning soundness against matching records.
void fuzz_query_pred(const std::uint8_t* data, std::size_t size);

struct FuzzTargetInfo {
  const char* name;
  void (*fn)(const std::uint8_t* data, std::size_t size);
  /// Corpus directory name under tests/fuzz/corpus/.
  const char* corpus_subdir;
};

/// All registered targets.
std::span<const FuzzTargetInfo> fuzz_targets();

/// Lookup by name; nullptr when unknown.
const FuzzTargetInfo* find_fuzz_target(std::string_view name);

/// Loads every regular file in `dir` (sorted by filename, so corpus order
/// is stable across platforms). Throws IoError when the directory is
/// missing or holds no files — an empty corpus is a harness misconfig.
std::vector<std::vector<std::uint8_t>> load_corpus(const std::string& dir);

/// One structure-aware mutation of `base` (bit flips, splices against
/// `other`, ASCII-number rewrites, truncations...), deterministic in the
/// RNG state. Exposed for the driver and for tests.
std::vector<std::uint8_t> mutate_input(const std::vector<std::uint8_t>& base,
                                       const std::vector<std::uint8_t>& other,
                                       std::uint64_t seed,
                                       std::uint64_t iteration);

struct FuzzRunStats {
  std::uint64_t iterations = 0;       // mutated executions
  std::uint64_t corpus_entries = 0;   // replayed verbatim first
  std::uint64_t max_input_bytes = 0;
};

/// Replays the corpus verbatim, then runs `iterations` seeded mutations
/// through the target. Any escaping exception propagates to the caller
/// (the driver turns it into a crash report with the replay seed).
FuzzRunStats run_fuzz_iterations(
    const FuzzTargetInfo& target,
    std::span<const std::vector<std::uint8_t>> corpus, std::uint64_t seed,
    std::uint64_t iterations);

}  // namespace fgcs::testkit
