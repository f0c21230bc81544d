// The benchmark binary. Usage:
//
//   perfbench --workload <purdue|enterprise> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir> --inputs <dir>
//
// Prints one line per op type, a diagnostics JSON line, and as its last
// line the result object {"correct", "attempted", "failed", "metrics"}.
// Exits 0 when the run completed (even if an output check failed: the
// result line says so), 2 on bad arguments or an aborted run.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> --inputs <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (arg == "--work-dir") {
        opt.work_dir = value;
      } else if (arg == "--inputs") {
        opt.inputs_dir = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed || opt.work_dir.empty() ||
      opt.inputs_dir.empty() || !(opt.seconds > 0.0)) {
    return usage("--workload, --seed, --seconds, --work-dir and --inputs are required");
  }

  namespace fs = std::filesystem;
  int rc = 0;
  try {
    fs::remove_all(opt.work_dir);
    fs::create_directories(opt.work_dir);
    const perfbench::Report report = perfbench::run_workload(opt);
    for (const auto& e : report.errors) std::fprintf(stderr, "perfbench: %s\n", e.c_str());
    std::string diag = "{\"diagnostics\": {";
    for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
      diag += (i > 0 ? ", " : "") + report.diagnostics[i];
    }
    std::printf("%s}}\n", diag.c_str());
    std::printf("%s\n", report.result_json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    rc = 2;
  }
  std::error_code ec;
  fs::remove_all(opt.work_dir, ec);
  std::fflush(stdout);
  return rc;
}
