// perfbench: one end-to-end benchmark run.
//
//   perfbench --workload <profile_cold|serve_warm|coverage_audit>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Builds the shared set-up, runs the workload for --seconds and prints, as
// the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// splits its time into an untraced and a traced half and reports the
// per-layer metrics of the traced half plus the tracing overhead.
// Check failures go to standard error and make "correct" false.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

using perfbench::Args;
using perfbench::Outcome;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <profile_cold|serve_warm|coverage_audit> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

const char* UnitOf(const std::string& name) {
  if (name == "setup_s") return "s";
  if (name == "requests_per_s") return "1/s";
  if (name == "peak_rss_mb") return "MB";
  if (name == "trace.overhead_pct") return "%";
  if (name == "detect.ns_per_frame") return "ns";
  if (name == "query.hit_ratio") return "ratio";
  if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ms") == 0) return "ms";
  return "count";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::MarkProcessStart();
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      args.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed) return Usage();

  Outcome out;
  if (args.workload == "profile_cold") {
    out = perfbench::RunProfileCold(args);
  } else if (args.workload == "serve_warm") {
    out = perfbench::RunServeWarm(args);
  } else if (args.workload == "coverage_audit") {
    out = perfbench::RunCoverageAudit(args);
  } else {
    return Usage();
  }

  if (args.trace) {
    out.metrics.erase("setup_s");
  } else {
    out.metrics["peak_rss_mb"] = PeakRssMb();
  }
  for (const std::string& failure : out.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.check_failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : out.metrics) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
      return 1;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" + UnitOf(name) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
