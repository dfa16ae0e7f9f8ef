// Wall-clock benchmark binary. One run executes one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR [--scale-mult X] [--fault-profile SPEC]
//             [--inject-wrong-reference]
//
// Every result is checked against a reference pair-set digest. Human-
// readable lines (one per metric with its unit and sample count, plus a
// workload description) come first; the last stdout line is the JSON
// result {"correct","attempted","failed","metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer split. See perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/trace.h"
#include "common.h"
#include "workloads.h"

namespace {

using pbsm::perfbench::Args;
using pbsm::perfbench::Report;

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--scale-mult X] "
               "[--fault-profile SPEC] [--inject-wrong-reference]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-wrong-reference") {
      args.wrong_reference = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--scale-mult") {
      args.scale_mult = std::atof(value.c_str());
    } else if (flag == "--fault-profile") {
      args.fault_profile = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (args.workdir.empty()) Usage("--workdir is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  if (!(args.scale_mult > 0 && args.scale_mult <= 1)) {
    Usage("--scale-mult must be in (0, 1]");
  }
  return args;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  // The tracer is on by default; timed runs measure with it off, and the
  // traced run switches it on only around its traced half.
  pbsm::Tracer::Global().set_enabled(false);

  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) Usage("cannot create --workdir " + args.workdir);

  Report report;
  if (args.workload == "fig07_outofcore") {
    report = pbsm::perfbench::RunFig07(args, /*in_memory=*/false);
  } else if (args.workload == "fig07_inmem_4t") {
    report = pbsm::perfbench::RunFig07(args, /*in_memory=*/true);
  } else if (args.workload == "service_mixed") {
    report = pbsm::perfbench::RunServiceMixed(args);
  } else if (args.workload == "service_sharded4") {
    report = pbsm::perfbench::RunServiceSharded(args);
  } else {
    Usage("unknown workload " + args.workload);
  }
  std::filesystem::remove_all(args.workdir, ec);

  if (report.attempted == 0) {
    // Nothing was measured (setup or reference failed): no result line.
    std::fprintf(stderr, "perfbench: no operation ran: %s\n",
                 report.problem.c_str());
    return 1;
  }
  const double error_rate = static_cast<double>(report.failed) /
                            static_cast<double>(report.attempted);
  std::printf("workload %s seed %llu trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::printf("info %s\n", report.info_json.c_str());
  for (const auto& m : report.metrics) {
    std::printf("metric %-40s %14.6g %-6s (n=%llu)\n", m.name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  std::printf("metric %-40s %14.6g %-6s (n=%llu)\n", "error_rate", error_rate,
              "ratio", static_cast<unsigned long long>(report.attempted));
  if (!report.correct) std::printf("problem %s\n", report.problem.c_str());

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : report.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
