// emsbench: runs one named workload against the EMSentry library, checks its
// outputs, and prints
//   * one `# header {...}` line describing the run (hardware, build, seed,
//     trace shapes, thread counts, snapshot filesystem),
//   * one readable `name value unit` line per figure,
//   * as its last line, one JSON object {"correct", "attempted", "failed",
//     "metrics"} holding every figure; emsbench/run.py narrows it to the
//     metrics BENCHMARK.json names.
// With --trace 1 the spans recorded around each layer call are written to
// <out-dir>/spans_<workload>_<seed>.csv.
//
// Exit codes: 0 = outputs correct, 1 = a correctness check failed,
// 2 = usage error or the run could not complete.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/alloc_counter.hpp"
#include "workloads.hpp"

#ifndef EMSBENCH_BUILD_TYPE
#define EMSBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace emsbench;

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

void print_result(const Args& args, Result& result) {
  result.describe_str("workload", args.workload);
  result.describe_num("seed", static_cast<double>(args.seed));
  result.describe_num("seconds", args.seconds);
  result.describe_num("trace", args.trace ? 1 : 0);
  result.describe_num("hardware_threads", std::thread::hardware_concurrency());
  result.describe_num("max_threads", kMaxThreads);
  result.describe_str("build_type", EMSBENCH_BUILD_TYPE);
  result.describe_str("git_rev", args.git_rev);
  result.describe_str("alloc_counting", emts::util::alloc::counting_active() ? "on" : "off");

  std::string header = "# header {";
  bool first = true;
  for (const auto& [key, value] : result.header) {
    header += (first ? "\"" : ", \"") + key + "\": " + value;
    first = false;
  }
  std::printf("%s}\n", header.c_str());
  for (const std::string& problem : result.problems) std::printf("# FAILED %s\n", problem.c_str());
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%-40s %16.6f %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }

  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  first = true;
  for (const auto& [name, metric] : result.metrics) {
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + json_number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    std::filesystem::create_directories(args.out_dir);
    SpanRecorder spans{args.trace};
    Result result;
    if (args.workload == "monitor_stream") {
      result = run_monitor_stream(args, spans);
    } else if (args.workload == "serve_fleet") {
      result = run_serve_fleet(args, spans);
    } else if (args.workload == "serve_small_frames") {
      result = run_serve_small_frames(args, spans);
    } else if (args.workload == "array_localize") {
      result = run_array_localize(args, spans);
    } else {
      std::fprintf(stderr, "emsbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    if (args.trace) {
      const std::string path = args.out_dir + "/spans_" + args.workload + "_" +
                               std::to_string(args.seed) + ".csv";
      spans.write_csv(path);
      result.describe_str("spans_file", path);
      result.describe_num("spans", static_cast<double>(spans.size()));
    }
    print_result(args, result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "emsbench: %s\n", e.what());
    return 2;
  }
}
