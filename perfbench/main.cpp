// The benchmark binary: runs one workload for one seed and prints
// a human-readable breakdown followed by one JSON document on the last
// line (header, every metric with its unit, checks, tracing summary).
//
//   nmo_perfbench --workload capture-pagerank|sweep-cfd|archive --seed N
//                 --seconds S --workdir DIR [--trace-out FILE]
//
// With --trace-out the run records spans (set-up always, timed rounds
// alternately) and writes them to FILE as Chrome trace-event JSON.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>

#include "harness.hpp"
#include "sys/topology.hpp"
#include "workloads.hpp"

#ifndef NMO_BENCH_COMPILER
#define NMO_BENCH_COMPILER "unknown"
#endif
#ifndef NMO_BENCH_BUILD_TYPE
#define NMO_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Bench;

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c >= 0x20) ? c : ' ';
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: nmo_perfbench --workload capture-pagerank|sweep-cfd|archive --seed N "
               "--seconds S --workdir DIR [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }
  if (workload.empty() || options.workdir.empty() || options.seconds <= 0.0) return usage();

  Bench bench(!trace_out.empty());
  std::filesystem::create_directories(options.workdir);
  if (workload == "capture-pagerank") {
    perfbench::run_capture_pagerank(bench, options);
  } else if (workload == "sweep-cfd") {
    perfbench::run_sweep_cfd(bench, options);
  } else if (workload == "archive") {
    perfbench::run_archive(bench, options);
  } else {
    return usage();
  }
  bench.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  const char* primary = workload == "capture-pagerank" ? "capture"
                        : workload == "sweep-cfd"      ? "sweep"
                                                       : "archive";
  bench.metric("trace.overhead_pct", bench.tracing_overhead_pct(primary), "%");
  bench.metric("trace.spans", static_cast<double>(bench.tracer.spans()), "count");

  bool trace_written = true;
  if (!trace_out.empty()) {
    trace_written = bench.tracer.write_chrome_json(trace_out);
    bench.check(trace_written, "trace-event JSON written to " + trace_out);
  }

  for (const auto& [name, metric] : bench.metrics()) {
    std::printf("%-44s %16.6f %s\n", name.c_str(), metric.first, metric.second.c_str());
  }
  for (const auto& [stage, walls] : bench.round_walls()) {
    std::printf("rounds %-12s %2zu:", stage.c_str(), walls.size());
    for (const double w : walls) std::printf(" %.3f", w);
    std::printf(" s\n");
  }
  for (const auto& failure : bench.failures()) std::printf("FAILED: %s\n", failure.c_str());

  const auto topology = nmo::sys::CpuTopology::discover();
  std::string out = "{\"header\": {\"compiler\": " + json_string(NMO_BENCH_COMPILER) +
                    ", \"build_type\": " + json_string(NMO_BENCH_BUILD_TYPE) +
                    ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                    ", \"numa_nodes\": " + std::to_string(topology.num_nodes()) +
                    ", \"workload\": " + json_string(workload) +
                    ", \"seed\": " + std::to_string(options.seed) +
                    ", \"seconds\": " + json_number(options.seconds) + "}, \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : bench.metrics()) {
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
           json_number(metric.first) + ", \"unit\": " + json_string(metric.second) + "}";
    first = false;
  }
  out += "}, \"span_layers\": [";
  first = true;
  for (const auto& layer : bench.tracer.layers()) {
    out += (first ? "" : ", ") + json_string(layer);
    first = false;
  }
  out += "], \"attempted\": " + std::to_string(bench.attempted()) +
         ", \"failed\": " + std::to_string(bench.failed()) + ", \"failures\": [";
  first = true;
  for (const auto& failure : bench.failures()) {
    out += (first ? "" : ", ") + json_string(failure);
    first = false;
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return bench.failed() == 0 && trace_written ? 0 : 1;
}
