// perfbench — the repository's benchmark: the paper figure and the service
// figure from one harness.
//
//   perfbench --workload paper|service_mixed|edge_cached --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]
//
// --trace 0 measures the end-to-end metrics with no benchmark spans;
// --trace 1 runs the workload untraced and then traced (half the time
// each) and reports the per-layer metrics, the attribution residual and
// the tracing overhead. Every answer is checked; any failure makes the run
// exit 1. The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "support/kernels.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Report;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, reported by every workload (README.md says
/// what each means on each workload).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"evals_per_s", "evaluations/s"},
    {"makespan_ratio", "ratio"},
    {"jobs_per_s", "jobs/s"},
    {"sustained_jobs_per_s", "jobs/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

/// Every per-layer metric. A workload that does not exercise a layer
/// reports 0 for it.
constexpr MetricSpec kPerLayer[] = {
    {"kernels.batch_max_ns_per_elem", "ns"},
    {"kernels.min_completion_ns_per_elem", "ns"},
    {"kernels.bytes_per_call", "bytes"},
    {"cga.breed_us", "us"},
    {"cga.evals_per_solve_s", "evaluations/s"},
    {"pacga.evals_per_s_1t", "evaluations/s"},
    {"pacga.replace_ratio", "ratio"},
    {"pacga.thread_imbalance", "ratio"},
    {"pacga.generations", "count"},
    {"heuristics.min_min_ms", "ms"},
    {"service.submit_us", "us"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.queue_wait_ms_p99", "ms"},
    {"service.steal_ratio", "ratio"},
    {"service.refused", "count"},
    {"service.solve_ms_p50", "ms"},
    {"service.solve_ms_p99", "ms"},
    {"service.arena_builds_per_job", "ratio"},
    {"service.worker_share_max", "ratio"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.cache_probe_us", "us"},
    {"service.retries", "count"},
    {"service.stalled", "count"},
    {"service.worker_restarts", "count"},
    {"net.admit_ms_p50", "ms"},
    {"net.admit_ms_p99", "ms"},
    {"net.result_ms_p50", "ms"},
    {"net.result_ms_p99", "ms"},
    {"net.bytes_in_per_job", "bytes"},
    {"net.bytes_out_per_job", "bytes"},
    {"net.busy_replies", "count"},
    {"loadgen.late_ms_p99", "ms"},
    {"loadgen.late_ms_max", "ms"},
    {"attr.residual_p50", "ratio"},
    {"attr.residual_p99", "ratio"},
    {"trace.overhead_pct", "%"},
    {"obs.spans_dropped", "count"},
};

perfbench::Args parse(int argc, char** argv, std::string& git_sha) {
  perfbench::Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds >= 1.0 && a.seconds <= 120.0))
    throw std::invalid_argument("--seconds must be in [1, 120]");
  if (a.out_dir.empty()) a.out_dir.assign(1, '.');
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  std::string git_sha = "unknown";
  perfbench::Args args;
  try {
    args = parse(argc, argv, git_sha);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }

  Report report;
  try {
    if (args.workload == "paper") {
      perfbench::run_paper(args, report);
    } else if (args.workload == "service_mixed") {
      perfbench::run_service_mixed(args, report);
    } else if (args.workload == "edge_cached") {
      perfbench::run_edge_cached(args, report);
    } else {
      std::cerr << "perfbench: unknown workload " << args.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  const unsigned cores = std::thread::hardware_concurrency();
  const bool noise = report.busy_threads() > cores;
  bool obs = true, failpoints = true;
#if defined(PACGA_NO_OBS)
  obs = false;
#endif
#if defined(PACGA_NO_FAILPOINTS)
  failpoints = false;
#endif
  std::cout << "stamp {\"cpu\": " << json_string(cpu_model())
            << ", \"nproc\": " << cores << ", \"kernel_tier\": \""
            << pacga::support::kernels::active_dispatch()
            << "\", \"git_sha\": " << json_string(git_sha)
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"obs\": " << (obs ? "true" : "false")
            << ", \"failpoints\": " << (failpoints ? "true" : "false")
            << ", \"busy_threads\": " << report.busy_threads()
            << ", \"noise\": " << (noise ? "true" : "false")
            << ", \"workload\": " << json_string(args.workload)
            << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
            << ", \"trace\": " << (args.trace ? 1 : 0) << "}\n";
  if (noise)
    std::cout << "NOISE: " << report.busy_threads()
              << " busy threads exceed " << cores << " cores\n";
  for (const std::string& n : report.notes()) std::cout << "note " << n << "\n";
  for (const std::string& f : report.failures())
    std::cout << "FAILED " << f << "\n";

  // The metric set of this mode, in a fixed order; end-to-end metrics must
  // all be measured, per-layer ones default to 0 (layer not exercised).
  std::ostringstream metrics;
  metrics << std::setprecision(17);
  bool first = true;
  bool complete = true;
  for (const MetricSpec& m : args.trace ? std::span<const MetricSpec>(kPerLayer)
                                        : std::span<const MetricSpec>(kEndToEnd)) {
    const auto it = report.metrics().find(m.name);
    double value = 0.0;
    if (it != report.metrics().end()) {
      value = it->second.first;
      if (it->second.second != m.unit) {
        std::cerr << "perfbench: " << m.name << " reported in "
                  << it->second.second << ", declared " << m.unit << "\n";
        complete = false;
      }
    } else if (!args.trace) {
      std::cerr << "perfbench: " << m.name << " was not measured\n";
      complete = false;
    }
    if (!std::isfinite(value)) {
      std::cerr << "perfbench: " << m.name << " is not finite\n";
      complete = false;
      value = 0.0;
    }
    std::cout << "metric " << m.name << " " << std::setprecision(6) << value
              << " " << m.unit << "\n";
    metrics << (first ? "" : ", ") << "\"" << m.name
            << "\": {\"value\": " << std::setprecision(17) << value
            << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  if (!complete) return 1;

  const double failed_ratio =
      report.attempted()
          ? static_cast<double>(report.failed()) /
                static_cast<double>(report.attempted())
          : 0.0;
  std::cout << "metric failed_ratio " << failed_ratio << " ratio (failed "
            << report.failed() << " of " << report.attempted() << ")\n";
  const bool correct = report.failed() == 0 && report.attempted() > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted()
            << ", \"failed\": " << report.failed() << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}
