// Workload `paper`: the paper's own figure (Fig. 4 / Table 2 protocol).
//
// PA-CGA on Braun u_c_hihi.0 (512x16) with the Table 1 configuration at a
// fixed wall budget, alternating the paper's 3-thread arm with the plain
// 1-thread baseline. All of its work is in support/kernels, cga::Breeder
// and the pacga lock discipline; it bypasses service, cache and edge, so it
// is the "should not move" check for service or edge changes.
//
// The workload is a closed loop of solves: one fixed-budget run_parallel
// call after another. jobs_per_s, sustained_jobs_per_s and latency_* count
// those solves (a closed loop cannot grow a backlog, so its sustained rate
// is its completion rate).
#include <string>

#include "common.hpp"
#include "pacga/parallel_engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Wall budget of one solve. Many short solves, alternating arms, give a
/// median that shrugs off the second-scale speed swings of a shared host.
constexpr double kBudgetS = 0.25;

struct Setup {
  pacga::etc::EtcMatrix etc;
  double lower_bound;
};

/// Instance generation, the lower bound, and a ten-generation warm-up of
/// the 3-thread engine (thread start, Min-min seeding, first sweeps).
Setup set_up(std::uint64_t seed, Report& report) {
  Setup s{paper_instance(), 0.0};
  s.lower_bound = makespan_lower_bound(s.etc);
  pacga::cga::Config config;
  config.seed = seed;
  config.termination = pacga::cga::Termination::after_generations(10);
  const auto r = pacga::par::run_parallel(s.etc, config);
  report.attempt();
  const std::string bad = check_answer(s.etc, r.result.best.assignment(),
                                       r.result.best_fitness, s.lower_bound);
  if (!bad.empty()) report.fail("warm-up " + bad);
  return s;
}

}  // namespace

Arms calibration_arms(std::uint64_t seed, Report& report) {
  const pacga::etc::EtcMatrix etc = paper_instance();
  return run_arms(etc, makespan_lower_bound(etc), mix_seed(seed, 0xca1),
                  kBudgetS,
                  static_cast<std::size_t>(kCalibrationSeconds / (2 * kBudgetS)),
                  report);
}

void run_paper(const Args& args, Report& report) {
  report.busy_threads(3);
  std::vector<double> setups;
  Setup s{paper_instance(), 0.0};
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    s = set_up(mix_seed(args.seed, 1000 + i), report);
    setups.push_back(seconds_since(t0));
  }

  // The traced run splits its time: an untraced half for the overhead
  // reference, then the traced half.
  const double measure_s = args.trace ? args.seconds / 2 : args.seconds;
  const auto rounds = static_cast<std::size_t>(
      std::max(2.0, measure_s / (2 * kBudgetS)));
  const auto t0 = Clock::now();
  const Arms arms = run_arms(s.etc, s.lower_bound, args.seed, kBudgetS,
                             rounds, report);
  const double wall = seconds_since(t0);

  if (!args.trace) {
    report.set("setup_s", median_of(setups).value, "s");
    report_arm_rates(arms, report);
    std::vector<double> ratio, solve_ms;
    for (const ArmRun& r : arms.three) ratio.push_back(r.makespan / s.lower_bound);
    for (const auto* arm : {&arms.three, &arms.one})
      for (const ArmRun& r : *arm) solve_ms.push_back(r.wall_s * 1e3);
    report.set("makespan_ratio", median_of(ratio).value, "ratio");
    const double solves = static_cast<double>(solve_ms.size());
    report.set("jobs_per_s", solves / wall, "jobs/s");
    report.set("sustained_jobs_per_s", solves / wall, "jobs/s");
    report.set("latency_p50_ms", median_of(solve_ms).value, "ms");
    const Quantile tail = p99_or_supported(solve_ms);
    report.set("latency_p99_ms", tail.value, "ms");
    report.note("latency tail: p" + std::to_string(tail.percentile) +
                " of n=" + std::to_string(tail.n) + " solves");
    report.set("peak_rss_mb", peak_rss_mib(), "MiB");
    return;
  }

  // Traced half: a span around every call into a layer. The engine runs
  // are the pacga layer; the probes time single layers on the same matrix.
  SpanLog log;
  const auto epoch = Clock::now();
  const auto ns = [&] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch)
        .count();
  };
  Arms traced;
  for (std::size_t i = 0; i < rounds; ++i) {
    const std::int64_t a = ns();
    Arms one = run_arms(s.etc, s.lower_bound, mix_seed(args.seed, 500 + i),
                        kBudgetS, 1, report);
    const std::int64_t b = ns();
    const std::uint64_t root = log.add(0, i + 1, "solve", a, b);
    log.add(root, i + 1, "pacga.run_parallel", a, b);
    traced.three.push_back(one.three[0]);
    traced.one.push_back(one.one[0]);
  }
  const auto rate3 = [](const Arms& x) {
    std::vector<double> v;
    for (const ArmRun& r : x.three) v.push_back(r.evals_per_s);
    return median_of(v).value;
  };
  report.set("trace.overhead_pct",
             100.0 * (rate3(arms) - rate3(traced)) / rate3(arms), "%");
  report.set("attr.residual_p50", residual_shares(log.spans(), "solve").first,
             "ratio");
  report_pacga_layer(traced, report);

  const KernelProbe k = probe_kernels(s.etc, 0.2);
  report.set("kernels.batch_max_ns_per_elem", k.batch_max_ns_per_elem, "ns");
  report.set("kernels.min_completion_ns_per_elem",
             k.min_completion_ns_per_elem, "ns");
  report.set("kernels.bytes_per_call", k.bytes_per_call, "bytes");
  report.set("cga.breed_us", probe_breed_us(s.etc, args.seed, 0.2), "us");
  std::vector<double> per_thread;
  for (const ArmRun& r : traced.one) per_thread.push_back(r.evals_per_s);
  report.set("cga.evals_per_solve_s", median_of(per_thread).value,
             "evaluations/s");
  report.set("heuristics.min_min_ms", probe_min_min_ms(s.etc, 0.2), "ms");
  if (!log.write_chrome(args.out_dir + "/spans-paper.json"))
    report.note("could not write the span file");
}

}  // namespace perfbench
