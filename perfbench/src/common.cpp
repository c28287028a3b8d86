#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "cga/breeder.hpp"
#include "cga/config.hpp"
#include "cga/grid.hpp"
#include "cga/population.hpp"
#include "etc/suite.hpp"
#include "heuristics/minmin.hpp"
#include "pacga/parallel_engine.hpp"
#include "support/kernels.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace kernels = pacga::support::kernels;

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::fail(const std::string& why) {
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(why);
}

std::uint64_t SpanLog::add(std::uint64_t parent, std::uint64_t job,
                           std::string layer, std::int64_t start_ns,
                           std::int64_t end_ns) {
  const std::uint64_t id = next_id_++;
  spans_.push_back({id, parent, job, std::move(layer), start_ns, end_ns});
  return id;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.job
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << "}}";
  }
  out << "\n]}\n";
  out.flush();
  return out.good();
}

std::map<std::string, std::pair<Quantile, Quantile>> self_time_by_layer(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, std::vector<double>> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i)
    by_layer[spans[i].layer].push_back(static_cast<double>(self[i]) / 1e3);
  std::map<std::string, std::pair<Quantile, Quantile>> out;
  for (auto& [layer, us] : by_layer)
    out[layer] = {median_of(us), tail_of(us)};
  return out;
}

std::pair<double, double> residual_shares(const std::vector<Span>& spans,
                                          const std::string& root_layer) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<double> root_ns, residual_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].layer != root_layer) continue;
    root_ns.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns));
    residual_ns.push_back(static_cast<double>(self[i]));
  }
  if (root_ns.empty()) return {0.0, 0.0};
  const double p50 = median_of(root_ns).value;
  const double p99 = p99_or_supported(root_ns).value;
  return {p50 > 0 ? median_of(residual_ns).value / p50 : 0.0,
          p99 > 0 ? p99_or_supported(residual_ns).value / p99 : 0.0};
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---- PA-CGA arms -----------------------------------------------------------

namespace {

ArmRun one_run(const pacga::etc::EtcMatrix& etc, double lower_bound,
               std::uint64_t seed, std::size_t threads, double budget_s,
               Report& report) {
  pacga::cga::Config config;  // paper Table 1: tpx, 10 H2LL iterations
  config.threads = threads;
  config.seed = seed;
  config.termination = pacga::cga::Termination::after_seconds(budget_s);
  config.pin_threads = true;  // paper §4.1: one thread per core
  const auto t0 = Clock::now();
  const pacga::par::ParallelResult r = pacga::par::run_parallel(etc, config);
  ArmRun run;
  run.wall_s = seconds_since(t0);
  report.attempt();
  const std::string bad = check_answer(etc, r.result.best.assignment(),
                                       r.result.best_fitness, lower_bound);
  if (!bad.empty()) report.fail("pacga " + bad);
  const double elapsed = std::max(r.result.elapsed_seconds, 1e-9);
  run.evals_per_s = static_cast<double>(r.total_evaluations()) / elapsed;
  run.makespan = r.result.best_fitness;
  run.generations = static_cast<double>(r.result.generations);
  std::uint64_t replaced = 0, lo = UINT64_MAX, hi = 0;
  for (const auto& t : r.threads) {
    replaced += t.replacements;
    lo = std::min(lo, t.evaluations);
    hi = std::max(hi, t.evaluations);
  }
  run.replace_ratio = r.total_evaluations()
                          ? static_cast<double>(replaced) /
                                static_cast<double>(r.total_evaluations())
                          : 0.0;
  run.thread_imbalance =
      lo > 0 ? static_cast<double>(hi) / static_cast<double>(lo) : 0.0;
  return run;
}

template <typename F>
std::vector<double> field(const std::vector<ArmRun>& runs, F f) {
  std::vector<double> out;
  for (const ArmRun& r : runs) out.push_back(f(r));
  return out;
}

}  // namespace

Arms run_arms(const pacga::etc::EtcMatrix& etc, double lower_bound,
              std::uint64_t seed, double budget_s, std::size_t rounds,
              Report& report) {
  Arms arms;
  for (std::size_t i = 0; i < rounds; ++i) {
    arms.three.push_back(
        one_run(etc, lower_bound, mix_seed(seed, 2 * i), 3, budget_s, report));
    arms.one.push_back(
        one_run(etc, lower_bound, mix_seed(seed, 2 * i + 1), 1, budget_s, report));
  }
  return arms;
}

void report_arm_rates(const Arms& arms, Report& report) {
  const auto rate = [](const ArmRun& r) { return r.evals_per_s; };
  for (const auto* arm : {&arms.three, &arms.one}) {
    std::string line(arm == &arms.three ? "3" : "1");
    line += "-thread evals/s:";
    for (const ArmRun& r : *arm) {
      line += ' ';
      line += std::to_string(static_cast<long>(r.evals_per_s));
    }
    report.note(line);
  }
  report.set("evals_per_s", median_of(field(arms.three, rate)).value,
             "evaluations/s");
}

void report_pacga_layer(const Arms& arms, Report& report) {
  report.set("pacga.evals_per_s_1t",
             median_of(field(arms.one, [](const ArmRun& r) {
               return r.evals_per_s;
             })).value,
             "evaluations/s");
  report.set("pacga.replace_ratio",
             median_of(field(arms.three, [](const ArmRun& r) {
               return r.replace_ratio;
             })).value,
             "ratio");
  report.set("pacga.thread_imbalance",
             median_of(field(arms.three, [](const ArmRun& r) {
               return r.thread_imbalance;
             })).value,
             "ratio");
  report.set("pacga.generations",
             median_of(field(arms.three, [](const ArmRun& r) {
               return r.generations;
             })).value,
             "count");
}

pacga::etc::EtcMatrix paper_instance() {
  return pacga::etc::generate_by_name("u_c_hihi.0");
}

// ---- single-layer probes ---------------------------------------------------

namespace {

/// Repeats `body` until `budget_s` has passed (at least once); returns
/// seconds per call.
template <typename F>
double time_per_call(double budget_s, F&& body) {
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    body();
    ++calls;
    elapsed = seconds_since(t0);
  } while (elapsed < budget_s);
  return elapsed / static_cast<double>(calls);
}

}  // namespace

KernelProbe probe_kernels(const pacga::etc::EtcMatrix& etc, double budget_s) {
  const std::size_t machines = etc.machines();
  const std::size_t rows = 256;  // one Table 1 population of completions
  std::vector<double> completions(rows * machines);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t m = 0; m < machines; ++m)
      completions[r * machines + m] =
          etc.ready(m) + etc(r % etc.tasks(), m) * static_cast<double>(r + 1);
  std::vector<const double*> row_ptr(rows);
  for (std::size_t r = 0; r < rows; ++r)
    row_ptr[r] = completions.data() + r * machines;
  std::vector<double> out(rows);
  volatile double sink = 0.0;

  KernelProbe p;
  const double batch_s = time_per_call(budget_s / 2, [&] {
    kernels::batch_max(row_ptr.data(), rows, machines, out.data());
    sink = sink + out[0];
  });
  p.batch_max_ns_per_elem = batch_s * 1e9 / static_cast<double>(rows * machines);

  std::vector<double> ct(completions.begin(), completions.begin() + machines);
  const double scan_s = time_per_call(budget_s / 2, [&] {
    double acc = 0.0;
    for (std::size_t t = 0; t < etc.tasks(); ++t)
      acc += kernels::min_completion_index(ct.data(), etc.of_task(t).data(),
                                           machines)
                 .value;
    sink = sink + acc;
  });
  p.min_completion_ns_per_elem =
      scan_s * 1e9 / static_cast<double>(etc.tasks() * machines);
  // Per batch_max call: the rows read, one row pointer and one result each.
  p.bytes_per_call = static_cast<double>(rows * machines * sizeof(double) +
                                         rows * sizeof(double*) +
                                         rows * sizeof(double));
  return p;
}

double probe_breed_us(const pacga::etc::EtcMatrix& etc, std::uint64_t seed,
                      double budget_s) {
  pacga::cga::Config config;
  pacga::support::Xoshiro256 rng(seed);
  pacga::cga::Grid grid(config.width, config.height);
  pacga::cga::Population pop(etc, grid, rng, config.seed_min_min,
                             config.objective);
  pacga::cga::Breeder breeder(etc, config);
  pacga::cga::Individual out(pacga::sched::Schedule(etc), 0.0);
  std::size_t cell = 0;
  volatile double sink = 0.0;
  return 1e6 * time_per_call(budget_s, [&] {
           breeder.breed_into(pop, cell, rng, out);
           sink = sink + out.fitness;
           cell = (cell + 1) % pop.size();
         });
}

double probe_min_min_ms(const pacga::etc::EtcMatrix& etc, double budget_s) {
  volatile double sink = 0.0;
  return 1e3 * time_per_call(budget_s, [&] {
           sink = sink + pacga::heur::min_min(etc).makespan();
         });
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
