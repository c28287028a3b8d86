// Shared pieces of the benchmark: the run report, the traced run's span
// log, the PA-CGA arms, and the per-layer probes that call single layers
// directly on a workload's own matrices.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "etc/etc_matrix.hpp"
#include "harness.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command line of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where the traced run writes its spans
};

/// What one run reports: metrics by name, attempts, failures and their
/// reasons, and free-text lines printed before the result.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line) { notes_.push_back(line); }
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// One failed, refused or wrong operation; the first few reasons are kept.
  void fail(const std::string& why);
  /// Threads the workload keeps busy at once (load + service + edge +
  /// engine threads); above the core count the run is labelled noise.
  void busy_threads(unsigned n) { busy_threads_ = n; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  unsigned busy_threads() const { return busy_threads_; }
  const std::map<std::string, std::pair<double, std::string>>& metrics() const {
    return metrics_;
  }
  const std::vector<std::string>& notes() const { return notes_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  unsigned busy_threads_ = 0;
};

/// The traced run's spans, kept in memory and written once at the end as
/// Chrome trace JSON.
class SpanLog {
 public:
  std::uint64_t add(std::uint64_t parent, std::uint64_t job, std::string layer,
                    std::int64_t start_ns, std::int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes the spans to `path`; returns false when the file cannot be
  /// written.
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Per-layer self time of every layer that has spans: median and tail
/// (tail_of rule) in microseconds, keyed by layer name.
std::map<std::string, std::pair<Quantile, Quantile>> self_time_by_layer(
    const std::vector<Span>& spans);

/// Unexplained residual of the roots named `root_layer`: root duration
/// minus the time its children cover, as a share of the root duration's
/// median (p50) and tail (p99 by the percentile rule).
std::pair<double, double> residual_shares(const std::vector<Span>& spans,
                                          const std::string& root_layer);

/// Mixes a run seed with a stream index (SplitMix64 finaliser).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// ---- PA-CGA arms -----------------------------------------------------------

/// One par::run_parallel call at a fixed wall budget.
struct ArmRun {
  double evals_per_s = 0.0;
  double makespan = 0.0;
  double wall_s = 0.0;  ///< call to return, as the caller sees it
  double generations = 0.0;
  double replace_ratio = 0.0;
  double thread_imbalance = 0.0;
};

struct Arms {
  std::vector<ArmRun> three;  ///< the paper's 3-thread arm
  std::vector<ArmRun> one;    ///< the 1-thread baseline
};

/// Alternates 3-thread and 1-thread PA-CGA runs with the paper's Table 1
/// configuration (cga::Config defaults) for `rounds` rounds at `budget_s`
/// each, checking every answer against `etc` and `lower_bound`.
Arms run_arms(const pacga::etc::EtcMatrix& etc, double lower_bound,
              std::uint64_t seed, double budget_s, std::size_t rounds,
              Report& report);

/// Reports evals_per_s: the 3-thread arm's median.
void report_arm_rates(const Arms& arms, Report& report);

/// Reports the pacga.* layer figures: the 1-thread arm's median rate and
/// the 3-thread arm's replacement ratio, imbalance and generations.
void report_pacga_layer(const Arms& arms, Report& report);

/// The Braun u_c_hihi.0 instance (512x16), regenerated in-repo.
pacga::etc::EtcMatrix paper_instance();

// ---- single-layer probes (traced run only) ---------------------------------

struct KernelProbe {
  double batch_max_ns_per_elem = 0.0;
  double min_completion_ns_per_elem = 0.0;
  double bytes_per_call = 0.0;  ///< computed, not measured: one batch_max
                                ///< over a 256-row population
};

/// Times kernels::batch_max and kernels::min_completion_index under the
/// active tier at `etc`'s machine count, on completions built from `etc`.
KernelProbe probe_kernels(const pacga::etc::EtcMatrix& etc, double budget_s);

/// Microseconds per cga::Breeder::breed_into (Table 1 config, H2LL
/// included) on a population of `etc`.
double probe_breed_us(const pacga::etc::EtcMatrix& etc, std::uint64_t seed,
                      double budget_s);

/// Milliseconds per heuristics::min_min on `etc`.
double probe_min_min_ms(const pacga::etc::EtcMatrix& etc, double budget_s);

/// Peak resident set size of this process in MiB.
double peak_rss_mib();

}  // namespace perfbench
