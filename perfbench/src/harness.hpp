// Pure measurement rules of the benchmark: the makespan lower bound, the
// percentile rule, span self time, open-loop latency and ladder rate
// selection. Everything here is a function of its arguments so the
// benchmark's own tests (tests/harness_test.cpp) can pin each rule.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "etc/etc_matrix.hpp"

namespace perfbench {

// ---- answer quality --------------------------------------------------------

/// Makespan lower bound, computed here and not by the library: the larger of
///   * max over tasks of min over machines of (ready[m] + ETC[t][m]) — no
///     schedule finishes a task before its best machine could;
///   * (sum of ready times + sum over tasks of min ETC) / machines — the
///     least total work any schedule spreads over the machines.
inline double makespan_lower_bound(const pacga::etc::EtcMatrix& etc) {
  const std::size_t machines = etc.machines();
  double ready_sum = 0.0;
  for (std::size_t m = 0; m < machines; ++m) ready_sum += etc.ready(m);
  double longest = 0.0;
  double work = 0.0;
  for (std::size_t t = 0; t < etc.tasks(); ++t) {
    double best_finish = std::numeric_limits<double>::infinity();
    double best_etc = std::numeric_limits<double>::infinity();
    for (std::size_t m = 0; m < machines; ++m) {
      best_finish = std::min(best_finish, etc.ready(m) + etc(t, m));
      best_etc = std::min(best_etc, etc(t, m));
    }
    longest = std::max(longest, best_finish);
    work += best_etc;
  }
  return std::max(longest, (ready_sum + work) / static_cast<double>(machines));
}

/// Makespan of `assignment` recomputed from the matrix alone. Returns NaN
/// when the assignment has the wrong length or names a machine out of range.
template <typename Id>
double recompute_makespan(const pacga::etc::EtcMatrix& etc,
                          std::span<const Id> assignment) {
  if (assignment.size() != etc.tasks())
    return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> load(etc.machines());
  for (std::size_t m = 0; m < etc.machines(); ++m) load[m] = etc.ready(m);
  for (std::size_t t = 0; t < assignment.size(); ++t) {
    const auto m = static_cast<std::size_t>(assignment[t]);
    if (m >= etc.machines()) return std::numeric_limits<double>::quiet_NaN();
    load[m] += etc(t, m);
  }
  return *std::max_element(load.begin(), load.end());
}

/// The in-process answer check: right length, machine ids in range, the
/// reported makespan equal to the recomputed one (relative 1e-9: the
/// library accumulates completions incrementally, so the last bits may
/// differ from a fresh left-to-right sum), and no better than the bound.
/// Returns "" when the answer is correct, otherwise the reason.
template <typename Id>
std::string check_answer(const pacga::etc::EtcMatrix& etc,
                         std::span<const Id> assignment, double reported,
                         double lower_bound) {
  const double recomputed = recompute_makespan(etc, assignment);
  if (std::isnan(recomputed)) return "bad assignment";
  if (!(std::fabs(recomputed - reported) <= 1e-9 * std::fabs(recomputed)))
    return "makespan mismatch";
  if (reported < lower_bound * (1.0 - 1e-12)) return "below lower bound";
  return "";
}

// ---- the percentile rule ---------------------------------------------------

/// A reported quantile: which percentile, its value, and the sample count.
/// `percentile` is 100 (the maximum) when fewer than 20 samples support no
/// percentile at all.
struct Quantile {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t n = 0;
};

/// Nearest-rank quantile of `sorted` at `per_mille`/1000 (rank
/// ceil(q * n), 1-based). `sorted` must be non-empty and ascending.
inline double nearest_rank(const std::vector<double>& sorted,
                           std::size_t per_mille) {
  const std::size_t n = sorted.size();
  std::size_t rank = (per_mille * n + 999) / 1000;
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

/// Samples strictly beyond the nearest rank of `per_mille` out of n.
inline std::size_t samples_beyond(std::size_t n, std::size_t per_mille) {
  return n - std::min(n, (per_mille * n + 999) / 1000);
}

/// The median of `samples` (nearest rank), with the sample count.
inline Quantile median_of(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  return {50.0, nearest_rank(samples, 500), samples.size()};
}

/// The tail the samples support: the highest of p99.9, p99, p95, p90, p75
/// and p50 with at least ten samples beyond it. With fewer than 20 samples
/// no percentile qualifies and the maximum is reported (percentile 100).
inline Quantile tail_of(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (const std::size_t pm : {999u, 990u, 950u, 900u, 750u, 500u}) {
    if (samples_beyond(n, pm) >= 10)
      return {static_cast<double>(pm) / 10.0, nearest_rank(samples, pm), n};
  }
  return {100.0, samples.back(), n};
}

/// The p99 when the samples support it; otherwise whatever tail_of gives.
inline Quantile p99_or_supported(std::vector<double> samples) {
  if (samples_beyond(samples.size(), 990) >= 10) {
    std::sort(samples.begin(), samples.end());
    return {99.0, nearest_rank(samples, 990), samples.size()};
  }
  return tail_of(std::move(samples));
}

// ---- spans and self time ---------------------------------------------------

/// One span of the traced run. `parent` 0 marks a root; spans of one
/// request share `job`.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t job = 0;
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Length of the union of `intervals` clipped to [lo, hi].
inline std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                               std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cursor = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered;
}

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval covered by its direct children. Children that
/// overlap each other are counted once; a child sticking out of its parent
/// is clipped to the parent.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t dur = std::max<std::int64_t>(0, s.end_ns - s.start_ns);
    const auto it = children.find(s.id);
    self[i] = it == children.end()
                  ? dur
                  : dur - covered_ns(it->second, s.start_ns, s.end_ns);
  }
  return self;
}

// ---- open-loop timing ------------------------------------------------------

using TimePoint = std::chrono::steady_clock::time_point;

/// Open-loop latency of one request in milliseconds: timed from when it was
/// DUE, not from when the generator got round to sending it, so a stall (in
/// the system or in the generator) is charged to every request queued
/// behind it.
inline double latency_from_due_ms(TimePoint due, TimePoint done) {
  return std::chrono::duration<double, std::milli>(done - due).count();
}

/// How late the generator sent a request, in milliseconds (never negative).
inline double lateness_ms(TimePoint due, TimePoint sent) {
  return std::max(0.0, std::chrono::duration<double, std::milli>(sent - due).count());
}

// ---- the rate ladder -------------------------------------------------------

/// Least-squares slope of (t, y) samples; 0 with fewer than two distinct t.
inline double slope(const std::vector<std::pair<double, double>>& samples) {
  const double n = static_cast<double>(samples.size());
  if (samples.size() < 2) return 0.0;
  double st = 0, sy = 0;
  for (const auto& [t, y] : samples) {
    st += t;
    sy += y;
  }
  const double mt = st / n, my = sy / n;
  double num = 0, den = 0;
  for (const auto& [t, y] : samples) {
    num += (t - mt) * (y - my);
    den += (t - mt) * (t - mt);
  }
  return den > 0 ? num / den : 0.0;
}

/// A backlog (outstanding requests sampled over a rung) is growing when it
/// rises faster than `fraction` of the offered rate: under capacity it
/// hovers near a constant whatever its noise, over capacity it climbs at
/// (offered - capacity) per second.
inline bool backlog_growing(const std::vector<std::pair<double, double>>& backlog,
                            double offered_rate, double fraction = 0.05) {
  return slope(backlog) > fraction * offered_rate;
}

/// One rung of the rate ladder as measured.
struct Rung {
  double rate = 0.0;       ///< offered jobs/s
  double tail_ms = 0.0;    ///< latency tail from due time (tail_of rule)
  bool growing = false;    ///< backlog_growing verdict
  std::uint64_t failed = 0;  ///< refused, failed or wrong answers
};

/// The sustained rate: the highest offered rate whose rung met the latency
/// limit with no growing backlog and no failure; 0 when no rung did. A
/// lower rung hit by a passing stall does not cap it: the ladder's top
/// rungs sit far enough above capacity that their backlog always grows.
inline double sustained_rate(const std::vector<Rung>& rungs, double limit_ms) {
  double best = 0.0;
  for (const Rung& r : rungs)
    if (!r.growing && r.failed == 0 && r.tail_ms <= limit_ms)
      best = std::max(best, r.rate);
  return best;
}

}  // namespace perfbench
