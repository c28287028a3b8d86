// The benchmark's own tests: the measurement rules in src/harness.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "etc/suite.hpp"
#include "harness.hpp"
#include "heuristics/minmin.hpp"
#include "support/rng.hpp"

namespace {

using namespace perfbench;
using pacga::etc::EtcMatrix;

EtcMatrix random_instance(std::size_t tasks, std::size_t machines,
                          std::uint64_t seed, bool with_ready) {
  pacga::support::Xoshiro256 rng(seed);
  std::vector<double> v(tasks * machines), ready;
  for (double& x : v) x = rng.uniform(1.0, 100.0);
  if (with_ready)
    for (std::size_t m = 0; m < machines; ++m) ready.push_back(rng.uniform(0.0, 50.0));
  return EtcMatrix(tasks, machines, std::move(v), std::move(ready));
}

double brute_force_optimum(const EtcMatrix& etc) {
  const std::size_t t = etc.tasks(), m = etc.machines();
  std::vector<std::size_t> a(t, 0);
  double best = INFINITY;
  for (;;) {
    best = std::min(best, recompute_makespan(etc, std::span<const std::size_t>(a)));
    std::size_t i = 0;
    while (i < t && ++a[i] == m) a[i++] = 0;
    if (i == t) return best;
  }
}

TEST(LowerBound, NeverAboveTheBruteForcedOptimum) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const EtcMatrix etc = random_instance(6, 3, seed, seed % 2 == 0);
    EXPECT_LE(makespan_lower_bound(etc), brute_force_optimum(etc) * (1 + 1e-12))
        << "seed " << seed;
  }
}

TEST(LowerBound, NeverAboveMinMin) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const EtcMatrix etc = random_instance(40, 6, seed, seed % 2 == 0);
    EXPECT_LE(makespan_lower_bound(etc), pacga::heur::min_min(etc).makespan())
        << "seed " << seed;
  }
  const EtcMatrix braun = pacga::etc::generate_by_name("u_c_hihi.0");
  EXPECT_LE(makespan_lower_bound(braun), pacga::heur::min_min(braun).makespan());
}

TEST(LowerBound, IsTightOnASingleMachineAndOnTheLongestTask) {
  // One machine: the bound is ready + total work, which is the makespan.
  const EtcMatrix one(3, 1, {1.0, 2.0, 3.0}, {4.0});
  EXPECT_DOUBLE_EQ(makespan_lower_bound(one), 10.0);
  // One long task dominates the averaged term.
  const EtcMatrix longest(2, 2, {100.0, 200.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(makespan_lower_bound(longest), 100.0);
}

TEST(AnswerCheck, CatchesEveryKindOfWrongAnswer) {
  const EtcMatrix etc(2, 2, {1.0, 2.0, 3.0, 4.0});
  const std::vector<int> good{0, 0};  // loads 4, 0
  const double lb = makespan_lower_bound(etc);
  EXPECT_EQ(check_answer(etc, std::span<const int>(good), 4.0, lb), "");
  EXPECT_EQ(check_answer(etc, std::span<const int>(good), 5.0, lb), "makespan mismatch");
  const std::vector<int> short_one{0};
  EXPECT_EQ(check_answer(etc, std::span<const int>(short_one), 4.0, lb), "bad assignment");
  const std::vector<int> out_of_range{0, 2};
  EXPECT_EQ(check_answer(etc, std::span<const int>(out_of_range), 4.0, lb), "bad assignment");
  EXPECT_EQ(check_answer(etc, std::span<const int>(good), 4.0, 4.5), "below lower bound");
}

TEST(Percentiles, TailIsTheHighestWithTenSamplesBeyond) {
  const auto iota = [](std::size_t n) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
  };
  Quantile q = tail_of(iota(1000));  // p99: rank 990, 10 beyond
  EXPECT_EQ(q.percentile, 99.0);
  EXPECT_EQ(q.value, 990.0);
  EXPECT_EQ(q.n, 1000u);
  q = tail_of(iota(999));  // p99 would leave 9 beyond
  EXPECT_EQ(q.percentile, 95.0);
  EXPECT_EQ(q.n, 999u);
  EXPECT_EQ(tail_of(iota(10000)).percentile, 99.9);
  EXPECT_EQ(tail_of(iota(200)).percentile, 95.0);
  EXPECT_EQ(tail_of(iota(100)).percentile, 90.0);
  EXPECT_EQ(tail_of(iota(40)).percentile, 75.0);
  EXPECT_EQ(tail_of(iota(20)).percentile, 50.0);
  q = tail_of(iota(19));  // nothing qualifies: the maximum
  EXPECT_EQ(q.percentile, 100.0);
  EXPECT_EQ(q.value, 19.0);
  EXPECT_EQ(q.n, 19u);
  EXPECT_EQ(p99_or_supported(iota(1000)).percentile, 99.0);
  EXPECT_EQ(p99_or_supported(iota(500)).percentile, 95.0);
  EXPECT_EQ(median_of({5.0, 1.0, 3.0}).value, 3.0);
  EXPECT_EQ(median_of({4.0, 1.0, 3.0, 2.0}).value, 2.0);
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // root [0,100] > child [10,60] > grandchild [20,30].
  const std::vector<Span> spans{{1, 0, 7, "root", 0, 100},
                                {2, 1, 7, "child", 10, 60},
                                {3, 2, 7, "grandchild", 20, 30}};
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 10);
}

TEST(SelfTime, CountsOverlappingChildrenOnceAndClipsToTheParent) {
  const std::vector<Span> spans{{1, 0, 1, "root", 0, 100},
                                {2, 1, 1, "a", 10, 50},
                                {3, 1, 1, "b", 30, 70},    // overlaps a
                                {4, 1, 1, "c", 40, 45},    // inside both
                                {5, 1, 1, "d", 90, 130}};  // sticks out
  const auto self = self_times(spans);
  // Covered: [10,70] + [90,100] = 70.
  EXPECT_EQ(self[0], 30);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[4], 40);
}

/// `ms` milliseconds after an arbitrary epoch.
TimePoint at_ms(int ms) { return TimePoint{} + std::chrono::milliseconds(ms); }

TEST(OpenLoop, AStalledCompletionIsChargedToTheJobsQueuedBehindIt) {
  // One server, FIFO, 100 ms service; jobs due every 200 ms. Job 1 stalls
  // for 500 ms, so jobs 2 and 3 queue behind it.
  const std::vector<int> due{0, 200, 400, 600, 800};
  const std::vector<int> service{100, 600, 100, 100, 100};
  std::vector<double> latency;
  int free_at = 0;
  for (std::size_t i = 0; i < due.size(); ++i) {
    free_at = std::max(free_at, due[i]) + service[i];
    latency.push_back(latency_from_due_ms(at_ms(due[i]), at_ms(free_at)));
  }
  EXPECT_DOUBLE_EQ(latency[0], 100);
  EXPECT_DOUBLE_EQ(latency[1], 600);
  EXPECT_DOUBLE_EQ(latency[2], 500);  // waited for the stalled job
  EXPECT_DOUBLE_EQ(latency[3], 400);
  EXPECT_DOUBLE_EQ(latency[4], 300);
}

TEST(OpenLoop, AStalledGeneratorIsChargedFromTheDueTime) {
  // The generator itself stalls: jobs 1-3 go out at 500 ms instead of when
  // due. Timing from the send would hide the stall; timing from due
  // charges it, and lateness reports it.
  const std::vector<int> due{0, 100, 200, 300};
  const std::vector<int> sent{0, 500, 500, 500};
  const std::vector<int> done{50, 550, 600, 650};
  EXPECT_DOUBLE_EQ(latency_from_due_ms(at_ms(due[1]), at_ms(done[1])), 450);
  EXPECT_DOUBLE_EQ(latency_from_due_ms(at_ms(due[3]), at_ms(done[3])), 350);
  EXPECT_DOUBLE_EQ(lateness_ms(at_ms(due[0]), at_ms(sent[0])), 0);
  EXPECT_DOUBLE_EQ(lateness_ms(at_ms(due[1]), at_ms(sent[1])), 400);
  EXPECT_DOUBLE_EQ(lateness_ms(at_ms(due[3]), at_ms(sent[3])), 200);
  // Sent early (a generator catching up never sends early, but the rule
  // must not report negative lateness).
  EXPECT_DOUBLE_EQ(lateness_ms(at_ms(10), at_ms(5)), 0);
}

TEST(Ladder, BacklogGrowthIsDetectedOverNoise) {
  std::vector<std::pair<double, double>> flat, growing;
  pacga::support::Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) {
    const double t = 0.02 * i;
    flat.emplace_back(t, 3 + rng.uniform(-3.0, 3.0));
    growing.emplace_back(t, 3 + 30.0 * t + rng.uniform(-3.0, 3.0));
  }
  EXPECT_FALSE(backlog_growing(flat, 150.0));
  EXPECT_TRUE(backlog_growing(growing, 150.0));  // 30/s > 5% of 150/s
  EXPECT_FALSE(backlog_growing({}, 150.0));
}

TEST(Ladder, SustainedRateIsTheHighestPassingRung) {
  const double limit = 100;
  EXPECT_EQ(sustained_rate({{50, 20, false, 0}, {100, 40, false, 0},
                            {150, 90, false, 0}, {200, 400, true, 0}},
                           limit),
            150);
  // A growing backlog fails a rung even when its tail is under the limit.
  EXPECT_EQ(sustained_rate({{50, 20, false, 0}, {100, 60, true, 0},
                            {150, 80, true, 0}},
                           limit),
            50);
  // A failed operation fails the rung; order does not matter.
  EXPECT_EQ(sustained_rate({{150, 30, false, 1}, {50, 20, false, 0},
                            {100, 20, false, 0}},
                           limit),
            100);
  // A stall on a low rung does not cap a higher rung that passed.
  EXPECT_EQ(sustained_rate({{50, 300, false, 0}, {100, 40, false, 0},
                            {150, 500, true, 0}},
                           limit),
            100);
  EXPECT_EQ(sustained_rate({{50, 200, false, 0}}, limit), 0);
}

}  // namespace
