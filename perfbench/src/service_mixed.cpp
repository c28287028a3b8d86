// Workload `service_mixed`: an open-loop arrival schedule into an
// in-process SchedulerService.
//
// Every job is a distinct matrix of one of five shapes from 24x6 up to
// 256x16 (three consistency classes), solved by the warm sequential CGA
// under a generation cap, so a job's work is fixed and solver speed shows
// up as latency and capacity rather than as answer quality. The work is in
// service/solver_pool (warm per-shape arenas), cga breeding and
// service/queue routing and stealing; every cache probe misses and
// inserts, so the cache is only written; the edge is bypassed.
//
// Arrivals are Poisson at fixed absolute rates: a nominal rate below this
// host's capacity, then a short ladder above it. Latency is timed from each
// job's due time. Admission is try_submit; a refusal counts as a failure.
// One load thread (this one) plus three workers keeps four threads busy.
#include <condition_variable>
#include <cmath>
#include <mutex>
#include <unordered_map>

#include "etc/braun.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace svc = pacga::service;

namespace {

struct Shape {
  std::size_t tasks;
  std::size_t machines;
};
constexpr Shape kShapes[] = {{24, 6}, {32, 8}, {64, 8}, {128, 16}, {256, 16}};
constexpr std::size_t kWorkers = 3;
constexpr std::uint64_t kGenerationCap = 10;
/// Offered rates in jobs/s, fixed for every host: the nominal rate sits
/// below the capacity measured on a 4-core x86 host, the ladder steps
/// above it.
constexpr double kNominalRate = 100.0;
constexpr double kLadder[] = {200.0, 240.0, 400.0};
/// Latency limit on the supported tail percentile of every rung.
constexpr double kLimitMs = 250.0;

std::shared_ptr<const pacga::etc::EtcMatrix> matrix(const Shape& shape,
                                                    pacga::support::Xoshiro256& rng) {
  pacga::etc::GenSpec spec;
  spec.tasks = shape.tasks;
  spec.machines = shape.machines;
  spec.consistency = static_cast<pacga::etc::Consistency>(rng.uniform_int(0, 2));
  spec.seed = rng();
  return std::make_shared<const pacga::etc::EtcMatrix>(pacga::etc::generate(spec));
}

/// Job `job` of the measured stream: a uniformly drawn shape, a fresh
/// matrix.
std::shared_ptr<const pacga::etc::EtcMatrix> job_matrix(std::uint64_t seed,
                                                        std::uint64_t job) {
  pacga::support::Xoshiro256 rng(mix_seed(seed, job));
  const Shape shape =
      kShapes[static_cast<std::size_t>(rng.uniform_int(0, std::size(kShapes) - 1))];
  return matrix(shape, rng);
}

svc::JobSpec job_spec(std::shared_ptr<const pacga::etc::EtcMatrix> etc,
                      std::uint64_t seed) {
  svc::JobSpec spec;
  spec.etc = std::move(etc);
  spec.seed = seed;
  spec.policy = svc::SolvePolicy::kCga;
  spec.max_generations = kGenerationCap;
  spec.deadline_ms = 600000.0;  // the generation cap ends every solve
  return spec;
}

svc::ServiceOptions service_options(bool traced) {
  svc::ServiceOptions o;
  o.workers = kWorkers;
  o.queue_capacity = 8192;  // a ladder rung's backlog never fills it
  if (traced) o.trace_capacity = 1 << 16;
  return o;
}

/// Service start plus a warm-up that builds each worker's arenas: two
/// jobs of every shape, waited on, outside the measured job stream.
std::unique_ptr<svc::SchedulerService> set_up(bool traced, std::uint64_t seed,
                                              Report& report) {
  auto service = std::make_unique<svc::SchedulerService>(service_options(traced));
  pacga::support::Xoshiro256 rng(mix_seed(seed, 0x3a7));
  std::vector<svc::JobId> ids;
  for (int round = 0; round < 2; ++round)
    for (const Shape& shape : kShapes)
      ids.push_back(service->submit(job_spec(matrix(shape, rng), rng())));
  for (const svc::JobId id : ids) {
    report.attempt();
    if (service->wait(id).status != svc::JobStatus::kDone)
      report.fail("warm-up job failed");
  }
  return service;
}

struct Completion {
  svc::JobId id;
  Clock::time_point at;
};

struct Mailbox {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Completion> done;
};

struct Phase {
  double rate = 0.0;
  double duration_s = 0.0;
  bool nominal = false;
  // Measured:
  std::vector<double> latency_ms, late_ms, ratio, wait_ms, solve_ms, submit_us;
  std::vector<std::pair<double, double>> backlog;  ///< (s, outstanding)
  double evaluations = 0.0, solve_s = 0.0;
  std::uint64_t failed = 0;
  Clock::time_point start{}, last_done{};
};

Phase make_phase(double rate, double duration_s, bool nominal) {
  Phase p;
  p.rate = rate;
  p.duration_s = duration_s;
  p.nominal = nominal;
  return p;
}

struct InFlight {
  std::shared_ptr<const pacga::etc::EtcMatrix> etc;
  Phase* phase;
  Clock::time_point due, sent_begin, sent_end;
};

/// One pass: calibration arms, the nominal phase and the ladder, against
/// one service. Only the traced pass fills the span fields.
struct Pass {
  std::vector<Phase> phases;
  svc::ServiceMetrics::Snapshot before, after;
  std::uint64_t steals = 0;
  SpanLog log;
  std::vector<double> cache_probe_us;
  std::uint64_t spans_dropped = 0;  ///< traced requests left unlinked
};

class LoadGenerator {
 public:
  LoadGenerator(svc::SchedulerService& service, Mailbox& mailbox, std::uint64_t seed,
         Report& report, bool traced)
      : service_(service), mailbox_(mailbox), seed_(seed), report_(report),
        traced_(traced) {}

  void run(Phase& phase) {
    pacga::support::Xoshiro256 rng(mix_seed(seed_, 0xa77 + next_job_));
    phase.start = Clock::now();
    const auto end = phase.start + to_duration(phase.duration_s);
    double offset = 0.0;
    for (;;) {
      offset += -std::log(1.0 - rng.uniform()) / phase.rate;
      const auto due = phase.start + to_duration(offset);
      if (due >= end) break;
      wait_until(due, phase);
      submit(due, phase);
    }
    wait_until(end, phase);
    // Drain before the next phase, so rungs do not overlap; the backlog is
    // sampled only while the phase offers load.
    const auto give_up = Clock::now() + std::chrono::seconds(60);
    while (!inflight_.empty() && Clock::now() < give_up)
      wait_until(Clock::now() + std::chrono::milliseconds(20), phase, false);
    if (!inflight_.empty()) {
      report_.fail("phase did not drain");
      phase.failed += inflight_.size();
      inflight_.clear();
    }
  }

  const SpanLog& log() const { return log_; }

 private:
  static Clock::duration to_duration(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }

  std::int64_t ns(Clock::time_point t) const {
    return static_cast<std::int64_t>(service_.trace().to_ns(t));
  }

  void submit(Clock::time_point due, Phase& phase) {
    const std::uint64_t j = next_job_++;
    auto etc = job_matrix(seed_, j);
    InFlight rec{etc, &phase, due, Clock::now(), {}};
    report_.attempt();
    const std::optional<svc::JobId> id =
        service_.try_submit(job_spec(std::move(etc), mix_seed(seed_, j)));
    rec.sent_end = Clock::now();
    if (!id) {
      report_.fail("try_submit refused");
      ++phase.failed;
      return;
    }
    inflight_.emplace(*id, std::move(rec));
  }

  /// Handles completions, and samples the backlog when `sample`, until `t`.
  void wait_until(Clock::time_point t, Phase& phase, bool sample = true) {
    for (;;) {
      std::vector<Completion> done;
      {
        std::unique_lock<std::mutex> lock(mailbox_.mutex);
        mailbox_.cv.wait_until(lock, std::min(t, next_sample_),
                               [&] { return !mailbox_.done.empty(); });
        done.swap(mailbox_.done);
      }
      for (const Completion& c : done) finish(c);
      const auto now = Clock::now();
      if (sample && now >= next_sample_) {
        phase.backlog.emplace_back(
            std::chrono::duration<double>(now - phase.start).count(),
            static_cast<double>(inflight_.size()));
        next_sample_ = now + std::chrono::milliseconds(20);
      }
      if (now >= t) return;
    }
  }

  void finish(const Completion& c) {
    const auto it = inflight_.find(c.id);
    if (it == inflight_.end()) return;
    InFlight rec = std::move(it->second);
    inflight_.erase(it);
    Phase& phase = *rec.phase;
    svc::JobResult r;
    if (service_.poll_result(c.id, r) != svc::SchedulerService::Poll::kReady ||
        r.status != svc::JobStatus::kDone) {
      report_.fail("job not done: " + r.error);
      ++phase.failed;
      return;
    }
    const double lb = makespan_lower_bound(*rec.etc);
    const std::string bad = check_answer(
        *rec.etc, std::span<const pacga::sched::MachineId>(r.assignment),
        r.makespan, lb);
    if (!bad.empty()) {
      report_.fail("service " + bad);
      ++phase.failed;
      return;
    }
    const auto ms = [](Clock::duration d) {
      return std::chrono::duration<double, std::milli>(d).count();
    };
    phase.latency_ms.push_back(latency_from_due_ms(rec.due, c.at));
    phase.late_ms.push_back(lateness_ms(rec.due, rec.sent_begin));
    phase.submit_us.push_back(1e3 * ms(rec.sent_end - rec.sent_begin));
    phase.ratio.push_back(r.makespan / lb);
    phase.wait_ms.push_back(r.queue_wait_seconds * 1e3);
    phase.solve_ms.push_back(r.solve_seconds * 1e3);
    phase.evaluations += static_cast<double>(r.evaluations);
    phase.solve_s += r.solve_seconds;
    phase.last_done = c.at;
    if (traced_ && phase.nominal) {
      const std::uint64_t root =
          add_span(0, c.id, "request", ns(rec.due), ns(c.at));
      add_span(root, c.id, "loadgen.late", ns(rec.due), ns(rec.sent_begin));
      add_span(root, c.id, "service.submit", ns(rec.sent_begin), ns(rec.sent_end));
      roots_[c.id] = root;
    }
  }

  std::uint64_t add_span(std::uint64_t parent, std::uint64_t job,
                         const char* layer, std::int64_t a, std::int64_t b) {
    return log_.add(parent, job, layer, a, std::max(a, b));
  }

 public:
  /// Links the service's own spans to each traced request by job id:
  /// queue_wait and serve under the request, the serve phases under serve.
  /// Returns how many traced requests found no serve span (dropped by the
  /// service's flight recorder).
  std::uint64_t link_service_spans(const std::vector<pacga::obs::SpanEvent>& events) {
    std::unordered_map<std::uint64_t, std::uint64_t> serve_of;
    for (const auto& e : events) {
      const auto root = roots_.find(e.job_id);
      if (root == roots_.end()) continue;
      const auto a = static_cast<std::int64_t>(e.ts_ns);
      const auto b = static_cast<std::int64_t>(e.ts_ns + e.dur_ns);
      if (e.kind == pacga::obs::SpanKind::kQueueWait)
        add_span(root->second, e.job_id, "service.queue_wait", a, b);
      else if (e.kind == pacga::obs::SpanKind::kServe)
        serve_of[e.job_id] = add_span(root->second, e.job_id, "service.serve", a, b);
    }
    for (const auto& e : events) {
      const auto serve = serve_of.find(e.job_id);
      if (serve == serve_of.end() || !pacga::obs::span_has_duration(e.kind) ||
          e.kind == pacga::obs::SpanKind::kQueueWait ||
          e.kind == pacga::obs::SpanKind::kServe)
        continue;
      const auto a = static_cast<std::int64_t>(e.ts_ns);
      add_span(serve->second, e.job_id, layer_of(e.kind), a,
               a + static_cast<std::int64_t>(e.dur_ns));
    }
    return roots_.size() - serve_of.size();
  }

 private:
  static const char* layer_of(pacga::obs::SpanKind k) {
    switch (k) {
      case pacga::obs::SpanKind::kCacheProbe: return "service.cache_probe";
      case pacga::obs::SpanKind::kArenaBuild: return "service.arena_build";
      case pacga::obs::SpanKind::kWarmCga: return "cga.warm_cga";
      case pacga::obs::SpanKind::kHeuristic: return "heuristics";
      default: return "pacga";
    }
  }

  svc::SchedulerService& service_;
  Mailbox& mailbox_;
  std::uint64_t seed_;
  Report& report_;
  bool traced_;
  std::uint64_t next_job_ = 0;
  std::unordered_map<svc::JobId, InFlight> inflight_;
  Clock::time_point next_sample_ = Clock::now();
  SpanLog log_;
  std::unordered_map<svc::JobId, std::uint64_t> roots_;
};

Pass run_pass(std::unique_ptr<svc::SchedulerService> service, const Args& args,
              double seconds, bool traced, Report& report) {
  Pass pass;
  Mailbox mailbox;
  service->set_completion_callback([&mailbox](svc::JobId id) {
    const auto at = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mailbox.mutex);
      mailbox.done.push_back({id, at});
    }
    mailbox.cv.notify_one();
  });
  pass.phases.push_back(make_phase(kNominalRate, 0.6 * seconds, true));
  for (const double rate : kLadder)
    pass.phases.push_back(make_phase(rate, 0.4 * seconds / std::size(kLadder), false));
  pass.before = service->metrics();
  const std::uint64_t steals_before = service->queue_steals();
  LoadGenerator load(*service, mailbox, args.seed, report, traced);
  for (Phase& phase : pass.phases) load.run(phase);
  pass.after = service->metrics();
  pass.steals = service->queue_steals() - steals_before;
  if (traced) {
    const auto events = service->trace().snapshot();
    pass.spans_dropped = load.link_service_spans(events);
    for (const auto& e : events)
      if (e.kind == pacga::obs::SpanKind::kCacheProbe)
        pass.cache_probe_us.push_back(static_cast<double>(e.dur_ns) / 1e3);
    pass.log = load.log();
  }
  service->set_completion_callback({});
  service->shutdown();
  return pass;
}

double sustained(const Pass& pass) {
  std::vector<Rung> rungs;
  for (const Phase& p : pass.phases)
    rungs.push_back({p.rate, tail_of(p.latency_ms).value,
                     !p.nominal && backlog_growing(p.backlog, p.rate), p.failed});
  return sustained_rate(rungs, kLimitMs);
}

}  // namespace

void run_service_mixed(const Args& args, Report& report) {
  report.busy_threads(kWorkers + 1);
  // Before any service exists: idle workers polling their queues would
  // slow the engine threads.
  const Arms arms = calibration_arms(args.seed, report);
  std::vector<double> setups;
  std::unique_ptr<svc::SchedulerService> service;
  for (int i = 0; i < 5; ++i) {
    service.reset();
    const auto t0 = Clock::now();
    service = set_up(false, args.seed, report);
    setups.push_back(seconds_since(t0));
  }
  const double pass_s = std::max(
      2.0, (args.trace ? args.seconds / 2 : args.seconds) - kCalibrationSeconds);
  const Pass plain = run_pass(std::move(service), args, pass_s, false, report);
  const Phase& nominal = plain.phases.front();
  for (const Phase& p : plain.phases) {
    const Quantile tail = tail_of(p.latency_ms);
    report.note("rung " + std::to_string(p.rate) + " jobs/s: n=" +
                std::to_string(p.latency_ms.size()) + " p" +
                std::to_string(tail.percentile) + "=" +
                std::to_string(tail.value) + " ms backlog_slope=" +
                std::to_string(slope(p.backlog)) + "/s failed=" +
                std::to_string(p.failed));
  }
  if (!args.trace) {
    report.set("setup_s", median_of(setups).value, "s");
    report_arm_rates(arms, report);
    report.set("makespan_ratio", median_of(nominal.ratio).value, "ratio");
    const double span_s =
        std::chrono::duration<double>(nominal.last_done - nominal.start).count();
    report.set("jobs_per_s",
               static_cast<double>(nominal.latency_ms.size()) / span_s, "jobs/s");
    report.set("sustained_jobs_per_s", sustained(plain), "jobs/s");
    report.set("latency_p50_ms", median_of(nominal.latency_ms).value, "ms");
    const Quantile tail = p99_or_supported(nominal.latency_ms);
    report.set("latency_p99_ms", tail.value, "ms");
    report.note("latency tail: p" + std::to_string(tail.percentile) + " of n=" +
                std::to_string(tail.n) + " jobs at the nominal rate");
    report.set("peak_rss_mb", peak_rss_mib(), "MiB");
    return;
  }

  const Pass traced =
      run_pass(set_up(true, mix_seed(args.seed, 77), report), args, pass_s,
               true, report);
  const Phase& tn = traced.phases.front();
  const double plain_p50 = median_of(nominal.latency_ms).value;
  report.set("trace.overhead_pct",
             100.0 * (median_of(tn.latency_ms).value - plain_p50) / plain_p50,
             "%");
  const auto [res50, res99] = residual_shares(traced.log.spans(), "request");
  report.set("attr.residual_p50", res50, "ratio");
  report.set("attr.residual_p99", res99, "ratio");
  for (const auto& [layer, q] : self_time_by_layer(traced.log.spans()))
    report.note("self time " + layer + ": p50=" + std::to_string(q.first.value) +
                " us p" + std::to_string(q.second.percentile) + "=" +
                std::to_string(q.second.value) + " us n=" +
                std::to_string(q.first.n));
  report.set("obs.spans_dropped", static_cast<double>(traced.spans_dropped),
             "count");
  report.set("loadgen.late_ms_p99", p99_or_supported(tn.late_ms).value, "ms");
  report.set("loadgen.late_ms_max",
             tn.late_ms.empty()
                 ? 0.0
                 : *std::max_element(tn.late_ms.begin(), tn.late_ms.end()),
             "ms");
  report.set("service.submit_us", median_of(tn.submit_us).value, "us");
  report.set("service.queue_wait_ms_p50", median_of(tn.wait_ms).value, "ms");
  report.set("service.queue_wait_ms_p99", p99_or_supported(tn.wait_ms).value, "ms");
  report.set("service.solve_ms_p50", median_of(tn.solve_ms).value, "ms");
  report.set("service.solve_ms_p99", p99_or_supported(tn.solve_ms).value, "ms");
  report.set("cga.evals_per_solve_s", tn.evaluations / tn.solve_s, "evaluations/s");

  const auto& a = traced.after;
  const auto& b = traced.before;
  const double completed = static_cast<double>(a.completed - b.completed);
  report.set("service.steal_ratio", static_cast<double>(traced.steals) / completed,
             "ratio");
  report.set("service.refused", static_cast<double>(a.rejected - b.rejected), "count");
  report.set("service.arena_builds_per_job",
             static_cast<double>(a.arena_builds - b.arena_builds) / completed,
             "ratio");
  std::uint64_t share_max = 0;
  for (std::size_t w = 0; w < a.worker_completed.size(); ++w)
    share_max = std::max(share_max, a.worker_completed[w] - b.worker_completed[w]);
  report.set("service.worker_share_max", static_cast<double>(share_max) / completed,
             "ratio");
  report.set("service.cache_hit_ratio",
             static_cast<double>(a.cache_hits - b.cache_hits) / completed, "ratio");
  report.set("service.cache_probe_us", median_of(traced.cache_probe_us).value, "us");
  report.set("service.retries", static_cast<double>(a.retries - b.retries), "count");
  report.set("service.stalled", static_cast<double>(a.stalled - b.stalled), "count");
  report.set("service.worker_restarts",
             static_cast<double>(a.worker_restarts - b.worker_restarts), "count");
  report_pacga_layer(arms, report);

  // Single-layer probes on one matrix of every shape, averaged: the job
  // stream draws the shapes uniformly.
  KernelProbe k;
  double breed = 0.0, minmin = 0.0;
  const double n = static_cast<double>(std::size(kShapes));
  for (std::size_t s = 0; s < std::size(kShapes); ++s) {
    pacga::etc::GenSpec spec;
    spec.tasks = kShapes[s].tasks;
    spec.machines = kShapes[s].machines;
    spec.seed = mix_seed(args.seed, 0x5ba9e + s);
    const auto etc = pacga::etc::generate(spec);
    const KernelProbe p = probe_kernels(etc, 0.05);
    k.batch_max_ns_per_elem += p.batch_max_ns_per_elem / n;
    k.min_completion_ns_per_elem += p.min_completion_ns_per_elem / n;
    k.bytes_per_call += p.bytes_per_call / n;
    breed += probe_breed_us(etc, args.seed, 0.05) / n;
    minmin += probe_min_min_ms(etc, 0.05) / n;
  }
  report.set("kernels.batch_max_ns_per_elem", k.batch_max_ns_per_elem, "ns");
  report.set("kernels.min_completion_ns_per_elem", k.min_completion_ns_per_elem, "ns");
  report.set("kernels.bytes_per_call", k.bytes_per_call, "bytes");
  report.set("cga.breed_us", breed, "us");
  report.set("heuristics.min_min_ms", minmin, "ms");

  if (!traced.log.write_chrome(args.out_dir + "/spans-service_mixed.json"))
    report.note("could not write the span file");
}

}  // namespace perfbench
