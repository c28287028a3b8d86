// Workload `edge_cached`: the TCP edge's cached path.
//
// A net::Server on loopback with the `minmin` daemon policy, driven by one
// client thread over four connections, each keeping two requests in
// flight. A request is an inline `SUBMIT` of a 32x8 matrix plus a
// pipelined `WAIT`. About nine in ten requests repeat one of the last 1024
// fresh matrices (a cache hit: a read) and the rest send a fresh one (a
// Min-min solve plus a cache insert). Per-job fixed cost dominates: edge
// read/parse/format/write, the queue hop, the cache probe and the
// completion hand-off, while the solver is nearly idle. It is the "should
// not move" check for solver changes and the cache-read counterpart of
// service_mixed. The client thread, the edge thread and two workers keep
// four threads busy.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "etc/braun.hpp"
#include "net/server.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace svc = pacga::service;

namespace {

constexpr std::size_t kTasks = 32;
constexpr std::size_t kMachines = 8;
constexpr std::size_t kWorkers = 1;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kDepth = 2;        ///< requests in flight per connection
constexpr double kFreshShare = 0.1;
constexpr std::size_t kHotWindow = 1024; ///< repeats draw from the last N fresh
constexpr std::size_t kTraceSample = 250;  ///< traced jobs per connection
/// Throughput and latency are taken per sub-window of the measured traffic
/// and reported as the median over the windows, so a second-long stall of
/// a shared host moves one window, not the figure.
constexpr std::size_t kWindows = 8;
/// The measured traffic is a closed loop (throughput and the latency tail)
/// then an open loop at a fixed rate about a third of this host's capacity
/// (the median latency). A closed loop's median is only its concurrency
/// over its throughput and swings with every change in host speed; an open
/// loop's p99 on a shared host measures the host's hiccups (0.85-4.2 ms
/// between runs of one build), which a closed loop stops offering load
/// through.
constexpr double kClosedShare = 0.6;
constexpr double kOpenRate = 4000.0;
/// Jobs per session before the client reconnects: a session keeps its
/// id maps for its lifetime, so bounded sessions keep the server's memory
/// independent of how many jobs a run gets through.
constexpr std::uint64_t kJobsPerSession = 5000;

/// A matrix as the client sends it: its request text and the exact matrix
/// the server parses from that text.
struct Matrix {
  std::string values;  ///< "v0 v1 ..." task-major, two decimals
  std::shared_ptr<const pacga::etc::EtcMatrix> etc;
  double lower_bound = 0.0;
  std::string first_makespan;  ///< the first RESULT's makespan field
};

Matrix make_matrix(std::uint64_t seed) {
  pacga::etc::GenSpec spec;
  spec.tasks = kTasks;
  spec.machines = kMachines;
  spec.consistency = pacga::etc::Consistency::kInconsistent;
  spec.seed = seed;
  const auto gen = pacga::etc::generate(spec);
  Matrix m;
  std::vector<double> parsed;
  char buf[32];
  for (std::size_t t = 0; t < kTasks; ++t)
    for (std::size_t k = 0; k < kMachines; ++k) {
      const int n = std::snprintf(buf, sizeof buf, "%.2f", gen(t, k));
      if (!m.values.empty()) m.values += ' ';
      m.values.append(buf, static_cast<std::size_t>(n));
      parsed.push_back(std::strtod(buf, nullptr));
    }
  m.etc = std::make_shared<const pacga::etc::EtcMatrix>(kTasks, kMachines,
                                                         std::move(parsed));
  m.lower_bound = makespan_lower_bound(*m.etc);
  return m;
}

/// The request stream: fresh or repeat, drawn from the run seed.
class Traffic {
 public:
  explicit Traffic(std::uint64_t seed) : rng_(seed) {}

  /// Number of the next request's matrix (see at()).
  std::size_t next() {
    if (matrices_.empty() || rng_.uniform() < kFreshShare) {
      matrices_.push_back(make_matrix(rng_()));
      // Keep twice the hot window: a request in flight refers to a matrix
      // at most kHotWindow fresh matrices old.
      if (matrices_.size() > 2 * kHotWindow) {
        matrices_.pop_front();
        ++base_;
      }
      return base_ + matrices_.size() - 1;
    }
    const std::size_t window = std::min(kHotWindow, matrices_.size());
    return base_ + matrices_.size() - 1 -
           static_cast<std::size_t>(
               rng_.uniform_int(0, static_cast<std::int64_t>(window) - 1));
  }
  Matrix& at(std::size_t i) { return matrices_[i - base_]; }
  std::uint64_t fresh() const { return base_ + matrices_.size(); }

 private:
  pacga::support::Xoshiro256 rng_;
  std::deque<Matrix> matrices_;
  std::size_t base_ = 0;  ///< number of the oldest matrix kept
};

struct Request {
  std::uint64_t local = 0;
  std::size_t matrix = 0;
  bool job_seen = false;
  /// When the request was due: its send time in the closed loop, its
  /// scheduled arrival in the open loop.
  Clock::time_point due{};
  Clock::time_point sent{}, job_read{}, result_read{};
  /// When the request ahead of this one on the connection got its RESULT:
  /// the server reads a connection's next request only after answering
  /// the previous WAIT, so until then this one waits head-of-line.
  Clock::time_point ahead_done{};
};

struct Connection {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<Request> pending;
  std::deque<Request> recent;  ///< last kTraceSample answered, this session
  std::uint64_t next_local = 1;
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Value of `key=` in a RESULT line ("" when absent).
std::string field(const std::string& line, const std::string& key) {
  const std::string k = " " + key + "=";
  const std::size_t at = line.find(k);
  if (at == std::string::npos) return "";
  const std::size_t b = at + k.size();
  return line.substr(b, line.find(' ', b) - b);
}

/// What the client saw over a run: per-job figures (float, since they are
/// kept for every job), the cache-hit count, and the latencies split by
/// the sub-window of the measured traffic in which each job completed.
struct Tally {
  std::vector<float> latency_ms, admit_ms, result_ms, ratio, late_ms;
  std::uint64_t hits = 0;
  std::vector<std::vector<double>> windows;  ///< empty: not windowed
  Clock::time_point start{};
  double window_s = 0.0;
  std::size_t jobs() const { return latency_ms.size(); }
};

/// The service, the server on its own thread, and the connected client.
class Edge {
 public:
  explicit Edge(bool traced) {
    svc::ServiceOptions o;
    o.workers = kWorkers;
    o.queue_capacity = 4096;
    o.cache_capacity = 2 * 4096;  // the one 32x8 stripe holds the hot window
    if (traced) o.trace_capacity = 1 << 16;
    service_ = std::make_unique<svc::SchedulerService>(o);
    pacga::net::ServerOptions so;
    so.protocol.policy = "minmin";
    server_ = std::make_unique<pacga::net::Server>(*service_, so);
    // The listener already queues connections; connecting before the loop
    // starts means a failed connect never leaves a running thread behind.
    for (std::size_t i = 0; i < kConnections; ++i) {
      conns_.emplace_back(std::make_unique<Connection>());
      conns_.back()->fd = connect_loopback(server_->port());
    }
    thread_ = std::thread([this] { server_->run(); });
  }
  ~Edge() {
    conns_.clear();
    server_->stop();
    thread_.join();
    server_.reset();
    service_->shutdown();
  }
  Edge(const Edge&) = delete;
  Edge& operator=(const Edge&) = delete;

  svc::SchedulerService& service() { return *service_; }
  std::vector<std::unique_ptr<Connection>>& conns() { return conns_; }
  std::uint16_t port() const { return server_->port(); }

 private:
  std::unique_ptr<svc::SchedulerService> service_;
  std::unique_ptr<pacga::net::Server> server_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::thread thread_;  ///< last: joined before the server goes
};

double ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// The client loop: keeps up to kDepth requests in flight per connection
/// until `until`, then drains; checks every reply as it arrives. With
/// `rate` 0 it is a closed loop (a connection sends as soon as it has
/// room); otherwise requests fall due at Poisson times of that rate and
/// go out on the first connection with room, late if none has.
class Client {
 public:
  Client(Edge& edge, Traffic& traffic, Report& report, std::uint64_t seed)
      : edge_(edge), traffic_(traffic), report_(report), arrivals_(seed) {}

  void run(Clock::time_point until, Tally& tally, double rate = 0.0) {
    auto& conns = edge_.conns();
    std::vector<pollfd> fds(conns.size());
    Clock::time_point next_due = Clock::now();
    const auto advance = [&] {
      next_due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(-std::log(1.0 - arrivals_.uniform()) / rate));
    };
    if (rate > 0) advance();
    for (;;) {
      const auto now = Clock::now();
      const bool sending = now < until;
      bool busy = false;
      for (std::size_t i = 0; i < conns.size(); ++i) {
        Connection& c = *conns[i];
        if (sending && c.next_local > kJobsPerSession && c.pending.empty() &&
            c.out.empty())
          reconnect(c);
        while (sending && c.pending.size() < kDepth && (rate == 0 || next_due <= now)) {
          enqueue(c, rate == 0 ? Clock::time_point{} : next_due);
          if (rate > 0) advance();
        }
        flush(c);
        busy = busy || !c.pending.empty();
        fds[i] = {c.fd, static_cast<short>(POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0)), 0};
      }
      if ((!sending && !busy) || !ok_) return;
      // ppoll: the open loop's arrivals are a fraction of a millisecond
      // apart.
      timespec timeout{0, 100'000'000};
      if (rate > 0 && sending) {
        const auto wait = std::clamp<std::int64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(next_due - Clock::now())
                .count(),
            0, 100'000'000);
        timeout.tv_nsec = static_cast<long>(wait);
      }
      if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 && errno != EINTR) {
        fail("poll failed");
        return;
      }
      for (std::size_t i = 0; i < conns.size(); ++i)
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read(*conns[i], tally);
    }
  }

  /// Sends `TRACE <local>` for each id and returns the timelines.
  std::vector<std::string> trace(Connection& c, const std::vector<std::uint64_t>& ids) {
    for (const std::uint64_t id : ids) c.out += "TRACE " + std::to_string(id) + "\n";
    std::vector<std::string> lines;
    while (lines.size() < ids.size() && ok_) {
      flush(c);
      pollfd p{c.fd, static_cast<short>(POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0)), 0};
      if (::poll(&p, 1, 1000) <= 0) {
        fail("TRACE timed out");
        break;
      }
      if (!(p.revents & POLLIN)) continue;
      if (!receive(c)) break;
      for (std::size_t nl; (nl = c.in.find('\n')) != std::string::npos;) {
        lines.push_back(c.in.substr(0, nl));
        c.in.erase(0, nl + 1);
      }
    }
    return lines;
  }

  std::uint64_t bytes_out() const { return bytes_out_; }
  std::uint64_t bytes_in() const { return bytes_in_; }
  std::uint64_t busy_replies() const { return busy_; }

 private:
  void fail(const std::string& why) {
    report_.fail(why);
    ok_ = false;
  }

  void reconnect(Connection& c) {
    ::close(c.fd);
    c.fd = -1;
    c.fd = connect_loopback(edge_.port());
    c.in.clear();
    c.recent.clear();
    c.next_local = 1;
  }

  /// Queues one request; `due` default means "now" (closed loop).
  void enqueue(Connection& c, Clock::time_point due) {
    Request r;
    r.local = c.next_local++;
    r.matrix = traffic_.next();
    const Matrix& m = traffic_.at(r.matrix);
    c.out += "SUBMIT 0 60000 " + std::to_string(r.local) + " 32 8 " + m.values +
             "\nWAIT " + std::to_string(r.local) + "\n";
    r.sent = Clock::now();
    r.due = due == Clock::time_point{} ? r.sent : due;
    r.ahead_done = c.pending.empty() ? r.sent : Clock::time_point::max();
    c.pending.push_back(r);
    report_.attempt();
  }

  void flush(Connection& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        fail("send failed");
        return;
      }
      c.out_off += static_cast<std::size_t>(n);
      bytes_out_ += static_cast<std::uint64_t>(n);
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }

  bool receive(Connection& c) {
    char chunk[16384];
    for (;;) {
      const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n <= 0) {
        fail("connection closed by the server");
        return false;
      }
      c.in.append(chunk, static_cast<std::size_t>(n));
      bytes_in_ += static_cast<std::uint64_t>(n);
    }
  }

  void read(Connection& c, Tally& tally) {
    if (!receive(c)) return;
    std::size_t pos = 0;
    for (std::size_t nl; (nl = c.in.find('\n', pos)) != std::string::npos; pos = nl + 1)
      line(c, c.in.substr(pos, nl - pos), tally);
    c.in.erase(0, pos);
  }

  void line(Connection& c, const std::string& text, Tally& tally) {
    const auto now = Clock::now();
    if (text.rfind("ERR BUSY", 0) == 0) ++busy_;
    if (c.pending.empty()) return fail("unexpected line: " + text.substr(0, 60));
    Request& r = c.pending.front();
    const std::string id = std::to_string(r.local);
    if (!r.job_seen) {
      if (text != "JOB " + id) return fail("expected JOB " + id + ", got " + text.substr(0, 60));
      r.job_seen = true;
      r.job_read = now;
      return;
    }
    if (text.rfind("RESULT id=" + id + " ", 0) != 0)
      return fail("expected RESULT id=" + id + ", got " + text.substr(0, 60));
    r.result_read = now;
    Matrix& m = traffic_.at(r.matrix);
    const std::string makespan = field(text, "makespan");
    const double value = std::strtod(makespan.c_str(), nullptr);
    if (field(text, "status") != "done") {
      report_.fail("status not done: " + text.substr(0, 60));
    } else if (!m.first_makespan.empty() && makespan != m.first_makespan) {
      report_.fail("repeat answer " + makespan + " != first " + m.first_makespan);
    } else if (!(value >= m.lower_bound * (1 - 1e-5))) {
      report_.fail("makespan below the lower bound");
    } else {
      if (m.first_makespan.empty()) m.first_makespan = makespan;
      const double latency = latency_from_due_ms(r.due, r.result_read);
      tally.latency_ms.push_back(static_cast<float>(latency));
      if (!tally.windows.empty()) {
        const auto w = static_cast<std::size_t>(
            std::chrono::duration<double>(now - tally.start).count() / tally.window_s);
        if (w < tally.windows.size()) tally.windows[w].push_back(latency);
      }
      tally.admit_ms.push_back(static_cast<float>(ms(r.job_read - r.sent)));
      tally.late_ms.push_back(static_cast<float>(lateness_ms(r.due, r.sent)));
      tally.result_ms.push_back(static_cast<float>(ms(r.result_read - r.job_read)));
      tally.ratio.push_back(static_cast<float>(value / m.lower_bound));
      tally.hits += field(text, "cache_hit") == "1";
      c.recent.push_back(r);
      if (c.recent.size() > kTraceSample) c.recent.pop_front();
    }
    c.pending.pop_front();
    if (!c.pending.empty()) c.pending.front().ahead_done = now;
  }

  Edge& edge_;
  Traffic& traffic_;
  Report& report_;
  pacga::support::Xoshiro256 arrivals_;
  bool ok_ = true;
  std::uint64_t bytes_out_ = 0, bytes_in_ = 0, busy_ = 0;
};

/// Parses a TRACE timeline ("kind@start_ms+dur_ms ...") into spans under
/// `root`, nesting the serve phases under serve.
/// Returns false when the service's ring no longer held the job's serve
/// span (the flight recorder dropped it).
bool link_timeline(const std::string& line, std::uint64_t job,
                   std::uint64_t root, SpanLog& log) {
  std::istringstream in(line);
  std::string token;
  std::uint64_t serve = 0;
  std::vector<std::tuple<std::string, std::int64_t, std::int64_t>> inner;
  while (in >> token) {
    const std::size_t at = token.find('@'), plus = token.find('+');
    if (at == std::string::npos || plus == std::string::npos) continue;
    const std::string kind = token.substr(0, at);
    const auto a = static_cast<std::int64_t>(std::stod(token.substr(at + 1, plus - at - 1)) * 1e6);
    const auto b = a + static_cast<std::int64_t>(std::stod(token.substr(plus + 1)) * 1e6);
    if (kind == "queue_wait") log.add(root, job, "service.queue_wait", a, b);
    else if (kind == "serve") serve = log.add(root, job, "service.serve", a, b);
    else inner.emplace_back(kind, a, b);
  }
  for (const auto& [kind, a, b] : inner) {
    const std::string layer = kind == "cache_probe" ? "service.cache_probe"
                              : kind == "heuristic" ? "heuristics"
                                                    : "service." + kind;
    log.add(serve ? serve : root, job, layer, a, b);
  }
  return serve != 0;
}

struct Pass {
  Tally closed;  ///< closed loop: throughput
  Tally open;    ///< open loop at kOpenRate: latency
  double seconds = 0.0;
  std::uint64_t fresh = 0, bytes_out = 0, bytes_in = 0, busy = 0;
  SpanLog log;
  std::vector<double> cache_probe_us;
  std::uint64_t spans_dropped = 0;  ///< traced requests left unlinked
  svc::ServiceMetrics::Snapshot before, after;
};

/// Service and server start, connections, and 200 warm-up requests.
std::unique_ptr<Edge> set_up(bool traced, std::uint64_t seed, Report& report) {
  auto edge = std::make_unique<Edge>(traced);
  Traffic warm(mix_seed(seed, 0x3a7));
  Client client(*edge, warm, report, seed);
  Tally tally;
  const std::uint64_t failed = report.failed();
  while (tally.jobs() < 200 && report.failed() == failed)
    client.run(Clock::now() + std::chrono::milliseconds(5), tally);
  return edge;
}

Pass run_pass(std::unique_ptr<Edge> edge, const Args& args, double seconds,
              bool traced, Report& report) {
  Pass pass;
  Traffic traffic(args.seed);
  Client client(*edge, traffic, report, mix_seed(args.seed, 0x0e9));
  pass.before = edge->service().metrics();
  const auto t0 = Clock::now();
  const auto phase = [&](Tally& tally, double phase_s, double rate) {
    tally.windows.resize(kWindows);
    tally.start = Clock::now();
    tally.window_s = phase_s / kWindows;
    client.run(tally.start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(phase_s)),
               tally, rate);
  };
  phase(pass.closed, kClosedShare * seconds, 0.0);
  phase(pass.open, (1 - kClosedShare) * seconds, kOpenRate);
  pass.seconds = seconds_since(t0);
  pass.after = edge->service().metrics();
  pass.fresh = traffic.fresh();
  pass.bytes_out = client.bytes_out();
  pass.bytes_in = client.bytes_in();
  pass.busy = client.busy_replies();
  if (!traced) return pass;

  // Link the last kTraceSample jobs of every connection to the service's
  // spans through the edge's own TRACE verb (session-local ids).
  auto& conns = edge->conns();
  const auto& trace = edge->service().trace();
  const auto ns = [&](Clock::time_point t) {
    return static_cast<std::int64_t>(trace.to_ns(t));
  };
  for (std::size_t i = 0; i < conns.size(); ++i) {
    const std::deque<Request>& mine = conns[i]->recent;
    std::vector<std::uint64_t> ids;
    for (const Request& r : mine) ids.push_back(r.local);
    const std::vector<std::string> lines = client.trace(*conns[i], ids);
    for (std::size_t k = 0; k < lines.size() && k < mine.size(); ++k) {
      const Request& r = mine[k];
      if (lines[k].rfind("TRACE id=" + std::to_string(r.local) + " ", 0) != 0) {
        report.fail("TRACE answered " + lines[k].substr(0, 40));
        break;
      }
      const std::uint64_t job = (i << 48) | r.local;
      const std::uint64_t root = pass.log.add(0, job, "request", ns(r.due), ns(r.result_read));
      if (r.sent > r.due) pass.log.add(root, job, "loadgen.late", ns(r.due), ns(r.sent));
      if (r.ahead_done > r.sent)
        pass.log.add(root, job, "edge.hol_wait", ns(r.sent), ns(r.ahead_done));
      if (!link_timeline(lines[k], job, root, pass.log)) ++pass.spans_dropped;
    }
  }
  for (const auto& e : trace.snapshot())
    if (e.kind == pacga::obs::SpanKind::kCacheProbe)
      pass.cache_probe_us.push_back(static_cast<double>(e.dur_ns) / 1e3);
  return pass;
}

}  // namespace

void run_edge_cached(const Args& args, Report& report) {
  report.busy_threads(kWorkers + 2);
  // Before any service exists: idle workers polling their queues would
  // slow the engine threads.
  const Arms arms = calibration_arms(args.seed, report);
  std::vector<double> setups;
  std::unique_ptr<Edge> edge;
  for (int i = 0; i < 5; ++i) {
    edge.reset();
    const auto t0 = Clock::now();
    edge = set_up(false, args.seed, report);
    setups.push_back(seconds_since(t0));
  }
  const double pass_s = std::max(
      2.0, (args.trace ? args.seconds / 2 : args.seconds) - kCalibrationSeconds);
  const Pass plain = run_pass(std::move(edge), args, pass_s, false, report);
  const auto doubles = [](const std::vector<float>& v) {
    return std::vector<double>(v.begin(), v.end());
  };
  const std::vector<double> latency = doubles(plain.open.latency_ms);
  const double jobs = static_cast<double>(plain.closed.jobs() + plain.open.jobs());
  report.note("edge: " + std::to_string(plain.closed.jobs()) + " closed-loop and " +
              std::to_string(plain.open.jobs()) + " open-loop jobs, " +
              std::to_string(plain.fresh) + " fresh matrices, measured hit share " +
              std::to_string(static_cast<double>(plain.closed.hits + plain.open.hits) /
                             jobs));
  if (!args.trace) {
    report.set("setup_s", median_of(setups).value, "s");
    report_arm_rates(arms, report);
    report.set("makespan_ratio", median_of(doubles(plain.open.ratio)).value,
               "ratio");
    std::vector<double> rate, p50, p99;
    for (const auto& w : plain.open.windows) p50.push_back(median_of(w).value);
    for (const auto& w : plain.closed.windows) {
      rate.push_back(static_cast<double>(w.size()) / plain.closed.window_s);
      const Quantile tail = p99_or_supported(w);
      p99.push_back(tail.value);
      if (tail.percentile != 99.0) report.note("a window supports only p" +
                                               std::to_string(tail.percentile));
    }
    report.set("jobs_per_s", median_of(rate).value, "jobs/s");
    report.set("sustained_jobs_per_s", median_of(rate).value, "jobs/s");
    report.set("latency_p50_ms", median_of(p50).value, "ms");
    report.set("latency_p99_ms", median_of(p99).value, "ms");
    report.note("latency: median over " + std::to_string(kWindows) +
                " windows of the open loop's p50 (from due time) and the closed"
                " loop's p99 (from send); open-loop whole phase p50=" +
                std::to_string(median_of(latency).value) + " p99=" +
                std::to_string(p99_or_supported(latency).value) + " ms, n=" +
                std::to_string(latency.size()));
    report.set("peak_rss_mb", peak_rss_mib(), "MiB");
    return;
  }

  const Pass traced = run_pass(set_up(true, mix_seed(args.seed, 77), report),
                               args, pass_s, true, report);
  const auto closed_rate = [](const Pass& p) {
    return static_cast<double>(p.closed.jobs()) /
           (p.closed.window_s * static_cast<double>(kWindows));
  };
  report.set("trace.overhead_pct",
             100.0 * (closed_rate(plain) - closed_rate(traced)) / closed_rate(plain),
             "%");
  const double tjobs = static_cast<double>(traced.closed.jobs() + traced.open.jobs());
  const auto [res50, res99] = residual_shares(traced.log.spans(), "request");
  report.set("attr.residual_p50", res50, "ratio");
  report.set("attr.residual_p99", res99, "ratio");
  for (const auto& [layer, q] : self_time_by_layer(traced.log.spans()))
    report.note("self time " + layer + ": p50=" + std::to_string(q.first.value) +
                " us p" + std::to_string(q.second.percentile) + "=" +
                std::to_string(q.second.value) + " us n=" +
                std::to_string(q.first.n));
  const std::vector<double> late = doubles(traced.open.late_ms);
  report.set("loadgen.late_ms_p99", p99_or_supported(late).value, "ms");
  report.set("loadgen.late_ms_max", late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()), "ms");
  const std::vector<double> admit = doubles(traced.open.admit_ms);
  const std::vector<double> result = doubles(traced.open.result_ms);
  report.set("net.admit_ms_p50", median_of(admit).value, "ms");
  report.set("net.admit_ms_p99", p99_or_supported(admit).value, "ms");
  report.set("net.result_ms_p50", median_of(result).value, "ms");
  report.set("net.result_ms_p99", p99_or_supported(result).value, "ms");
  report.set("net.bytes_in_per_job", static_cast<double>(traced.bytes_out) / tjobs, "bytes");
  report.set("net.bytes_out_per_job", static_cast<double>(traced.bytes_in) / tjobs, "bytes");
  report.set("net.busy_replies", static_cast<double>(traced.busy), "count");
  report.set("obs.spans_dropped", static_cast<double>(traced.spans_dropped), "count");

  const auto& a = traced.after;
  const auto& b = traced.before;
  const double completed = static_cast<double>(a.completed - b.completed);
  report.set("service.cache_hit_ratio",
             static_cast<double>(a.cache_hits - b.cache_hits) / completed, "ratio");
  report.set("service.cache_probe_us", median_of(traced.cache_probe_us).value, "us");
  report.set("service.refused", static_cast<double>(a.rejected - b.rejected), "count");
  report.set("service.retries", static_cast<double>(a.retries - b.retries), "count");
  report.set("service.stalled", static_cast<double>(a.stalled - b.stalled), "count");
  report.set("service.worker_restarts",
             static_cast<double>(a.worker_restarts - b.worker_restarts), "count");
  // Cumulative since service start: the 200 warm-up jobs are a rounding
  // error against the measured ones.
  report.set("service.queue_wait_ms_p50", a.queue_wait_hist.quantile_ms(0.5), "ms");
  report.set("service.queue_wait_ms_p99", a.queue_wait_hist.quantile_ms(0.99), "ms");
  report.set("service.solve_ms_p50", a.solve_hist.quantile_ms(0.5), "ms");
  report.set("service.solve_ms_p99", a.solve_hist.quantile_ms(0.99), "ms");
  report_pacga_layer(arms, report);

  const Matrix probe = make_matrix(mix_seed(args.seed, 0x5ba9e));
  const KernelProbe k = probe_kernels(*probe.etc, 0.1);
  report.set("kernels.batch_max_ns_per_elem", k.batch_max_ns_per_elem, "ns");
  report.set("kernels.min_completion_ns_per_elem", k.min_completion_ns_per_elem, "ns");
  report.set("kernels.bytes_per_call", k.bytes_per_call, "bytes");
  report.set("heuristics.min_min_ms", probe_min_min_ms(*probe.etc, 0.1), "ms");
  if (!traced.log.write_chrome(args.out_dir + "/spans-edge_cached.json"))
    report.note("could not write the span file");
}

}  // namespace perfbench
