// dispatch_zero_service: the prototype's dispatch path with no application
// work. 4 ServerNodes (busy-reply injection off, service_us = 0) and one
// polling(3) ClientNode fed by the benchmark's own open-loop Poisson source.
// Every microsecond an access takes is net + cluster cost: codec, syscalls,
// poller wake-up, queue hand-off and worker wake-up.
//
// Two rates, each run as kWindowSeconds windows on freshly brought-up
// clusters; a window the hypervisor stole CPU from is run again (see
// kMaxStealShare), and every metric combines a rate's windows with
// over_windows():
//   light  — kLightRate, so every access finds the threads asleep;
//   loaded — kLoadedRate, so the threads stay hot and contend for CPUs.
// throughput_per_s is the CPU-bound capacity at the loaded rate: nproc *
// accesses / process CPU seconds, i.e. what the host's CPUs carry at the
// measured cost per access.
//
// The traced run also measures the capacity directly with a rate ladder
// (bench.capacity_per_s): geometric rates from kLadderStart; a step is
// sustained when no access failed, response p90 and issue-lag p90 stay
// under kLimitUs, and the issue lag does not grow from the first third of
// the step to the last. The rate is refined by bisection between the last
// sustained and the first failed step, and the capacity is the better of two
// such ladders. On a shared 4-vCPU host its run-to-run spread (about 25%)
// is too wide to gate on.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/rng.h"
#include "core/policy.h"
#include "probes.h"
#include "telemetry/metrics.h"

namespace perfbench {
namespace {

constexpr double kLightRate = 5'000.0;
constexpr double kLoadedRate = 20'000.0;
constexpr double kWindowSeconds = 0.5;
constexpr double kLadderStart = 30'000.0;
constexpr double kLadderRatio = 1.25;
constexpr double kStepSeconds = 0.5;
constexpr int kBisections = 2;
/// Time budget of one capacity ladder (traced run only).
constexpr double kLadderSeconds = 3.0;
/// Latency limit of a sustained ladder step, on the step's p90 and on the
/// issue lag's p90. Below saturation the p99 of a 0.5 s step swings from
/// 0.3 to 8 ms with host stalls at any rate; p90 moves only once queues
/// build.
constexpr double kLimitUs = 1'000.0;
/// Ladder steps fail fast: an access unanswered this long has long missed
/// the latency limit.
constexpr finelb::SimDuration kLadderTimeout = 50 * finelb::kMillisecond;

/// Open-loop Poisson arrivals with zero service demand. ClientNode calls
/// next() once before its first access and once right after issuing each
/// access, so the gap between that call and the access's due time is how
/// late the access was issued.
class OpenLoopSource : public finelb::RequestSource {
 public:
  OpenLoopSource(double rate_per_s, std::uint64_t seed, std::int64_t accesses)
      : mean_interval_ns_(1e9 / rate_per_s), rng_(seed) {
    lag_us_.reserve(static_cast<std::size_t>(accesses) + 1);
  }

  finelb::TraceRecord next() override {
    const std::int64_t now = now_ns();
    if (calls_ == 0) {
      due_ns_ = now;
    } else {
      const std::int64_t lag = now - due_ns_;
      lag_us_.push_back(static_cast<double>(lag) / 1e3);
      tracer().instant("workload/issue", now, lag);
    }
    ++calls_;
    finelb::TraceRecord record;
    record.arrival_interval = std::max<finelb::SimDuration>(
        1, static_cast<finelb::SimDuration>(
               rng_.exponential(mean_interval_ns_)));
    record.service_time = 0;
    due_ns_ += record.arrival_interval;
    return record;
  }

  std::vector<double>& lag_us() { return lag_us_; }

 private:
  double mean_interval_ns_;
  finelb::Rng rng_;
  std::int64_t calls_ = 0;
  std::int64_t due_ns_ = 0;
  std::vector<double> lag_us_;
};

std::int64_t counter_total(const finelb::telemetry::Registry& registry) {
  std::int64_t total = 0;
  for (const auto& [name, value] : registry.snapshot().counters) total += value;
  return total;
}

double merged_p50_ms(
    const std::vector<std::unique_ptr<finelb::cluster::ServerNode>>& servers,
    const char* name) {
  std::vector<finelb::telemetry::HistogramSnapshot> parts;
  for (const auto& server : servers) {
    for (auto& h : server->metrics().snapshot().histograms) {
      if (h.name == name) parts.push_back(std::move(h));
    }
  }
  return finelb::telemetry::merge_histograms(parts, name).p50;
}

struct Step {
  double rate = 0.0;
  bool sustained = false;
  double p90_us = 0.0;
  DispatchPhase phase;
};

Step ladder_step(double rate, std::uint64_t seed) {
  DispatchSpec spec;
  spec.rate_per_s = rate;
  spec.accesses = static_cast<std::int64_t>(rate * kStepSeconds);
  spec.seed = seed;
  spec.response_timeout = kLadderTimeout;
  Step step;
  step.rate = rate;
  step.phase = run_dispatch_phase(spec);
  const DispatchPhase& p = step.phase;
  std::vector<double> lag = p.lag_us;
  const std::size_t third = lag.size() / 3;
  std::vector<double> first(lag.begin(), lag.begin() + third);
  std::vector<double> last(lag.end() - third, lag.end());
  const double p90 = hist_quantile(p.client.response_hist_ms, 0.90) * 1e3;
  const double lag_p90 = quantile(lag, 0.90);
  const double first_p50 = median(first);
  const double last_p50 = median(last);
  step.p90_us = p90;
  std::int64_t server_failures = 0;
  for (const auto& s : p.servers) server_failures += s.send_failures;
  step.sustained = p.client.completed == p.client.issued &&
                   p.client.issued == spec.accesses &&
                   p.client.send_failures == 0 && server_failures == 0 &&
                   p90 < kLimitUs && lag_p90 < kLimitUs &&
                   last_p50 <= first_p50 + 50.0;
  std::fprintf(stderr,
               "ladder %8.0f/s: %s completed %lld/%lld p90 %.1f us, lag p90 "
               "%.1f us, lag p50 first/last third %.1f/%.1f us\n",
               rate, step.sustained ? "sustained" : "FAILED   ",
               static_cast<long long>(p.client.completed),
               static_cast<long long>(p.client.issued), p90, lag_p90,
               first_p50, last_p50);
  return step;
}

struct Ladder {
  double capacity = 0.0;
  int steps = 0;
  std::vector<double> setup_s;
  std::int64_t sustained_accesses = 0;
};

/// Steps geometrically from kLadderStart until one rate is sustained and
/// one is not, bisects kBisections times, and interpolates where the step
/// p90 crosses kLimitUs (log p90 against log rate) between the highest
/// sustained and the lowest failed rate, so the capacity is not quantized
/// to the ladder's rates.
Ladder climb(std::uint64_t seed, double budget_s) {
  Ladder ladder;
  const std::int64_t start = now_ns();
  Step pass;
  Step fail;
  double rate = kLadderStart;
  int bisections = 0;
  while (bisections < kBisections &&
         (ladder.steps < 2 || seconds_between(start, now_ns()) < budget_s)) {
    Step step = ladder_step(rate, seed + static_cast<std::uint64_t>(ladder.steps));
    ++ladder.steps;
    ladder.setup_s.push_back(step.phase.setup_s);
    if (step.sustained) {
      ladder.sustained_accesses += step.phase.client.issued;
      pass = std::move(step);
    } else {
      fail = std::move(step);
    }
    if (pass.rate > 0.0 && fail.rate > 0.0) {
      rate = std::sqrt(pass.rate * fail.rate);
      ++bisections;
    } else {
      rate = pass.rate > 0.0 ? rate * kLadderRatio : rate / kLadderRatio;
    }
  }
  if (pass.rate <= 0.0 || fail.rate <= 0.0) {
    ladder.capacity = pass.rate;
    return ladder;
  }
  // A failed step whose p90 stayed under the limit failed on issue lag or
  // lost accesses; put the crossing midway.
  double share = 0.5;
  if (fail.p90_us > kLimitUs && pass.p90_us < kLimitUs) {
    share = std::log(kLimitUs / pass.p90_us) / std::log(fail.p90_us / pass.p90_us);
  }
  ladder.capacity = pass.rate * std::pow(fail.rate / pass.rate, share);
  return ladder;
}

}  // namespace

DispatchPhase run_dispatch_phase(const DispatchSpec& spec) {
  using finelb::cluster::ClientNode;
  using finelb::cluster::ClientOptions;
  using finelb::cluster::ServerNode;
  using finelb::cluster::ServerOptions;

  DispatchPhase phase;
  phase.spec = spec;
  const std::int64_t t0 = now_ns();
  const std::int32_t bring_up = tracer().begin("cluster/bring_up");
  std::vector<std::unique_ptr<ServerNode>> servers;
  ClientOptions client_options;
  client_options.policy = finelb::PolicyConfig::polling(kDispatchPollSize);
  for (int i = 0; i < kDispatchServers; ++i) {
    ServerOptions options;
    options.id = i;
    options.worker_threads = 1;
    options.inject_busy_reply_delay = false;
    options.seed = spec.seed * 131 + static_cast<std::uint64_t>(i);
    if (spec.trace_period > 0) {
      // Live ring; the client's propagated trace ids pick the records.
      options.trace_sample_period = 1u << 30;
      options.trace_capacity = 1 << 15;
    }
    servers.push_back(std::make_unique<ServerNode>(options));
    servers.back()->start();
    client_options.servers.push_back(
        {i, servers.back()->service_address(), servers.back()->load_address()});
  }
  client_options.total_requests = spec.accesses;
  client_options.warmup_requests = std::min<std::int64_t>(spec.accesses / 10, 1000);
  client_options.response_timeout = spec.response_timeout;
  client_options.trace_sample_period = spec.trace_period;
  if (spec.trace_period > 0) client_options.trace_capacity = 1 << 16;
  client_options.seed = spec.seed;
  auto source =
      std::make_unique<OpenLoopSource>(spec.rate_per_s, spec.seed, spec.accesses);
  OpenLoopSource* source_view = source.get();
  ClientNode client(std::move(client_options), std::move(source));
  tracer().end(bring_up);
  phase.setup_s = seconds_between(t0, now_ns());

  std::int64_t counters_before = counter_total(client.metrics());
  for (const auto& s : servers) counters_before += counter_total(s->metrics());
  const std::int64_t allocs_before = allocations();
  const double process_cpu0 = process_cpu_s();
  const double client_cpu0 = thread_cpu_s();
  const std::int64_t r0 = now_ns();
  {
    ScopedSpan span("cluster/ClientNode::run");
    client.run();
  }
  phase.run_s = seconds_between(r0, now_ns());
  phase.client_cpu_s = thread_cpu_s() - client_cpu0;
  phase.process_cpu_s = process_cpu_s() - process_cpu0;
  phase.allocations = allocations() - allocs_before;
  {
    // Each stop() waits out its receive loops' 50 ms poll; stopping the
    // servers side by side keeps tear-down at one such wait.
    ScopedSpan span("cluster/ServerNode::stop");
    std::vector<std::thread> stoppers;
    for (auto& s : servers) stoppers.emplace_back([&s] { s->stop(); });
    for (auto& t : stoppers) t.join();
  }

  phase.client = client.stats();
  std::int64_t counters_after = counter_total(client.metrics());
  for (const auto& s : servers) {
    phase.servers.push_back(s->counters());
    counters_after += counter_total(s->metrics());
  }
  phase.counter_bumps = counters_after - counters_before;
  phase.server_queue_wait_p50_us = merged_p50_ms(servers, "queue_wait_ms") * 1e3;
  phase.server_service_p50_us = merged_p50_ms(servers, "service_time_ms") * 1e3;
  phase.lag_us = std::move(source_view->lag_us());
  if (spec.trace_period > 0) {
    // One process, one CLOCK_MONOTONIC: no clock offsets to estimate.
    phase.traces.push_back({"client.0", 0, client.trace().snapshot()});
    for (const auto& s : servers) {
      phase.traces.push_back(
          {"server." + std::to_string(s->id()), 0, s->trace().snapshot()});
    }
  }
  return phase;
}

void check_dispatch_phase(const DispatchPhase& phase, const char* label,
                          Report& report) {
  const auto& c = phase.client;
  std::int64_t served = 0;
  std::int64_t server_failures = 0;
  for (const auto& s : phase.servers) {
    served += s.requests_served;
    server_failures += s.send_failures;
  }
  const std::string prefix = std::string("dispatch.") + label + ".";
  const std::string counts = "issued " + std::to_string(c.issued) +
                             " completed " + std::to_string(c.completed) +
                             " served " + std::to_string(served) + " polls " +
                             std::to_string(c.polls_sent);
  report.check(c.issued == phase.spec.accesses && c.completed == c.issued,
               prefix + "completed_equals_issued", counts);
  report.check(served == c.completed, prefix + "served_equals_completed",
               counts);
  report.check(c.polls_sent == kDispatchPollSize * c.issued,
               prefix + "polls_per_access", counts);
  report.check(c.send_failures == 0 && server_failures == 0,
               prefix + "no_send_failures");
}

void report_dispatch_layers(const DispatchPhase& light, Report& report) {
  const auto& c = light.client;
  const double issued = static_cast<double>(std::max<std::int64_t>(c.issued, 1));
  report.layer("cluster.polls_per_access",
               static_cast<double>(c.polls_sent) / issued, "count");
  report.layer("cluster.poll_useful_share",
               c.polls_sent > 0 ? static_cast<double>(c.poll_replies_used) /
                                      static_cast<double>(c.polls_sent)
                                : 0.0,
               "ratio");
  report.layer("cluster.poll_time_mean_us", c.poll_time_ms.mean() * 1e3, "us");
  report.layer("cluster.poll_rtt_p50_us", hist_quantile(c.poll_rtt_ms, 0.5) * 1e3,
               "us");
  report.layer("cluster.queue_at_arrival_mean", c.queue_at_arrival.mean(),
               "count");
  report.layer("cluster.server_queue_wait_p50_us",
               light.server_queue_wait_p50_us, "us");
  report.layer("cluster.server_service_p50_us", light.server_service_p50_us,
               "us");
  report.layer("telemetry.counter_bumps_per_access",
               static_cast<double>(light.counter_bumps) / issued, "count");
  std::vector<double> lag = light.lag_us;
  report.layer("bench.issue_lag_p50_us.light", quantile(lag, 0.5), "us");
  report.layer("bench.issue_lag_p99_us.light", quantile(lag, 0.99), "us");
}

double dispatch_allocs_per_access(std::uint64_t seed) {
  constexpr std::int64_t kN = 1000;
  DispatchSpec spec;
  spec.rate_per_s = kLightRate;
  spec.seed = seed;
  spec.accesses = kN;
  const std::int64_t a1 = run_dispatch_phase(spec).allocations;
  spec.accesses = 2 * kN;
  const std::int64_t a2 = run_dispatch_phase(spec).allocations;
  return static_cast<double>(a2 - a1) / static_cast<double>(kN);
}

namespace {

/// One rate measured as consecutive kWindowSeconds windows, each on a fresh
/// cluster, combined with over_windows().
struct RatePoint {
  std::vector<DispatchPhase> windows;
  /// Accesses of windows run again because of steal (checked, not kept).
  std::int64_t discarded_accesses = 0;

  double over(double (*stat)(const DispatchPhase&)) const {
    std::vector<double> values;
    for (const DispatchPhase& w : windows) values.push_back(stat(w));
    return over_windows(std::move(values));
  }
};

/// A window during which the hypervisor stole more than this share of the
/// host's CPU time is run again, once, while the rate's retry budget
/// lasts. Calm periods on a shared 4-vCPU host steal under 1%; in busy ones
/// stolen bursts hit most windows and move every latency by tens of percent.
constexpr double kMaxStealShare = 0.02;
/// Retries per rate: bounds how much a busy host can lengthen a run.
constexpr int kStealRetries = 10;

RatePoint run_rate(double rate, double seconds, std::uint64_t seed,
                   std::uint32_t trace_period, const char* label, Report& report) {
  const int windows = std::max(3, static_cast<int>(seconds / kWindowSeconds));
  RatePoint point;
  int retries = 0;
  for (int i = 0; i < windows; ++i) {
    DispatchSpec spec;
    spec.rate_per_s = rate;
    spec.accesses = static_cast<std::int64_t>(rate * kWindowSeconds);
    spec.seed = seed + 1000 * static_cast<std::uint64_t>(i);
    spec.trace_period = i == 0 ? trace_period : 0;
    CpuTicks before = cpu_ticks();
    DispatchPhase window = run_dispatch_phase(spec);
    if (steal_share(before, cpu_ticks()) > kMaxStealShare && retries < kStealRetries) {
      ++retries;
      check_dispatch_phase(window, label, report);
      point.discarded_accesses += window.client.issued;
      window = run_dispatch_phase(spec);
    }
    check_dispatch_phase(window, label, report);
    point.windows.push_back(std::move(window));
  }
  report.info(std::string("dispatch.steal_retries.") + label, retries);
  return point;
}

double p50_us(const DispatchPhase& w) {
  return hist_quantile(w.client.response_hist_ms, 0.5) * 1e3;
}
double p99_us(const DispatchPhase& w) {
  return hist_quantile(w.client.response_hist_ms, 0.99) * 1e3;
}
double p90_us(const DispatchPhase& w) {
  return hist_quantile(w.client.response_hist_ms, 0.90) * 1e3;
}
double mean_us(const DispatchPhase& w) {
  return w.client.response_ms.mean() * 1e3;
}
/// Accesses per second the host's CPUs carry at this window's cost:
/// nproc * accesses / process CPU seconds spent while the client ran.
double cpu_capacity(const DispatchPhase& w) {
  return static_cast<double>(std::thread::hardware_concurrency()) *
         static_cast<double>(w.client.issued) / w.process_cpu_s;
}
/// The same bound for the client node's event loop alone.
double client_cpu_capacity(const DispatchPhase& w) {
  return static_cast<double>(w.client.issued) / w.client_cpu_s;
}

}  // namespace

double measured_capacity(std::uint64_t seed, Report& report) {
  // The better of two ladders: a neighbour's burst on the host lowers one
  // ladder, rarely both.
  ScopedSpan span("bench/capacity_ladder");
  std::vector<double> capacity;
  int steps = 0;
  for (int ladder = 0; ladder < 2; ++ladder) {
    const Ladder result =
        climb(seed + 100 + 50 * static_cast<std::uint64_t>(ladder), kLadderSeconds);
    steps += result.steps;
    if (result.capacity > 0.0) capacity.push_back(result.capacity);
  }
  report.check(capacity.size() == 2, "dispatch.capacity_found",
               std::to_string(steps) + " ladder steps");
  return capacity.empty() ? 0.0 : *std::max_element(capacity.begin(), capacity.end());
}

void run_dispatch_zero_service(const Options& options, Report& report) {
  std::vector<double> setup_s;
  std::int64_t attempted = 0;

  const std::int64_t light_start = now_ns();
  RatePoint light;
  {
    ScopedSpan span("bench/light_rate");
    light = run_rate(kLightRate, 0.5 * options.seconds, options.seed,
                     options.trace ? 8 : 0, "light", report);
  }
  RatePoint loaded;
  {
    ScopedSpan span("bench/loaded_rate");
    loaded = run_rate(kLoadedRate, 0.5 * options.seconds, options.seed + 1, 0,
                      "loaded", report);
  }
  for (const RatePoint* point : {&light, &loaded}) {
    attempted += point->discarded_accesses;
    for (const DispatchPhase& w : point->windows) {
      setup_s.push_back(w.setup_s);
      attempted += w.client.issued;
    }
  }
  // The first set-up also covers process start.
  setup_s.front() += seconds_between(g_process_start_ns, light_start);
  report.add_operations(attempted, 0);

  report.metric("setup_s", median(setup_s), "s");
  report.metric("throughput_per_s", loaded.over(cpu_capacity), "1/s");
  report.metric("latency_mean_us", loaded.over(mean_us), "us");
  report.metric("latency_p50_us.light", light.over(p50_us), "us");
  report.metric("latency_p90_us.light", light.over(p90_us), "us");
  report.metric("latency_p50_us.loaded", loaded.over(p50_us), "us");
  report.metric("latency_p90_us.loaded", loaded.over(p90_us), "us");
  report.info("dispatch.client_cpu_capacity_per_s", loaded.over(client_cpu_capacity));
  report.info("dispatch.windows_per_rate", static_cast<double>(light.windows.size()));

  if (options.trace) {
    report.layer("bench.latency_p99_us.light", light.over(p99_us), "us");
    report.layer("bench.latency_p99_us.loaded", loaded.over(p99_us), "us");
    report_dispatch_layers(light.windows.front(), report);
    report_lifecycle(light.windows.front().traces, report);
    report.layer("cluster.allocs_per_access",
                 dispatch_allocs_per_access(options.seed), "count");
    report.layer("bench.capacity_per_s", measured_capacity(options.seed, report),
                 "1/s");
  }
}

}  // namespace perfbench
