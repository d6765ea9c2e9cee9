// paper_fine_grain: the paper's prototype experiment (Figure 6 / Table 2
// setting) through cluster::run_prototype: 16 servers, 4 client nodes,
// polling(3) with the 1 ms discard, the busy-reply delay injection, the
// Fine-Grain trace, and the availability directory on.
//
// The ~22 ms service sleep dominates every access, so a microsecond-level
// speed-up of the wire path should show no change here; a change to
// selection, discard or poll timing shows in the response time.
//
// Three run_prototype calls: one at 50% busy (light) and two halves at 90%
// busy (loaded, the paper's headline setting), each on a freshly
// synthesized trace and a fresh cluster, so set-up is sampled three times.
#include <cstdio>

#include "cluster/experiment.h"
#include "probes.h"
#include "workload/catalog.h"

namespace perfbench {
namespace {

constexpr int kServers = 16;
constexpr int kClients = 4;
constexpr double kLight = 0.5;
constexpr double kLoaded = 0.9;
constexpr std::size_t kTraceLen = 50'000;
/// Share of the time budget spent at the light load.
constexpr double kLightShare = 0.35;

struct Call {
  finelb::cluster::PrototypeResult result;
  double setup_s = 0.0;
  double synthesis_s = 0.0;
  std::int64_t requests = 0;
};

Call run_call(double load, double seconds, std::uint64_t seed, bool traced) {
  const std::int64_t t0 = now_ns();
  Call call;
  finelb::Workload workload = [&] {
    ScopedSpan span("workload/make_fine_grain");
    return finelb::make_fine_grain(kTraceLen, seed + 20);
  }();
  call.synthesis_s = seconds_between(t0, now_ns());
  finelb::cluster::PrototypeConfig config;
  config.servers = kServers;
  config.clients = kClients;
  config.policy = finelb::PolicyConfig::polling(3, finelb::from_ms(1));
  config.load = load;
  // Offered accesses/s = servers * load / (mean service + overhead).
  const double rate =
      kServers * load /
      (workload.mean_service_sec() + config.per_request_overhead_sec);
  config.total_requests =
      std::max<std::int64_t>(kClients * 50, static_cast<std::int64_t>(rate * seconds));
  config.seed = seed;
  if (traced) {
    config.trace_sample_period = 8;
    config.collect_traces = true;
  }
  call.requests = config.total_requests / kClients * kClients;
  {
    ScopedSpan span("cluster/run_prototype");
    call.result = finelb::cluster::run_prototype(config, workload);
  }
  // Everything but the measured window: synthesis, bring-up of servers,
  // directory and clients, and tear-down.
  call.setup_s = seconds_between(t0, now_ns()) - call.result.wall_sec;
  return call;
}

void check_call(const Call& call, const char* label, Report& report) {
  const auto& c = call.result.clients;
  char detail[160];
  std::snprintf(detail, sizeof detail,
                "issued %lld of %lld, completed %lld, timed out %lld",
                static_cast<long long>(c.issued),
                static_cast<long long>(call.requests),
                static_cast<long long>(c.completed),
                static_cast<long long>(c.response_timeouts));
  report.check(c.issued == call.requests &&
                   c.completed + c.response_timeouts == c.issued,
               std::string("paper.") + label + ".every_access_resolved",
               detail);
}

}  // namespace

void run_paper_fine_grain(const Options& options, Report& report) {
  const double light_s = kLightShare * options.seconds;
  const double loaded_s = (1.0 - kLightShare) * options.seconds / 2.0;
  const std::int64_t first_start = now_ns();
  Call light = run_call(kLight, light_s, options.seed, false);
  // The first set-up also covers process start.
  light.setup_s += seconds_between(g_process_start_ns, first_start);
  Call loaded_a = run_call(kLoaded, loaded_s, options.seed + 1, false);
  Call loaded_b = run_call(kLoaded, loaded_s, options.seed + 2, options.trace);
  check_call(light, "light", report);
  check_call(loaded_a, "loaded_a", report);
  check_call(loaded_b, "loaded_b", report);

  finelb::cluster::ClientStats loaded = loaded_a.result.clients;
  loaded.merge(loaded_b.result.clients);
  const auto& lo = light.result.clients;
  report.add_operations(lo.issued + loaded.issued,
                        lo.response_timeouts + loaded.response_timeouts);

  report.metric("setup_s",
                median({light.setup_s, loaded_a.setup_s, loaded_b.setup_s}),
                "s");
  report.metric("throughput_per_s",
                static_cast<double>(loaded.completed) /
                    (loaded_a.result.wall_sec + loaded_b.result.wall_sec),
                "1/s");
  report.metric("latency_mean_us", loaded.response_ms.mean() * 1e3, "us");
  report.metric("latency_p50_us.loaded",
                hist_quantile(loaded.response_hist_ms, 0.5) * 1e3, "us");
  report.metric("latency_p90_us.loaded",
                hist_quantile(loaded.response_hist_ms, 0.90) * 1e3, "us");
  report.metric("latency_p50_us.light",
                hist_quantile(lo.response_hist_ms, 0.5) * 1e3, "us");
  report.metric("latency_p90_us.light",
                hist_quantile(lo.response_hist_ms, 0.90) * 1e3, "us");
  report.info("paper.loaded_accesses", static_cast<double>(loaded.issued));
  report.info("paper.light_accesses", static_cast<double>(lo.issued));
  report.info("paper.polls_discarded_share",
              loaded.polls_sent > 0 ? static_cast<double>(loaded.polls_discarded) /
                                          static_cast<double>(loaded.polls_sent)
                                    : 0.0);

  if (options.trace) {
    report.layer("bench.latency_p99_us.light",
                 hist_quantile(lo.response_hist_ms, 0.99) * 1e3, "us");
    report.layer("bench.latency_p99_us.loaded",
                 hist_quantile(loaded.response_hist_ms, 0.99) * 1e3, "us");
    const double issued = static_cast<double>(std::max<std::int64_t>(loaded.issued, 1));
    report.layer("cluster.polls_per_access",
                 static_cast<double>(loaded.polls_sent) / issued, "count");
    report.layer("cluster.poll_useful_share",
                 loaded.polls_sent > 0
                     ? static_cast<double>(loaded.poll_replies_used) /
                           static_cast<double>(loaded.polls_sent)
                     : 0.0,
                 "ratio");
    report.layer("cluster.poll_time_mean_us", loaded.poll_time_ms.mean() * 1e3,
                 "us");
    report.layer("cluster.poll_rtt_p50_us",
                 hist_quantile(loaded.poll_rtt_ms, 0.5) * 1e3, "us");
    report.layer("cluster.queue_at_arrival_mean", loaded.queue_at_arrival.mean(),
                 "count");
    report.layer("workload.synthesis_s",
                 median({light.synthesis_s, loaded_a.synthesis_s,
                         loaded_b.synthesis_s}),
                 "s");
    report_lifecycle(loaded_b.result.node_traces, report);
  }
}

}  // namespace perfbench
