// Pieces shared between the workloads and the layer probes: the simulator
// configuration, one phase of the zero-service dispatch cluster, the
// lifecycle split of merged runtime traces, and histogram quantiles.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/client_node.h"
#include "cluster/server_node.h"
#include "harness.h"
#include "sim/config.h"
#include "stats/histogram.h"
#include "telemetry/merge.h"
#include "workload/workload.h"

namespace perfbench {

/// Quantile of a LatencyHistogram, linearly interpolated inside the bucket
/// that holds the rank (LatencyHistogram::quantile returns the bucket's
/// midpoint, which would make close runs read identical values).
double hist_quantile(const finelb::LatencyHistogram& hist, double q);

// --- simulator ----------------------------------------------------------------

/// 16 servers, 6 client streams, polling(3), no discard: the Figure 4
/// model at per-server load `load`.
finelb::sim::SimConfig sim_config(double load, std::int64_t accesses,
                                  std::uint64_t seed);
/// Trace length synthesized for the Fine-Grain workload.
inline constexpr std::size_t kFineTraceLen = 100'000;

/// Reports the sim/workload/core/stats per-layer metrics for one
/// run_cluster_sim call that simulated `accesses` accesses in `run_s`.
void report_sim_layers(const finelb::sim::SimResult& result, double run_s,
                       std::int64_t accesses, const finelb::Workload& workload,
                       std::uint64_t seed, Report& report);

// --- zero-service dispatch cluster ----------------------------------------------

inline constexpr int kDispatchServers = 4;
inline constexpr int kDispatchPollSize = 3;

struct DispatchSpec {
  double rate_per_s = 5000.0;
  std::int64_t accesses = 1000;
  std::uint64_t seed = 1;
  finelb::SimDuration response_timeout = 2 * finelb::kSecond;
  /// Lifecycle trace sampling for client and servers (0 = off).
  std::uint32_t trace_period = 0;
};

struct DispatchPhase {
  DispatchSpec spec;
  double setup_s = 0.0;
  double run_s = 0.0;
  finelb::cluster::ClientStats client;
  std::vector<finelb::cluster::ServerCounters> servers;
  /// Issue lag (due time -> issued) of every access, in order, in us.
  std::vector<double> lag_us;
  /// Sum of every registry counter (client + servers) bumped by the run.
  std::int64_t counter_bumps = 0;
  /// Process-wide heap allocations made while the client ran.
  std::int64_t allocations = 0;
  /// CPU seconds while the client ran: the whole process (client, servers,
  /// kernel work charged to them) and the client's event loop alone.
  double process_cpu_s = 0.0;
  double client_cpu_s = 0.0;
  /// Server-side queue wait and service time p50 (us), from the servers'
  /// registries.
  double server_queue_wait_p50_us = 0.0;
  double server_service_p50_us = 0.0;
  /// Client and server trace rings (spec.trace_period > 0).
  std::vector<finelb::telemetry::NodeTrace> traces;
};

/// Brings up kDispatchServers ServerNodes (busy-reply injection off,
/// service_us = 0) and one polling(3) ClientNode fed by an open-loop
/// Poisson source, runs the client to completion on the calling thread,
/// and tears everything down.
DispatchPhase run_dispatch_phase(const DispatchSpec& spec);

/// Adds the output checks of a completed phase: every access completed,
/// served once, polled kDispatchPollSize times, and no send failures.
void check_dispatch_phase(const DispatchPhase& phase, const char* label,
                          Report& report);

/// cluster.* and telemetry.* per-layer metrics of a light-rate phase.
void report_dispatch_layers(const DispatchPhase& light, Report& report);

/// Marginal heap allocations per access at the light rate: (A(2N) - A(N))/N
/// over two otherwise identical phases, so set-up allocations cancel.
double dispatch_allocs_per_access(std::uint64_t seed);

/// Highest open-loop rate one client node sustains, measured with two
/// rate ladders (see workload_dispatch.cc); the better ladder wins.
double measured_capacity(std::uint64_t seed, Report& report);

/// lifecycle.* per-layer metrics from merged client/server traces: the
/// poll round, pick -> dispatch, dispatch -> service start, service, and
/// response hop p50s of every fully traced access.
void report_lifecycle(const std::vector<finelb::telemetry::NodeTrace>& traces,
                      Report& report);

}  // namespace perfbench
