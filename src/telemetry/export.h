// Snapshot exporters: JSON and human-readable text, plus the two push
// channels — a periodic stderr reporter and a SIGUSR1 dump trigger.
//
// The pull channel (STATS_INQUIRY over the load-index UDP socket) lives with
// the nodes that answer it; telemetry/scrape.h holds the client side.
#pragma once

#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/time.h"
#include "net/stop_signal.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace finelb::telemetry {

/// Renders one node's snapshot as a single JSON object:
///   {"node":"server.3","counters":{...},"gauges":{...},"values":{...},
///    "histograms":{"service_time_ms":{"count":...,"mean":...,"p50":...,
///    "p95":...,"p99":...,"min":...,"max":...,"buckets":[[v,n],...]}}}
std::string to_json(const MetricsSnapshot& snapshot);

/// Same, with a "trace" array of sampled lifecycle records appended.
std::string to_json(const MetricsSnapshot& snapshot,
                    const std::vector<TraceRecord>& trace);

/// Aligned human-readable block, one metric per line.
std::string to_text(const MetricsSnapshot& snapshot);

/// Prometheus text exposition (version 0.0.4): every metric is prefixed
/// `finelb_`, name-sanitized to [a-zA-Z0-9_:], and labeled with the node
/// (`finelb_polls_sent{node="client.0"} 42`). Counters render as `counter`
/// with a `_total`-preserving name, gauges and values as `gauge`, and each
/// histogram as the conventional cumulative `_bucket{le="..."}` series plus
/// `_sum` and `_count` (bucket thresholds come from the snapshot's occupied
/// log-bucket upper bounds; `le="+Inf"` closes the series).
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// Concatenated exposition for a node set, with `# TYPE` lines emitted once
/// per metric family (Prometheus rejects duplicate TYPE declarations).
std::string cluster_to_prometheus(const std::vector<MetricsSnapshot>& nodes);

/// Merges per-node JSON documents into {"nodes":[...]} — inputs must
/// already be valid JSON objects (e.g. from to_json or a STATS_REPLY).
std::string cluster_to_json(const std::vector<std::string>& node_documents);

/// Installs a SIGUSR1 handler that requests a stats dump. The handler only
/// sets an atomic flag and writes a process-wide eventfd (both
/// async-signal-safe); a StderrReporter, woken by that eventfd — or any
/// loop calling consume_dump_request() — performs the actual dump.
void install_sigusr1_dump_handler();

/// Requests a dump as if SIGUSR1 had arrived (used by tests).
void trigger_stats_dump();

/// Returns true at most once per requested dump, clearing the flag.
bool consume_dump_request();

/// Background thread that writes `collect()` to stderr every `period`
/// (0 disables the periodic channel) and whenever a dump was requested via
/// SIGUSR1 / trigger_stats_dump(). `collect` runs on the reporter thread
/// and must be safe to call concurrently with the instrumented workload.
/// The thread sleeps until the next period, a dump request or stop(); it
/// has no polling slice.
class StderrReporter {
 public:
  using Collect = std::function<std::string()>;

  StderrReporter(Collect collect, SimDuration period);
  ~StderrReporter();

  StderrReporter(const StderrReporter&) = delete;
  StderrReporter& operator=(const StderrReporter&) = delete;

  void stop();

 private:
  void run();

  Collect collect_;
  SimDuration period_;
  std::atomic<bool> running_{false};
  net::StopSignal stop_;
  std::thread thread_;
};

}  // namespace finelb::telemetry
