// Prototype server node (paper §3.1, Figure 5 right half).
//
// Each server node owns:
//   * a service access point — a UDP socket receiving ServiceRequest
//     datagrams, feeding a FIFO request queue drained by a worker thread
//     pool (default pool size 1, matching the simulator's non-preemptive
//     processing unit). Workers run each request through the node's
//     request handler: by default the experiment service (hold the worker
//     for the request's service_us), or an application's RPC methods
//     (neptune::MethodTable);
//   * a load-index server — a second UDP socket answering LoadInquiry
//     datagrams with the node's current queue length, and the
//     observability pull channel's PullInquiry datagrams through the node's
//     telemetry::PullEndpoint;
//   * an optional publisher that announces the node on the service
//     availability channel as refreshed soft state.
//
// The queue length ("total number of active service accesses") increments
// when a request datagram is accepted and decrements after its response is
// sent, so it covers both queued and in-service accesses.
//
// Busy-reply delay model: on the paper's cluster, a server whose CPUs were
// saturated by service work answered UDP load inquiries late (§3.2: 8.1% of
// polls over 1 ms and 5.6% over 2 ms at 90% load, yet a ~2.6 ms *mean*
// polling time — i.e. the slow polls were rare but timeslice-scale slow,
// tens of milliseconds on 2.2-era Linux). Our workers sleep instead of
// spinning (single-CPU host, DESIGN.md §3), so the load-index thread would
// always answer instantly; to preserve the phenomenon the load-index server
// injects a two-part delay whenever the node has active accesses:
//   * with probability busy_slow_prob, a scheduler-stall delay of
//     busy_slow_min + Exp(busy_slow_excess), capped at busy_slow_cap
//     (defaults 5%, 8 ms + Exp(8 ms), cap 40 ms);
//   * otherwise a short Pareto(busy_reply_alpha, busy_reply_xm) network/
//     stack tail capped at busy_reply_cap (defaults 1.3, 80 us, cap 2 ms).
// The defaults land on the paper's measured profile (~8% over 1 ms, ~5%
// over 2 ms, poll-round mean in the low milliseconds). Disable via
// ServerOptions::inject_busy_reply_delay for a clean-network ablation.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "core/load_index.h"
#include "fault/fault.h"
#include "net/message.h"
#include "net/socket.h"
#include "net/stop_signal.h"
#include "telemetry/metrics.h"
#include "telemetry/scrape.h"
#include "telemetry/trace.h"

namespace finelb::cluster {

/// Serves one request on a worker thread by setting `response.status` and
/// `response.result`; the node fills in every other response field. Runs
/// concurrently with itself when the pool has more than one worker.
using RequestHandler = std::function<void(const net::ServiceRequest& request,
                                          net::ServiceResponse& response)>;

struct ServerOptions {
  ServerId id = 0;
  /// Worker pool size; 1 mirrors the simulator's single processing unit.
  int worker_threads = 1;
  /// Request handler; empty = the experiment service, which holds the
  /// worker until service_us after dequeue (deadline sleep, DESIGN.md §3).
  RequestHandler handler;

  bool inject_busy_reply_delay = true;
  // Short tail (network stack / softirq): Pareto(alpha, x_m), capped.
  double busy_reply_alpha = 1.3;
  SimDuration busy_reply_xm = from_us(80);
  SimDuration busy_reply_cap = from_ms(2);
  // Rare scheduler stall: min + Exp(excess), capped.
  double busy_slow_prob = 0.05;
  SimDuration busy_slow_min = from_ms(8);
  SimDuration busy_slow_excess = from_ms(8);
  SimDuration busy_slow_cap = from_ms(40);

  /// Fault injector attached to the service and load-index sockets
  /// (loss/dup/delay per fault/fault.h). Null = no injection.
  std::shared_ptr<fault::FaultInjector> fault;

  /// Lifecycle tracing: every Nth request (by request id) leaves
  /// kServiceStart/kResponse records in the node's trace ring; 0 = off.
  /// Requests and load inquiries carrying a wire `trace_id` were sampled by
  /// the issuing client and are recorded under that id whenever the ring is
  /// live, regardless of this period. The ring is served to scrapers in
  /// chunks via trace pulls on the load socket (telemetry/scrape.h).
  std::uint32_t trace_sample_period = 0;
  std::size_t trace_capacity = 256;

  std::uint64_t seed = 1;
};

struct ServerCounters {
  std::int64_t requests_served = 0;
  std::int64_t inquiries_answered = 0;
  std::int32_t max_queue_length = 0;
  std::int64_t send_failures = 0;
};

class ServerNode {
 public:
  explicit ServerNode(ServerOptions options);
  ~ServerNode();

  ServerNode(const ServerNode&) = delete;
  ServerNode& operator=(const ServerNode&) = delete;

  /// Starts the receive loops and worker pool. Idempotent-hostile: call
  /// exactly once.
  void start();

  /// Stops all threads and closes the queue; joins before returning.
  /// Every loop wakes on the node's stop signal, so this takes as long as
  /// the in-flight request, not a poll slice.
  void stop();

  /// Begins periodic soft-state announcements to the availability channel:
  /// one Publish per hosted partition, sent to *every* directory replica
  /// each round. Publishing to all replicas (rather than just the leader)
  /// is what lets directory failover skip log replication — every
  /// replica's soft-state table converges independently within one refresh
  /// interval (DESIGN.md §12). Must be called before start().
  void enable_publishing(std::vector<net::Address> directories,
                         std::string service,
                         std::vector<std::uint32_t> partitions,
                         SimDuration interval, SimDuration ttl);

  /// Begins periodic load announcements on a broadcast channel — the
  /// server-side half of the §2.2 broadcast policy (prototype extension;
  /// the paper only simulated it). Intervals are jittered over
  /// [0.5, 1.5] x mean unless `jitter` is false (self-synchronization
  /// ablation). Must be called before start().
  void enable_load_broadcast(const net::Address& channel,
                             SimDuration mean_interval, bool jitter = true);

  ServerId id() const { return options_.id; }
  net::Address service_address() const;
  net::Address load_address() const;

  /// Current load index (active accesses).
  std::int32_t queue_length() const {
    return qlen_.load(std::memory_order_relaxed);
  }

  ServerCounters counters() const;

  /// Telemetry registry (metric naming: DESIGN.md §10). Scraping via
  /// metrics().snapshot() is safe while the node is running.
  const telemetry::Registry& metrics() const { return metrics_; }
  const telemetry::TraceRing& trace() const { return trace_; }

  /// The node's snapshot (+ sampled trace) as JSON — what a stats pull on
  /// the load socket answers with.
  std::string stats_json() const { return pull_.stats_json(); }

 private:
  struct WorkItem {
    net::ServiceRequest request;
    net::Address reply_to;
    std::int32_t queue_at_arrival = 0;
    SimTime enqueued_at = 0;
  };

  void service_recv_loop();
  void load_recv_loop();
  void publish_loop();
  void broadcast_loop();
  void worker_loop();

  ServerOptions options_;
  net::UdpSocket service_socket_;
  net::UdpSocket load_socket_;

  bool started_ = false;  // single-shot lifecycle: start() once, ever
  std::atomic<bool> running_{false};
  net::StopSignal stop_;  // wakes the receive, publish and broadcast loops
  std::atomic<std::int32_t> qlen_{0};
  std::atomic<std::int64_t> served_{0};
  std::atomic<std::int64_t> inquiries_{0};
  std::atomic<std::int32_t> max_qlen_{0};
  std::atomic<std::int64_t> send_failures_{0};

  // Telemetry: counters/histograms are handles into metrics_ (created once
  // in the constructor; recording is lock- and allocation-free), queue depth
  // is exposed as a probe gauge reading qlen_ at scrape time.
  telemetry::Registry metrics_;
  telemetry::TraceRing trace_;
  telemetry::Counter m_served_;
  telemetry::Counter m_inquiries_;
  telemetry::Counter m_send_failures_;
  telemetry::Histogram m_service_time_ms_;
  telemetry::Histogram m_queue_wait_ms_;
  telemetry::PullEndpoint pull_;

  // Worker pool + request queue (defined in server_node.cc to keep the
  // header light).
  class Queue;
  std::unique_ptr<Queue> queue_;
  std::vector<std::thread> threads_;

  // Publishing (optional). One target for the classic single directory,
  // several when the directory is replicated.
  bool publish_enabled_ = false;
  std::vector<net::Address> directories_;
  std::string publish_service_;
  std::vector<std::uint32_t> publish_partitions_;
  SimDuration publish_interval_ = 0;
  SimDuration publish_ttl_ = 0;

  // Load broadcasting (optional, extension).
  bool broadcast_enabled_ = false;
  net::Address broadcast_channel_{};
  SimDuration broadcast_interval_ = 0;
  bool broadcast_jitter_ = true;
};

}  // namespace finelb::cluster
