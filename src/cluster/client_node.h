// Prototype client node (paper §3.1, Figure 5 left half).
//
// A client node drives an open-loop request stream against the server set.
// It is a single-threaded event loop multiplexed with ppoll(2), mirroring
// the paper's polling agent, which "sends out load inquiry requests ...
// through connected UDP sockets and asynchronously collects the responses
// using select":
//
//   * one connected UDP socket per server for load inquiries;
//   * one UDP socket for service requests/responses;
//   * one connected UDP socket to the centralized load-index manager (used
//     only when emulating IDEAL).
//
// Arrivals are paced by absolute deadlines accumulated from the workload's
// inter-arrival intervals, so the stream is open: a slow access never
// throttles subsequent arrivals (queueing happens at the servers, as in the
// paper, not in the client).
//
// Policy execution per access:
//   random / round-robin — dispatch immediately;
//   polling(d)           — send d inquiries, dispatch on the last reply or
//                          on the discard deadline (paper §3.2), whichever
//                          comes first; with the optimization off, a
//                          max_poll_wait backstop guards against UDP loss;
//   ideal                — Acquire from the manager, dispatch to its answer,
//                          Release on completion.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/directory.h"
#include "common/rng.h"
#include "core/load_cache.h"
#include "core/policy.h"
#include "core/poll_round.h"
#include "core/selection.h"
#include "fault/fault.h"
#include "net/poller.h"
#include "net/socket.h"
#include "stats/accumulator.h"
#include "stats/histogram.h"
#include "telemetry/decision.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "workload/workload.h"

namespace finelb::cluster {

struct ServerEndpoints {
  ServerId id = 0;
  net::Address service_addr;
  net::Address load_addr;
};

struct ClientOptions {
  int id = 0;
  PolicyConfig policy;
  std::vector<ServerEndpoints> servers;
  std::optional<net::Address> ideal_manager;
  /// Broadcast channel address; required by the broadcast policy
  /// (prototype extension — see cluster/broadcast_channel.h).
  std::optional<net::Address> broadcast_channel;
  /// Accesses this client issues (its share of the experiment total).
  std::int64_t total_requests = 1000;
  /// Leading accesses excluded from statistics.
  std::int64_t warmup_requests = 100;
  /// Backstop wait for poll replies when the discard optimization is off
  /// (UDP can drop; the basic policy would otherwise wait forever).
  SimDuration max_poll_wait = 50 * kMillisecond;
  /// Wait for the IDEAL manager before falling back to a random server.
  SimDuration manager_timeout = 50 * kMillisecond;
  /// An access not answered within this bound counts as failed — the same
  /// 2-second criterion the paper's load calibration uses (§4).
  SimDuration response_timeout = 2 * kSecond;

  // --- failure hardening (all off by default; seed behavior unchanged) -----

  /// Fault injector attached to every socket this client owns (loss/dup/
  /// delay per fault/fault.h). Null = no injection.
  std::shared_ptr<fault::FaultInjector> fault;
  /// A server whose access times out is excluded from candidate sets for
  /// this long (0 disables). Keeps poll rounds and requests away from dead
  /// nodes while the directory's soft-state TTL catches up.
  SimDuration blacklist_cooldown = 0;
  /// Consecutive response timeouts from one server before it is
  /// blacklisted. 1 = first strike. Under ambient message loss a single
  /// timeout is weak evidence (a dead server fails every access, a lossy
  /// link only a fraction), so raising this keeps the blacklist from
  /// thrashing on healthy servers.
  int blacklist_after = 1;
  /// When set, the client re-fetches the service mapping from this
  /// directory every `mapping_refresh`, and marks endpoints missing from
  /// the snapshot unavailable — how a killed server's expired entry makes
  /// subsequent polls route around it mid-run.
  std::optional<net::Address> directory;
  /// Replicated-directory form: every replica's data address. Takes
  /// precedence over `directory` when non-empty; the client fails over
  /// between replicas and follows leader redirects (cluster/ha/).
  std::vector<net::Address> directory_replicas;
  std::string directory_service;
  SimDuration mapping_refresh = 0;
  /// Bucket width for the per-client completion/failure timeline used by
  /// the fault-tolerance bench to measure recovery (0 disables).
  SimDuration timeline_bucket = 0;
  /// A timed-out access is re-dispatched (to a fresh candidate, after the
  /// failing server is blacklisted) up to this many times before counting
  /// as failed. 0 = fail on first timeout, the paper's behavior.
  int max_access_retries = 0;

  /// Lifecycle tracing: every Nth access (by access index) leaves its full
  /// enqueue → poll → pick → dispatch → response path in the client's trace
  /// ring; 0 = off. Records are keyed by the globally unique request id
  /// (client id << 40 | access index) and the same id travels on the wire
  /// as `trace_id`, so server-side records of the same request merge with
  /// these (telemetry/merge.h). Discarded poll replies are traced under the
  /// echoed trace id when present, else by inquiry sequence.
  std::uint32_t trace_sample_period = 0;
  std::size_t trace_capacity = 256;

  /// Decision auditing: every Nth access's dispatch decision (the polled
  /// server set with reported loads and report ages, the chosen server, the
  /// blind-fallback/blacklist flags) lands in the client's decision ring;
  /// 0 = off. Records are keyed by the same request id as traces, so the
  /// post-run join (telemetry::reconstruct_decision_quality) can look up
  /// what actually happened to each audited decision. Use 1 to audit every
  /// decision, or trace_sample_period so audits cover the traced subset.
  std::uint32_t decision_sample_period = 0;
  std::size_t decision_capacity = 256;

  std::uint64_t seed = 1;
};

struct ClientStats {
  Accumulator response_ms;
  LatencyHistogram response_hist_ms;
  /// Time from access start to dispatch (load-information acquisition).
  Accumulator poll_time_ms;
  /// Round-trip time of individual poll replies (drives the §3.2 profile).
  LatencyHistogram poll_rtt_ms;
  /// Server queue length seen by dispatched requests on arrival.
  Accumulator queue_at_arrival;

  std::int64_t issued = 0;
  std::int64_t completed = 0;
  std::int64_t recorded = 0;
  std::int64_t polls_sent = 0;
  std::int64_t poll_replies_used = 0;
  std::int64_t polls_discarded = 0;  // replies after the round was decided
  std::int64_t polls_timed_out = 0;  // rounds decided by deadline
  std::int64_t manager_timeouts = 0;
  std::int64_t response_timeouts = 0;
  std::int64_t send_failures = 0;
  std::int64_t broadcasts_received = 0;

  // Failure-hardening counters (see ClientOptions).
  std::int64_t fallback_dispatches = 0;  // poll rounds decided blind
  std::int64_t access_retries = 0;       // timed-out accesses re-dispatched
  std::int64_t blacklist_insertions = 0;
  std::int64_t blacklist_hits = 0;  // candidates excluded by cooldown
  std::int64_t mapping_refreshes = 0;
  std::int64_t refresh_failures = 0;
  std::int64_t snapshot_retries = 0;  // directory retransmits (backoff)
  std::int64_t directory_failovers = 0;   // replica rotations on timeout
  std::int64_t directory_redirects = 0;   // leader redirects followed

  /// Completion/failure counts per timeline bucket (ClientOptions::
  /// timeline_bucket); empty when disabled.
  struct TimelineBucket {
    std::int64_t completed = 0;
    std::int64_t failed = 0;
    double sum_response_ms = 0.0;
  };
  std::vector<TimelineBucket> timeline;

  void merge(const ClientStats& other);
};

class ClientNode {
 public:
  ClientNode(ClientOptions options, std::unique_ptr<RequestSource> source);

  ClientNode(const ClientNode&) = delete;
  ClientNode& operator=(const ClientNode&) = delete;

  /// Runs the full request stream to completion; blocking (call from a
  /// dedicated thread in multi-client experiments).
  void run();

  const ClientStats& stats() const { return stats_; }

  /// Telemetry registry (metric naming: DESIGN.md §10). ClientStats stays
  /// the authoritative experiment record; the registry mirrors the headline
  /// counters/latencies in exporter form. Safe to scrape from another
  /// thread while run() is live (every cell and probe reads atomics).
  const telemetry::Registry& metrics() const { return metrics_; }
  const telemetry::TraceRing& trace() const { return trace_; }
  const telemetry::DecisionRing& decisions() const { return decision_ring_; }

  /// Where the service socket listens. DECISION_INQUIRY datagrams sent here
  /// are answered (chunked) while run() is live — decisions happen at
  /// clients, so the client's service socket doubles as its scrape
  /// endpoint, the way a server's load socket serves STATS/TRACE pulls.
  net::Address decision_scrape_addr() const {
    return service_socket_.local_address();
  }

  /// The node's snapshot (+ sampled trace) as JSON.
  std::string stats_json() const;

 private:
  struct Access {
    std::int64_t index = 0;
    SimTime started_at = 0;
    std::uint32_t service_us = 0;
    int attempt = 0;  // retry count so far (max_access_retries bound)
  };

  // Round/outstanding records live in flat unordered vectors (swap-remove
  // on completion) instead of std::map: the active sets are small (bounded
  // by in-flight accesses), deadline scans are O(n) either way, and flat
  // storage makes the steady state allocation-free — map insert/erase
  // costs a node allocation per access. Each record carries its own key.

  /// An open poll round (owned by polls_; its id is the inquiry sequence
  /// and its targets are indices into options_.servers).
  struct PollWait {
    core::PollRound* round = nullptr;
    Access access;
  };

  struct ManagerRound {
    std::uint64_t seq = 0;  // acquire sequence (lookup key)
    Access access;
    SimTime deadline = 0;
  };

  struct Outstanding {
    std::uint64_t request_id = 0;  // lookup key
    Access access;
    std::size_t server_index = 0;
    SimTime deadline = 0;
    /// True when the IDEAL manager granted this slot; only such accesses
    /// send a Release (fallback-dispatched ones never incremented).
    bool manager_acquired = false;
  };

  void begin_access(const Access& access);
  void start_poll_round(const Access& access);
  /// Decides poll round `index` (of poll_rounds_) and dispatches.
  void finish_poll_round(std::size_t index);
  void dispatch(const Access& access, std::size_t server_index,
                bool manager_acquired = false);
  void release_manager_slot(std::size_t server_index);
  void drain_service_socket();
  void answer_decision_inquiry(std::uint64_t seq, std::uint32_t offset,
                               const net::Address& to);
  void drain_manager_socket();
  void drain_broadcast_socket();
  void drain_poll_socket(std::size_t server_index);
  void fire_deadlines(SimTime now);
  std::optional<SimTime> next_deadline(SimTime next_arrival) const;
  bool should_record(const Access& access) const {
    return access.index >= options_.warmup_requests;
  }
  /// Globally unique request id for an access — the trace key shared by
  /// client- and server-side records of the same request.
  std::uint64_t request_key(std::int64_t index) const {
    return (static_cast<std::uint64_t>(options_.id) << 40) |
           static_cast<std::uint64_t>(index);
  }
  /// Endpoint indices usable for new work: mapping-live minus blacklisted,
  /// falling back to every endpoint when that leaves nothing. The span
  /// views candidate_scratch_, valid until the next call.
  std::span<const ServerId> candidate_indices(SimTime now);
  void refresh_mapping(SimTime now);
  void record_outcome(SimTime now, bool completed, double response_ms);
  void mark_failed(std::size_t server_index, SimTime now);

  // Every ClientStats field with a registry mirror changes only through
  // these two, so the record and its mirror cannot diverge.
  static void bump(std::int64_t& stat, const telemetry::Counter& mirror,
                   std::int64_t n = 1) {
    stat += n;
    mirror.add(n);
  }
  template <class Stat>
  static void record(Stat& stat, const telemetry::Histogram& mirror,
                     double value) {
    stat.add(value);
    mirror.record(value);
  }

  ClientOptions options_;
  std::unique_ptr<RequestSource> source_;
  Rng rng_;
  RoundRobinCursor rr_;
  std::vector<ServerId> server_ids_;

  net::UdpSocket service_socket_;
  std::vector<net::UdpSocket> poll_sockets_;  // one per server, connected
  // Reused across every drain_* call: responses and poll replies arrive in
  // bursts, and one recvmmsg per burst beats one recvfrom per datagram.
  net::DatagramBatch recv_batch_{32, 256};
  std::unique_ptr<net::UdpSocket> manager_socket_;
  std::unique_ptr<net::UdpSocket> broadcast_socket_;
  /// Broadcast policy's local load table, indexed like options_.servers.
  /// Seqlock-backed: updates from the drain loop never contend with the
  /// dispatch path's snapshot reads (core/load_cache.h).
  std::unique_ptr<LoadCache> broadcast_table_;
  SimTime subscribe_refresh_at_ = 0;
  net::Poller poller_;

  core::PollAgent polls_;
  std::vector<PollWait> poll_rounds_;         // active, unordered
  std::vector<ManagerRound> manager_rounds_;  // active, unordered
  std::vector<Outstanding> outstanding_;      // active, unordered
  std::uint64_t next_seq_ = 1;
  std::int64_t resolved_ = 0;

  // Reused scratch (see candidate_indices / the broadcast dispatch path).
  std::vector<ServerId> candidate_scratch_;
  std::vector<ServerLoad> load_scratch_;

  // Failure hardening (see ClientOptions).
  Blacklist blacklist_;
  std::vector<int> consecutive_timeouts_;  // per endpoint index
  std::unique_ptr<DirectoryClient> directory_client_;
  std::vector<std::uint8_t> endpoint_live_;  // per endpoint index
  SimTime next_mapping_refresh_ = 0;
  SimDuration mapping_refresh_interval_ = 0;  // backs off on failure
  SimTime run_started_at_ = 0;

  ClientStats stats_;

  // Telemetry mirrors (handles into metrics_, created once in the
  // constructor; recording is lock- and allocation-free).
  telemetry::Registry metrics_;
  telemetry::TraceRing trace_;
  telemetry::DecisionRing decision_ring_;
  telemetry::Counter m_issued_;
  telemetry::Counter m_completed_;
  telemetry::Counter m_polls_sent_;
  telemetry::Counter m_polls_discarded_;
  telemetry::Counter m_polls_timed_out_;
  telemetry::Counter m_fallback_dispatches_;
  telemetry::Counter m_response_timeouts_;
  telemetry::Counter m_send_failures_;
  telemetry::Counter m_blacklist_insertions_;
  telemetry::Counter m_blacklist_hits_;
  telemetry::Histogram m_poll_rtt_ms_;
  telemetry::Histogram m_response_time_ms_;
  telemetry::Histogram m_poll_time_ms_;
  /// Issued-minus-resolved accesses, kept as an atomic so the
  /// requests_in_flight probe can run from a scraping thread.
  std::atomic<std::int64_t> m_in_flight_{0};
};

}  // namespace finelb::cluster
