// Neptune service client: the client-side stub for accessing a replicated,
// partitioned service (paper §3.1).
//
// "Conceptually, for each service access, the client first acquires the set
// of available server nodes through a service availability subsystem. Then
// it chooses one node from the available set through a load balancing
// subsystem before sending the service request."
//
// This class packages those two steps behind one synchronous call():
//   * availability — a service mapping table (partition -> live replicas)
//     refreshed from the directory on an interval and on demand when a
//     partition looks empty or an access times out;
//   * load balancing — a core::PolicyConfig: random, round-robin, or
//     random polling over the partition's replicas (with optional discard
//     of slow polls), built on the same selection primitives and
//     blacklist as the experiment client (core/selection.h).
// Failed accesses are retried against a fresh replica choice, which is how
// the flat architecture "operates smoothly in the presence of transient
// failures".
//
// Thread-compatibility: one ServiceClient per thread; instances share
// nothing.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "cluster/directory.h"
#include "common/rng.h"
#include "core/policy.h"
#include "core/selection.h"
#include "net/message.h"
#include "net/poller.h"
#include "net/socket.h"

namespace finelb::neptune {

struct ServiceClientOptions {
  std::string service_name;
  net::Address directory;
  PolicyConfig policy = PolicyConfig::polling(2);
  /// Wait per RPC attempt before retrying elsewhere.
  SimDuration rpc_timeout = 500 * kMillisecond;
  int max_attempts = 3;
  /// Mapping table refresh interval (soft-state re-pull).
  SimDuration mapping_refresh = kSecond;
  /// Poll-reply wait when the discard optimization is off.
  SimDuration max_poll_wait = 20 * kMillisecond;
  /// A replica whose RPC timed out is excluded from replica choice for
  /// this long (0 disables), so retries and subsequent calls steer around
  /// a dead node until the directory's soft state expires it.
  SimDuration blacklist_cooldown = kSecond;
  std::uint64_t seed = 1;
};

struct CallResult {
  net::RpcStatus status = net::RpcStatus::kAppError;
  bool transport_ok = false;  // false: no replica answered in time
  std::vector<std::uint8_t> data;
  ServerId server = kInvalidServer;
  /// Decision + transport + service latency of the successful attempt.
  SimDuration latency = 0;
};

struct ServiceClientStats {
  std::int64_t calls = 0;
  std::int64_t retries = 0;
  std::int64_t transport_failures = 0;
  std::int64_t polls_sent = 0;
  std::int64_t mapping_refreshes = 0;
  /// Directory fetches that timed out; the stale table is kept and the next
  /// refresh is delayed by an exponentially backed-off, jittered interval.
  std::int64_t refresh_failures = 0;
  std::int64_t blacklist_insertions = 0;
  std::int64_t blacklist_hits = 0;  // replicas excluded by cooldown
};

class ServiceClient {
 public:
  explicit ServiceClient(ServiceClientOptions options);

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Invokes `method` on `partition` with `args`; blocks until a response
  /// arrives or every attempt times out (transport_ok = false).
  CallResult call(std::uint16_t method, std::uint32_t partition,
                  std::span<const std::uint8_t> args);

  /// Live replica count for a partition (forces a table refresh if stale).
  std::size_t replicas(std::uint32_t partition);

  ServiceClientStats stats() const;

 private:
  using Group = std::vector<cluster::ServiceEndpoint>;

  void refresh_mapping(bool force);
  /// Chooses a replica of `group` per the configured policy, steering
  /// around blacklisted servers. Returns its server id.
  ServerId choose(const Group& group);
  /// One polling round over a random poll set of candidates_; falls back
  /// to a random candidate when no reply arrives in time.
  ServerId poll_least_loaded(const Group& group);
  /// Waits up to rpc_timeout for the response to `request_id`.
  bool await_response(std::uint64_t request_id, CallResult& result);

  ServiceClientOptions options_;
  cluster::DirectoryClient directory_;
  Rng rng_;
  RoundRobinCursor rr_;
  Blacklist blacklist_;  // keyed by server id
  std::map<std::uint32_t, Group> mapping_;
  SimTime mapping_fetched_at_ = 0;
  SimTime refresh_backoff_until_ = 0;
  SimDuration refresh_backoff_ = 0;
  std::uint64_t next_id_ = 1;

  // One socket carries poll inquiries and RPCs alike: replies are told
  // apart by type tag and sequence, so a late reply of either kind is
  // simply skipped by the other wait loop.
  net::UdpSocket socket_;
  net::Poller poller_;

  // Reused across calls so replica choice stays off the allocator: the
  // scratch vectors keep their capacity, and request_.args its buffer.
  std::vector<ServerId> candidates_;
  std::vector<ServerId> poll_set_;
  std::vector<ServerLoad> replies_;
  net::ServiceRequest request_;

  ServiceClientStats stats_;
};

}  // namespace finelb::neptune
