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
//     partition looks empty or an access times out (core::Availability:
//     refresh schedule, backoff, blacklist);
//   * load balancing — a core::PolicyConfig: random, round-robin, or
//     random polling over the partition's replicas (with optional discard
//     of slow polls), decided by core::PollAgent.
// cluster::ClientNode drives the same two cores.
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
#include "core/availability.h"
#include "core/policy.h"
#include "core/poll_round.h"
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
  /// Mapping table refresh period (soft-state re-pull).
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

/// The availability counters are counted once, in core::Availability.
struct ServiceClientStats : core::AvailabilityCounters {
  std::int64_t calls = 0;
  std::int64_t retries = 0;
  std::int64_t transport_failures = 0;
  std::int64_t polls_sent = 0;
  /// Polling decisions made blind: no poll reply arrived in time, so a
  /// random usable replica was chosen.
  std::int64_t fallback_dispatches = 0;
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

  ServiceClientStats stats() const {
    ServiceClientStats stats = stats_;
    static_cast<core::AvailabilityCounters&>(stats) = availability_.counters();
    return stats;
  }

 private:
  /// Fetches the mapping when availability_ says a fetch is due.
  void refresh_mapping();
  /// Chooses one of `replicas` per the configured policy, steering around
  /// blacklisted servers. Polling runs one core::PollAgent round and falls
  /// back to a random candidate when no reply arrives in time.
  ServerId choose(std::span<const ServerId> replicas);
  const cluster::ServiceEndpoint& endpoint_of(ServerId server) const;
  /// The one wait loop: hands every datagram to `take` until it returns
  /// true (then true) or `deadline` passes (then false).
  template <class Take>
  bool receive_until(SimTime deadline, Take&& take);

  ServiceClientOptions options_;
  cluster::DirectoryClient directory_;
  Rng rng_;
  RoundRobinCursor rr_;
  core::PollAgent polls_;
  core::Availability availability_;  // keyed by server id
  std::vector<cluster::ServiceEndpoint> snapshot_;  // last good fetch
  std::map<std::uint32_t, std::vector<ServerId>> replicas_;  // by partition
  std::uint64_t next_id_ = 1;

  // One socket carries poll inquiries and RPCs alike: replies are told
  // apart by type tag and sequence, so a late reply of either kind is
  // simply skipped while waiting for the other.
  net::UdpSocket socket_;
  net::Poller poller_;

  // Reused across calls so the request stays off the allocator.
  net::ServiceRequest request_;

  ServiceClientStats stats_;
};

}  // namespace finelb::neptune
