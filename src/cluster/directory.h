// Service availability subsystem (paper §3.1).
//
// The paper describes a "well-known publish/subscribe channel, which can be
// implemented using IP multicast or a highly available well-known central
// directory"; published entries are soft state that must be refreshed to
// stay alive. This is the central-directory implementation: servers send
// Publish datagrams on an interval, clients pull SnapshotReply tables. An
// entry disappears `ttl_ms` after its last refresh, so a crashed server
// falls out of the candidate set without any explicit deregistration — the
// property that lets the infrastructure "operate smoothly in the presence
// of transient failures and service evolution".
//
// The "highly available" half lives in cluster/ha/: HaDirectoryReplica
// embeds the same DirectoryTable behind a leader-elected replica set, and
// DirectoryClient below accepts a replica list, failing over on timeout and
// following leader redirects.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "fault/fault.h"
#include "net/message.h"
#include "net/poller.h"
#include "net/socket.h"
#include "net/stop_signal.h"

namespace finelb::cluster {

/// A live service endpoint as seen through the availability channel.
struct ServiceEndpoint {
  std::int32_t server = 0;
  std::uint32_t partition = 0;
  net::Address service_addr;
  net::Address load_addr;
};

/// The soft-state table plus its RCU snapshot protocol, shared by the
/// single-node DirectoryServer and the replicated ha::HaDirectoryReplica.
/// Thread-safe: apply() serialises writers internally, live_entries() is
/// lock-free (see the guard-discipline comment at the members).
///
/// Expiry applies a grace window of ttl/4 past the nominal deadline: a
/// server that re-publishes exactly at ttl_ms races its own expiry (the
/// refresh datagram and the reader's clock sample are unordered), and
/// without the grace a healthy server can flap out of live_entries for one
/// refresh interval. The window is small enough that a genuinely crashed
/// server still ages out promptly (1.25x ttl instead of 1x).
class DirectoryTable {
 public:
  /// Inserts or refreshes the entry keyed by (service, server, partition).
  void apply(net::Publish publish, SimTime now);

  /// Current live (non-expired) entries for a service ("" = all).
  std::vector<net::Publish> live_entries(const std::string& service,
                                         SimTime now) const;

  std::int64_t publishes_received() const {
    return publishes_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    net::Publish publish;
    SimTime expires_at = 0;  // last refresh + ttl
    SimDuration grace = 0;   // ttl/4 anti-flap window past expires_at
  };
  using Key = std::tuple<std::string, std::int32_t, std::uint32_t>;
  using Snapshot = std::vector<Entry>;

  /// Rebuilds the published snapshot from entries_; caller holds mutex_.
  void republish_locked();

  /// Acquires a reference to the current snapshot without taking mutex_.
  std::shared_ptr<const Snapshot> load_snapshot() const;

  // Guard discipline (do not relax without updating this comment and the
  // directory concurrency regression test):
  //   * mutex_ guards entries_, the mutable soft-state table. Only write
  //     paths (apply) take it; every mutation must finish by calling
  //     republish_locked() before releasing the lock.
  //   * slots_/version_ hold an RCU-style immutable copy of entries_,
  //     double-buffered so publication is lock-free for readers. Readers
  //     (live_entries) call load_snapshot() and never take mutex_ — a
  //     reader observes a coherent table from some recent instant, and a
  //     concurrent publish installs a fresh vector in the *other* slot
  //     rather than mutating the one being read. Expiry is applied at read
  //     time by filtering expires_at, so an idle directory ages entries
  //     out without a writer running.
  //     (A hand-rolled scheme rather than std::atomic<std::shared_ptr>:
  //     libstdc++'s lock-based _Sp_atomic unlocks with relaxed ordering,
  //     which ThreadSanitizer cannot prove race-free. Here every edge is
  //     an explicit acquire/release on version_ and the per-slot reader
  //     counts, so the protocol is TSan-checkable.)
  //     Protocol: a reader loads version_, pins slot version_ & 1 by
  //     incrementing its reader count, then re-checks version_ is
  //     unchanged (else unpins and retries — the writer may have moved
  //     on between the load and the pin). The writer, serialised by
  //     mutex_, prepares the inactive slot: it waits for that slot's
  //     readers to drain (they pinned a version at least two
  //     publications old, so the wait is bounded by one snapshot copy),
  //     installs the new vector, and advances version_ to flip slots.
  //   * publishes_ is a plain atomic counter, read without either guard.
  mutable std::mutex mutex_;
  std::map<Key, Entry> entries_;
  struct Slot {
    std::shared_ptr<const Snapshot> snap = std::make_shared<const Snapshot>();
    mutable std::atomic<std::uint32_t> readers{0};
  };
  Slot slots_[2];
  std::atomic<std::uint64_t> version_{0};
  std::atomic<std::int64_t> publishes_{0};
};

class DirectoryServer {
 public:
  DirectoryServer();
  ~DirectoryServer();

  DirectoryServer(const DirectoryServer&) = delete;
  DirectoryServer& operator=(const DirectoryServer&) = delete;

  void start();
  void stop();

  net::Address address() const;

  /// Current live (non-expired) entries for a service ("" = all), as the
  /// snapshot protocol would return them. Exposed for tests and local use.
  std::vector<net::Publish> live_entries(const std::string& service) const;

  std::int64_t publishes_received() const {
    return table_.publishes_received();
  }

 private:
  void recv_loop();

  net::UdpSocket socket_;
  std::atomic<bool> running_{false};
  net::StopSignal stop_;  // wakes recv_loop
  std::thread thread_;
  DirectoryTable table_;
};

/// Client-side view of the channel: sends SnapshotRequest and waits for the
/// reply, retrying on loss. This is the "service mapping table" refresh.
///
/// Against a replicated directory (multi-address constructor) the client
/// rotates to the next replica when a backoff slice expires unanswered and
/// follows Redirect replies from followers straight to the current leader;
/// both are invisible to callers beyond the failovers()/redirects_followed()
/// counters. The last successful snapshot is cached so callers can keep
/// serving stale-but-recent mappings while an election is in progress.
class DirectoryClient {
 public:
  explicit DirectoryClient(const net::Address& directory,
                           std::uint64_t seed = 1);
  DirectoryClient(std::vector<net::Address> replicas, std::uint64_t seed = 1);

  /// Optional loss/dup/delay injection on the snapshot socket (tests and
  /// the fault-tolerance bench).
  void attach_fault_injector(std::shared_ptr<fault::FaultInjector> injector);

  /// Fetches the live endpoints for `service` (empty = all). Retransmits
  /// with exponential backoff plus jitter (100 ms doubling to 800 ms) so a
  /// struggling directory is not hammered at a fixed rate, failing over to
  /// the next replica each time a backoff slice expires unanswered.
  /// Returns std::nullopt if no replica answers within `timeout` — retry
  /// paths must use this surface so an unlucky election window does not
  /// tear down the caller.
  std::optional<std::vector<ServiceEndpoint>> try_fetch(
      const std::string& service, SimDuration timeout = kSecond);

  /// try_fetch, but throws InvariantError on timeout. Convenience for
  /// startup paths where a dead directory is fatal anyway.
  std::vector<ServiceEndpoint> fetch(const std::string& service,
                                     SimDuration timeout = kSecond);

  /// Polls try_fetch() until at least `min_servers` distinct servers are
  /// live or `deadline_from_now` elapses; returns the last snapshot either
  /// way. The pause between fetches starts at 1 ms and doubles to 20 ms.
  /// Never throws: a replicated directory may be mid-election while the
  /// experiment is starting up.
  std::vector<ServiceEndpoint> wait_for_servers(
      const std::string& service, std::size_t min_servers,
      SimDuration deadline_from_now = 5 * kSecond);

  /// Snapshot requests retransmitted beyond the first send of each fetch.
  /// Atomic: benches read these counters from other threads mid-run.
  std::int64_t snapshot_retries() const {
    return snapshot_retries_.load(std::memory_order_relaxed);
  }
  /// Replica rotations taken after an unanswered backoff slice.
  std::int64_t failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }
  /// Redirect replies followed to a freshly elected leader.
  std::int64_t redirects_followed() const {
    return redirects_followed_.load(std::memory_order_relaxed);
  }

  /// Most recent successful snapshot (empty before the first success) and
  /// when it was taken. Owned by the fetching thread; not thread-safe.
  const std::vector<ServiceEndpoint>& last_snapshot() const {
    return last_snapshot_;
  }
  SimTime last_snapshot_at() const { return last_snapshot_at_; }

 private:
  void reconnect(const net::Address& addr);

  std::vector<net::Address> replicas_;
  std::size_t current_ = 0;
  net::UdpSocket socket_;
  net::Poller poller_;  // member so a fetch does not epoll_create each call
  std::uint64_t next_seq_ = 1;
  Rng rng_;
  std::atomic<std::int64_t> snapshot_retries_{0};
  std::atomic<std::int64_t> failovers_{0};
  std::atomic<std::int64_t> redirects_followed_{0};
  std::array<std::uint8_t, 65536> recv_buf_{};
  net::SnapshotReply reply_;  // reused so entry capacity survives fetches
  std::vector<ServiceEndpoint> last_snapshot_;
  SimTime last_snapshot_at_ = 0;
};

}  // namespace finelb::cluster
