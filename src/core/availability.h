// The availability step of a client access (paper §3.1, Figure 5): "the
// client first acquires the set of available server nodes through a
// service availability subsystem", then picks one by load
// (core/poll_round.h). One I/O-free state machine, driven by
// cluster::ClientNode and the Neptune ServiceClient alike: the driver
// fetches the directory when refresh_due() says so and feeds back the
// result, reports each access's timeout or success, and draws every pick
// from the candidate view.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "core/load_index.h"

namespace finelb::core {

struct AvailabilityConfig {
  /// A good fetch makes the next one due after period x U(0.75, 1.25);
  /// after k failed fetches in a row the wait is min(period x 2^k,
  /// 8 x period), with the same jitter.
  SimDuration refresh_period = 0;
  /// A server whose accesses timed out `blacklist_after` times in a row
  /// leaves the candidate view for this long (0 disables). Under ambient
  /// loss one timeout is weak evidence (a dead server fails every access, a
  /// lossy link only a fraction), so a higher count keeps the blacklist
  /// from thrashing on healthy servers.
  SimDuration blacklist_cooldown = 0;
  int blacklist_after = 1;
};

struct AvailabilityCounters {
  std::int64_t mapping_refreshes = 0;  // fetches, failed ones included
  std::int64_t refresh_failures = 0;
  std::int64_t blacklist_insertions = 0;
  std::int64_t blacklist_hits = 0;  // candidates excluded by cooldown
};

struct CandidateView {
  std::span<const ServerId> servers;
  std::size_t filtered = 0;  // candidates the blacklist removed
};

/// Servers are small non-negative keys: ClientNode's endpoint indices,
/// ServiceClient's server ids. Not thread-safe: one per client.
class Availability {
 public:
  explicit Availability(const AvailabilityConfig& config);

  /// The first fetch is due at once.
  bool refresh_due(SimTime now) const { return now >= next_refresh_; }
  SimTime next_refresh() const { return next_refresh_; }
  /// Makes a fetch due at once, unless a failed fetch's backoff still runs.
  void force_refresh(SimTime now);
  /// A good fetch begun at `now`, naming the live keys.
  void on_fetch(std::span<const ServerId> live, SimTime now, Rng& rng);
  /// A fetch begun at `now` went unanswered; the live set is kept.
  void on_fetch_failed(SimTime now, Rng& rng) { schedule(false, now, rng); }

  void on_timeout(ServerId key, SimTime now);
  void on_success(ServerId key);

  /// The live members of `pool` minus blacklisted keys, valid until the next
  /// call. A pool with no live member (no good fetch yet, or a snapshot
  /// naming none of it) reads as lost directory state: all of it stays
  /// live. The blacklist is skipped when it would leave nothing, since a
  /// degraded cluster must still be dispatched to.
  CandidateView filter(std::span<const ServerId> pool, SimTime now);

  const AvailabilityCounters& counters() const { return counters_; }

 private:
  /// Counts a fetch and schedules the next one.
  void schedule(bool ok, SimTime now, Rng& rng);

  struct Strikes {  // per key: timeouts in a row, blacklist expiry
    int timeouts = 0;
    SimTime blacklisted_until = 0;
  };
  AvailabilityConfig config_;
  std::vector<std::uint8_t> live_;  // per key, grown on demand
  SimTime next_refresh_ = 0;
  int failed_fetches_ = 0;        // in a row
  std::vector<Strikes> strikes_;  // grown on demand
  std::vector<ServerId> view_;
  AvailabilityCounters counters_;
};

}  // namespace finelb::core
