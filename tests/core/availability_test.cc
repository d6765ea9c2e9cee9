// The availability core on virtual time: no sockets, no clock, no threads.
#include "core/availability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace finelb::core {
namespace {

constexpr SimDuration kPeriod = 100 * kMillisecond;

// The candidate view of `pool` (default: keys 0..3) as a vector.
std::vector<ServerId> view_of(Availability& a, SimTime now,
                              const std::vector<ServerId>& pool = {0, 1, 2,
                                                                   3}) {
  const CandidateView view = a.filter(pool, now);
  return {view.servers.begin(), view.servers.end()};
}

// The wait a fetch at `now` scheduled, as a multiple of the period.
double wait_in_periods(const Availability& a, SimTime now) {
  return static_cast<double>(a.next_refresh() - now) /
         static_cast<double>(kPeriod);
}

TEST(AvailabilityTest, GoodFetchSchedulesTheNextWithinJitterOfThePeriod) {
  Availability a({.refresh_period = kPeriod});
  Rng rng(1);
  EXPECT_TRUE(a.refresh_due(0)) << "the first fetch is due at once";
  double lo = 2.0, hi = 0.0;
  SimTime now = 0;
  for (int i = 0; i < 200; ++i) {
    a.on_fetch(std::vector<ServerId>{0, 1, 2, 3}, now, rng);
    const double w = wait_in_periods(a, now);
    EXPECT_GE(w, 0.75);
    EXPECT_LE(w, 1.25);
    lo = std::min(lo, w);
    hi = std::max(hi, w);
    EXPECT_FALSE(a.refresh_due(now));
    EXPECT_TRUE(a.refresh_due(a.next_refresh()));
    now = a.next_refresh();
  }
  EXPECT_LT(lo, 0.85) << "the jitter spans U(0.75, 1.25)";
  EXPECT_GT(hi, 1.15);
  EXPECT_EQ(a.counters().mapping_refreshes, 200);
  EXPECT_EQ(a.counters().refresh_failures, 0);
}

TEST(AvailabilityTest, FailuresDoubleTheWaitToEightPeriodsAndSuccessResets) {
  Availability a({.refresh_period = kPeriod});
  Rng rng(2);
  SimTime now = 0;
  for (const double periods : {2.0, 4.0, 8.0, 8.0, 8.0}) {
    a.on_fetch_failed(now, rng);
    const double w = wait_in_periods(a, now);
    EXPECT_GE(w, 0.75 * periods);
    EXPECT_LE(w, 1.25 * periods);
    now = a.next_refresh();
  }
  EXPECT_EQ(a.counters().refresh_failures, 5);
  a.on_fetch(std::vector<ServerId>{0, 1}, now, rng);
  EXPECT_LE(wait_in_periods(a, now), 1.25);
  now = a.next_refresh();
  a.on_fetch_failed(now, rng);
  EXPECT_LE(wait_in_periods(a, now), 2.5) << "the backoff restarted at 2x";
  EXPECT_EQ(a.counters().mapping_refreshes, 7) << "failed fetches count too";
}

TEST(AvailabilityTest, ForcedRefreshIsDueAtOnceButWaitsOutTheBackoff) {
  Availability a({.refresh_period = kPeriod});
  Rng rng(3);
  a.on_fetch(std::vector<ServerId>{0, 1}, 0, rng);
  const SimTime now = 10 * kMillisecond;
  EXPECT_FALSE(a.refresh_due(now));
  a.force_refresh(now);
  EXPECT_TRUE(a.refresh_due(now));

  a.on_fetch_failed(now, rng);
  const SimTime gate = a.next_refresh();
  a.force_refresh(now + kMillisecond);
  EXPECT_EQ(a.next_refresh(), gate) << "a forced refresh jumped the backoff";
  EXPECT_FALSE(a.refresh_due(gate - 1));
  EXPECT_TRUE(a.refresh_due(gate));

  a.on_fetch(std::vector<ServerId>{0, 1}, gate, rng);
  a.force_refresh(gate + kMillisecond);
  EXPECT_TRUE(a.refresh_due(gate + kMillisecond))
      << "a good fetch ends the backoff gate";
}

TEST(AvailabilityTest, SnapshotNamingNoKnownServerLeavesEveryServerLive) {
  Availability a({.refresh_period = kPeriod});
  Rng rng(4);
  EXPECT_EQ(view_of(a, 0), (std::vector<ServerId>{0, 1, 2, 3}))
      << "before the first fetch every server is live";
  a.on_fetch(std::vector<ServerId>{3, 1}, 0, rng);
  EXPECT_EQ(view_of(a, 0), (std::vector<ServerId>{1, 3}));
  EXPECT_EQ(view_of(a, 0, {3, 2}), (std::vector<ServerId>{3}));
  // A failed fetch keeps the stale-but-recent live set.
  a.on_fetch_failed(0, rng);
  EXPECT_EQ(view_of(a, 0), (std::vector<ServerId>{1, 3}));
  // Lost directory state: an empty snapshot, or one naming only servers
  // outside the pool, leaves every server of the pool a candidate.
  a.on_fetch({}, 0, rng);
  EXPECT_EQ(view_of(a, 0), (std::vector<ServerId>{0, 1, 2, 3}));
  a.on_fetch(std::vector<ServerId>{1}, 0, rng);
  a.on_fetch(std::vector<ServerId>{9}, 0, rng);
  EXPECT_EQ(view_of(a, 0), (std::vector<ServerId>{0, 1, 2, 3}));
}

TEST(AvailabilityTest, NthConsecutiveTimeoutBlacklistsUntilTheCooldown) {
  constexpr SimDuration kCooldown = 50 * kMillisecond;
  Availability a({.blacklist_cooldown = kCooldown, .blacklist_after = 3});
  const std::vector<ServerId> pool = {0, 1, 2};
  a.on_timeout(1, 0);
  a.on_timeout(1, 0);
  a.on_success(1);  // the run of timeouts is broken
  a.on_timeout(1, 0);
  a.on_timeout(1, 0);
  EXPECT_EQ(a.counters().blacklist_insertions, 0);
  EXPECT_EQ(a.filter(pool, 0).filtered, 0u);

  a.on_timeout(1, 10);  // the third in a row
  EXPECT_EQ(a.counters().blacklist_insertions, 1);
  const CandidateView view = a.filter(pool, 20);
  EXPECT_EQ(std::vector<ServerId>(view.servers.begin(), view.servers.end()),
            (std::vector<ServerId>{0, 2}));
  EXPECT_EQ(view.filtered, 1u);
  EXPECT_EQ(a.counters().blacklist_hits, 1);

  EXPECT_EQ(view_of(a, 10 + kCooldown - 1, pool),
            (std::vector<ServerId>{0, 2}));
  EXPECT_EQ(view_of(a, 10 + kCooldown, pool), pool)
      << "the cooldown expired";
  EXPECT_EQ(a.counters().blacklist_hits, 2);
}

TEST(AvailabilityTest, AllBlacklistedSetComesBackUnfiltered) {
  Availability a({.blacklist_cooldown = kPeriod, .blacklist_after = 1});
  a.on_timeout(0, 0);
  a.on_timeout(1, 0);
  EXPECT_EQ(a.counters().blacklist_insertions, 2);
  const CandidateView view = a.filter(std::vector<ServerId>{0, 1}, 1);
  EXPECT_EQ(std::vector<ServerId>(view.servers.begin(), view.servers.end()),
            (std::vector<ServerId>{0, 1}));
  EXPECT_EQ(view.filtered, 0u) << "nothing was removed";
  EXPECT_EQ(a.counters().blacklist_hits, 0);
}

TEST(AvailabilityTest, KeysAreSparseServerIdsGrownOnDemand) {
  // The Neptune form: pools are a partition's replicas, keyed by server id.
  Availability a({.blacklist_cooldown = kPeriod, .blacklist_after = 1});
  Rng rng(5);
  a.on_fetch(std::vector<ServerId>{42, 7, 3, 100}, 0, rng);
  a.on_timeout(42, 0);
  const CandidateView view = a.filter(std::vector<ServerId>{7, 42, 3, 5}, 1);
  EXPECT_EQ(std::vector<ServerId>(view.servers.begin(), view.servers.end()),
            (std::vector<ServerId>{7, 3}))
      << "5 is not live, 42 is blacklisted";
  EXPECT_EQ(view.filtered, 1u);
  EXPECT_TRUE(a.filter({}, 1).servers.empty());
}

TEST(AvailabilityTest, ZeroCooldownDisablesTheBlacklist) {
  Availability a({.blacklist_cooldown = 0, .blacklist_after = 1});
  a.on_timeout(0, 0);
  EXPECT_EQ(view_of(a, 1), (std::vector<ServerId>{0, 1, 2, 3}));
  EXPECT_EQ(a.counters().blacklist_insertions, 0);
}

TEST(AvailabilityTest, RejectsInvalidConfigs) {
  EXPECT_THROW(Availability({.blacklist_after = 0}), InvariantError);
  EXPECT_THROW(Availability({.refresh_period = -1}), InvariantError);
  Availability a({.blacklist_cooldown = kPeriod});
  EXPECT_THROW(a.on_timeout(-1, 0), InvariantError);
  Rng rng(6);
  EXPECT_THROW(a.on_fetch(std::vector<ServerId>{-1}, 0, rng), InvariantError);
}

}  // namespace
}  // namespace finelb::core
