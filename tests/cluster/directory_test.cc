#include "cluster/directory.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/check.h"
#include "net/clock.h"

namespace finelb::cluster {
namespace {

net::Publish make_publish(const std::string& service, std::int32_t server,
                          std::uint32_t ttl_ms = 1000) {
  net::Publish p;
  p.service = service;
  p.partition = 0;
  p.server = server;
  p.service_port = static_cast<std::uint16_t>(40000 + server);
  p.load_port = static_cast<std::uint16_t>(41000 + server);
  p.ttl_ms = ttl_ms;
  return p;
}

TEST(DirectoryTest, PublishThenSnapshot) {
  DirectoryServer directory;
  directory.start();
  net::UdpSocket publisher;
  ASSERT_TRUE(
      publisher.send_to(make_publish("search", 1).encode(),
                        directory.address()));
  ASSERT_TRUE(
      publisher.send_to(make_publish("search", 2).encode(),
                        directory.address()));

  DirectoryClient client(directory.address());
  const auto endpoints = client.wait_for_servers("search", 2);
  ASSERT_EQ(endpoints.size(), 2u);
  EXPECT_EQ(directory.publishes_received(), 2);
  directory.stop();
}

TEST(DirectoryTest, ServiceFilterApplies) {
  DirectoryServer directory;
  directory.start();
  net::UdpSocket publisher;
  publisher.send_to(make_publish("search", 1).encode(), directory.address());
  publisher.send_to(make_publish("album", 2).encode(), directory.address());

  DirectoryClient client(directory.address());
  const auto search = client.wait_for_servers("search", 1);
  ASSERT_EQ(search.size(), 1u);
  EXPECT_EQ(search[0].server, 1);
  const auto all = client.wait_for_servers("", 2);
  EXPECT_EQ(all.size(), 2u);
  directory.stop();
}

TEST(DirectoryTest, RefreshReplacesNotDuplicates) {
  DirectoryServer directory;
  directory.start();
  net::UdpSocket publisher;
  for (int i = 0; i < 5; ++i) {
    publisher.send_to(make_publish("search", 1).encode(),
                      directory.address());
    net::sleep_for(5 * kMillisecond);
  }
  net::sleep_for(30 * kMillisecond);
  EXPECT_EQ(directory.live_entries("search").size(), 1u);
  directory.stop();
}

TEST(DirectoryTest, SoftStateExpires) {
  DirectoryServer directory;
  directory.start();
  net::UdpSocket publisher;
  publisher.send_to(make_publish("search", 1, /*ttl_ms=*/60).encode(),
                    directory.address());
  net::sleep_for(20 * kMillisecond);
  EXPECT_EQ(directory.live_entries("search").size(), 1u);
  net::sleep_for(80 * kMillisecond);
  EXPECT_EQ(directory.live_entries("search").size(), 0u)
      << "entry must vanish after its ttl without refresh";
  directory.stop();
}

TEST(DirectoryTest, PartitionedServiceKeepsDistinctEntries) {
  DirectoryServer directory;
  directory.start();
  net::UdpSocket publisher;
  net::Publish p0 = make_publish("image-store", 1);
  p0.partition = 0;
  net::Publish p1 = make_publish("image-store", 1);
  p1.partition = 1;
  publisher.send_to(p0.encode(), directory.address());
  publisher.send_to(p1.encode(), directory.address());
  net::sleep_for(30 * kMillisecond);
  EXPECT_EQ(directory.live_entries("image-store").size(), 2u);
  directory.stop();
}

// Regression for the RCU-style snapshot read path: live_entries() must be
// safe (and see only complete entry sets) while the recv loop keeps
// republishing. Runs under TSan via the "runtime" label — this is the test
// that would flag a return to unguarded shared state.
TEST(DirectoryTest, ConcurrentPublishAndLookup) {
  DirectoryServer directory;
  directory.start();
  constexpr int kServers = 6;

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto entries = directory.live_entries("search");
        // Entries are keyed by (service, server, partition): duplicates in
        // one snapshot would mean a lookup observed a half-applied publish.
        std::vector<bool> seen(kServers, false);
        for (const auto& entry : entries) {
          ASSERT_GE(entry.server, 0);
          ASSERT_LT(entry.server, kServers);
          ASSERT_FALSE(seen[static_cast<std::size_t>(entry.server)])
              << "duplicate server " << entry.server << " in one snapshot";
          seen[static_cast<std::size_t>(entry.server)] = true;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  net::UdpSocket publisher;
  for (int round = 0; round < 200; ++round) {
    for (int server = 0; server < kServers; ++server) {
      publisher.send_to(make_publish("search", server).encode(),
                        directory.address());
    }
    net::sleep_for(kMillisecond);
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_GT(reads.load(), 0);
  const auto entries = directory.live_entries("search");
  EXPECT_EQ(entries.size(), static_cast<std::size_t>(kServers));
  directory.stop();
}

TEST(DirectoryTest, FetchTimesOutAgainstDeadDirectory) {
  net::UdpSocket placeholder;  // bound but nobody serving
  DirectoryClient client(placeholder.local_address());
  EXPECT_THROW(client.fetch("search", 300 * kMillisecond), InvariantError);
}

TEST(DirectoryTest, TryFetchReturnsNulloptInsteadOfThrowing) {
  net::UdpSocket placeholder;  // bound but nobody serving
  DirectoryClient client(placeholder.local_address());
  EXPECT_FALSE(client.try_fetch("search", 300 * kMillisecond).has_value());
  EXPECT_GT(client.snapshot_retries(), 0) << "retransmits still happen";
}

// Satellite property test (ISSUE 6): a server that re-publishes *exactly*
// at ttl_ms must never flap out of live_entries. DirectoryTable takes
// explicit clocks, so the boundary is probed deterministically: refresh at
// t = k*ttl and read at the very same instant — the ttl/4 grace window has
// to keep the entry visible at every probe.
TEST(DirectoryTest, RepublishExactlyAtTtlNeverFlaps) {
  DirectoryTable table;
  const std::uint32_t ttl_ms = 400;
  const SimDuration ttl = ttl_ms * kMillisecond;
  net::Publish publish = make_publish("search", 1, ttl_ms);
  table.apply(publish, /*now=*/0);
  for (int k = 1; k <= 50; ++k) {
    const SimTime boundary = static_cast<SimTime>(k) * ttl;
    // Read at the nominal expiry instant, *before* the refresh lands —
    // the worst ordering of the race.
    EXPECT_EQ(table.live_entries("search", boundary).size(), 1u)
        << "flapped at boundary " << k;
    table.apply(publish, boundary);
    // And at a few interior instants of the next interval.
    EXPECT_EQ(table.live_entries("search", boundary + ttl / 2).size(), 1u);
    EXPECT_EQ(table.live_entries("search", boundary + ttl - kMillisecond)
                  .size(),
              1u);
  }
  // The grace is bounded: without a refresh the entry still expires, just
  // ttl/4 late.
  const SimTime last = 50 * ttl;
  EXPECT_EQ(table.live_entries("search", last + ttl + ttl / 4 + kMillisecond)
                .size(),
            0u)
      << "grace must not keep dead entries alive past ttl + ttl/4";
}

// Same property through the real server under concurrency: one thread
// re-publishes on the exact-ttl cadence while readers sample continuously.
// Runs under the runtime label, so TSan checks the RCU protocol while ASan
// watches the buffers.
TEST(DirectoryTest, BoundaryRepublishStableUnderConcurrentReads) {
  DirectoryServer directory;
  directory.start();
  constexpr std::uint32_t kTtlMs = 100;
  constexpr SimDuration kTtl = kTtlMs * kMillisecond;
  constexpr SimDuration kGrace = kTtl / 4;  // DirectoryTable's grace

  // Each refresh is stamped when sent and when the directory is seen to
  // have applied it, bracketing the instant its expiry was computed from.
  struct Refresh {
    SimTime sent;
    SimTime applied;
  };
  std::vector<Refresh> refreshes;
  net::UdpSocket publisher;
  const auto publish = [&] {
    const std::int64_t before = directory.publishes_received();
    const SimTime sent = net::monotonic_now();
    publisher.send_to(make_publish("search", 1, kTtlMs).encode(),
                      directory.address());
    const SimTime give_up = sent + kSecond;
    while (directory.publishes_received() == before) {
      if (net::monotonic_now() > give_up) return;  // lost: no refresh
      net::sleep_for(50 * kMicrosecond);
    }
    refreshes.push_back({sent, net::monotonic_now()});
  };
  publish();
  ASSERT_EQ(refreshes.size(), 1u);
  ASSERT_EQ(directory.live_entries("search").size(), 1u);

  struct EmptyRead {
    SimTime begun;
    SimTime returned;
  };
  std::vector<EmptyRead> empty_reads;  // reader-owned until join()
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const SimTime begun = net::monotonic_now();
      if (directory.live_entries("search").empty()) {
        empty_reads.push_back({begun, net::monotonic_now()});
      }
    }
  });
  // Re-publish on the nominal ttl cadence for ~1.2 s, on an absolute
  // schedule so wake-up latency does not accumulate. Scheduling jitter
  // lands some refreshes slightly *after* the boundary — exactly the race
  // the ttl/4 grace absorbs.
  const SimTime start = refreshes.front().sent;
  for (int i = 1; i <= 12; ++i) {
    net::sleep_until(start + i * kTtl);
    publish();
  }
  stop.store(true);
  reader.join();
  directory.stop();

  // An empty read is a flap when some refresh was applied before the read
  // began and its ttl + grace, counted from its send, had not run out when
  // the read returned. A refresh a loaded host delays past the grace is a
  // late refresh, not a flap, so only the reads it leaves uncovered go
  // unchecked.
  std::int64_t flaps = 0;
  for (const EmptyRead& read : empty_reads) {
    for (const Refresh& refresh : refreshes) {
      if (refresh.applied <= read.begun &&
          read.returned < refresh.sent + kTtl + kGrace) {
        ++flaps;
        break;
      }
    }
  }
  EXPECT_EQ(flaps, 0)
      << "entry flapped out of live_entries despite on-time republish ("
      << empty_reads.size() << " empty reads, " << refreshes.size()
      << " refreshes applied)";
}

// Satellite TSan regression (ISSUE 6): the retry/failover counters are read
// from other threads while a fetch loop is live (benches do exactly this).
// Before this PR snapshot_retries_ was a plain int64_t — TSan flags that
// under the runtime label.
TEST(DirectoryTest, CountersReadableWhileFetchRuns) {
  net::UdpSocket placeholder;  // nobody answers: every fetch retries
  DirectoryClient client(placeholder.local_address());
  std::atomic<bool> stop{false};
  std::thread fetcher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      client.try_fetch("search", 150 * kMillisecond);
    }
  });
  std::int64_t last = 0;
  const SimTime deadline = net::monotonic_now() + 600 * kMillisecond;
  while (net::monotonic_now() < deadline) {
    const std::int64_t retries = client.snapshot_retries();
    EXPECT_GE(retries, last) << "counter must be monotonic";
    last = retries;
    (void)client.failovers();
    (void)client.redirects_followed();
    net::sleep_for(5 * kMillisecond);
  }
  stop.store(true);
  fetcher.join();
  EXPECT_GT(last, 0) << "unanswered fetches must retransmit";
}

TEST(DirectoryTest, WaitForServersReturnsPartialAfterDeadline) {
  DirectoryServer directory;
  directory.start();
  net::UdpSocket publisher;
  publisher.send_to(make_publish("search", 1).encode(), directory.address());
  DirectoryClient client(directory.address());
  const auto endpoints =
      client.wait_for_servers("search", 5, 300 * kMillisecond);
  EXPECT_EQ(endpoints.size(), 1u);
  directory.stop();
}

// The receive loop blocks on its socket and the stop signal, with no poll
// timeout for stop() to wait out.
TEST(DirectoryTest, SequentialStopsArePrompt) {
  std::vector<std::unique_ptr<DirectoryServer>> directories;
  for (int i = 0; i < 8; ++i) {
    directories.push_back(std::make_unique<DirectoryServer>());
    directories.back()->start();
  }
  net::sleep_for(60 * kMillisecond);
  const SimTime start = net::monotonic_now();
  for (auto& directory : directories) directory->stop();
  const SimDuration took = net::monotonic_now() - start;
  EXPECT_LT(took, 50 * kMillisecond) << to_ms(took) << " ms for 8 stops";
}

}  // namespace
}  // namespace finelb::cluster
