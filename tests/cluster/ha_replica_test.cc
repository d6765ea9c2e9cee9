// Threaded integration tests for the replicated directory: real sockets,
// real elections, real failover. RUNTIME + HA labels put these under the
// ASan/TSan sweeps.
#include "cluster/ha/replica.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/directory.h"
#include "common/check.h"
#include "fault/fault.h"
#include "net/clock.h"

namespace finelb::cluster::ha {
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

void publish_to_all(net::UdpSocket& socket, const net::Publish& publish,
                    const std::vector<net::Address>& replicas) {
  const auto payload = publish.encode();
  for (const auto& addr : replicas) socket.send_to(payload, addr);
}

HaReplicaConfig fast_config() {
  HaReplicaConfig config;
  config.heartbeat_interval = 20 * kMillisecond;
  config.election_timeout_min = 80 * kMillisecond;
  config.election_timeout_max = 160 * kMillisecond;
  config.leader_lease = 60 * kMillisecond;
  config.seed = 42;
  return config;
}

TEST(HaReplicaTest, SingleReplicaElectsItselfAndServes) {
  HaDirectoryCluster cluster(1, fast_config());
  ASSERT_NE(cluster.wait_for_leader(), -1);
  EXPECT_EQ(cluster.replica(0).role(), Role::kLeader);

  net::UdpSocket publisher;
  publish_to_all(publisher, make_publish("search", 1),
                 cluster.data_addresses());
  DirectoryClient client(cluster.data_addresses());
  const auto endpoints = client.wait_for_servers("search", 1);
  ASSERT_EQ(endpoints.size(), 1u);
  EXPECT_EQ(endpoints[0].server, 1);
}

TEST(HaReplicaTest, ThreeReplicasElectExactlyOneLeader) {
  HaDirectoryCluster cluster(3, fast_config());
  const std::int32_t leader = cluster.wait_for_leader();
  ASSERT_NE(leader, -1);
  // Once settled, exactly one replica claims leadership and all agree on
  // the term.
  net::sleep_for(200 * kMillisecond);
  int leaders = 0;
  for (std::int32_t i = 0; i < cluster.size(); ++i) {
    if (cluster.replica(i).role() == Role::kLeader) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  const std::int32_t settled = cluster.leader_index();
  ASSERT_NE(settled, -1);
  for (std::int32_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.replica(i).term(), cluster.replica(settled).term())
        << "replica " << i;
  }
}

TEST(HaReplicaTest, FollowerRedirectsClientToLeader) {
  HaDirectoryCluster cluster(3, fast_config());
  const std::int32_t leader = cluster.wait_for_leader();
  ASSERT_NE(leader, -1);
  net::sleep_for(100 * kMillisecond);  // let heartbeats spread the leader id

  net::UdpSocket publisher;
  publish_to_all(publisher, make_publish("search", 1),
                 cluster.data_addresses());

  const std::int32_t follower = (cluster.leader_index() + 1) % cluster.size();
  // Client aimed only at a follower: must arrive at the answer by
  // following the Redirect reply.
  DirectoryClient client({cluster.replica(follower).data_address()});
  const auto endpoints = client.wait_for_servers("search", 1);
  ASSERT_EQ(endpoints.size(), 1u);
  EXPECT_GE(client.redirects_followed(), 1);
  if (telemetry::kEnabled) {
    EXPECT_GE(cluster.replica(follower).registry().snapshot().counters.size(),
              1u);
  }
}

TEST(HaReplicaTest, ClientFailsOverAfterLeaderKill) {
  HaDirectoryCluster cluster(3, fast_config());
  ASSERT_NE(cluster.wait_for_leader(), -1);

  // Background publisher keeps the soft state fresh on every replica, the
  // way real servers re-publish on an interval.
  std::atomic<bool> stop{false};
  std::thread publisher_thread([&] {
    net::UdpSocket socket;
    const auto addrs = cluster.data_addresses();
    while (!stop.load(std::memory_order_relaxed)) {
      publish_to_all(socket, make_publish("search", 1, /*ttl_ms=*/500),
                     addrs);
      net::sleep_for(50 * kMillisecond);
    }
  });

  DirectoryClient client(cluster.data_addresses(), /*seed=*/7);
  ASSERT_EQ(client.wait_for_servers("search", 1).size(), 1u);

  const std::int32_t killed = cluster.kill_leader();
  ASSERT_NE(killed, -1);

  // The survivors must re-elect and the client must find the new leader
  // without throwing (try_fetch path under the hood).
  const auto after = client.try_fetch("search", 5 * kSecond);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->size(), 1u);
  const std::int32_t new_leader = cluster.wait_for_leader();
  ASSERT_NE(new_leader, -1);
  EXPECT_NE(new_leader, killed);
  EXPECT_GT(cluster.replica(new_leader).term(), 0u);

  stop.store(true);
  publisher_thread.join();
}

TEST(HaReplicaTest, TryFetchReturnsNulloptWhenAllReplicasDead) {
  auto cluster = std::make_unique<HaDirectoryCluster>(3, fast_config());
  ASSERT_NE(cluster->wait_for_leader(), -1);
  net::UdpSocket publisher;
  publish_to_all(publisher, make_publish("search", 1),
                 cluster->data_addresses());
  DirectoryClient client(cluster->data_addresses());
  ASSERT_EQ(client.wait_for_servers("search", 1).size(), 1u);
  const auto cached = client.last_snapshot();
  ASSERT_EQ(cached.size(), 1u);

  for (std::int32_t i = 0; i < cluster->size(); ++i) {
    cluster->replica(i).stop();
  }
  const auto result = client.try_fetch("search", 400 * kMillisecond);
  EXPECT_FALSE(result.has_value());
  // Stale-but-recent cache still serves: this is what keeps mapping
  // refreshes alive through an election window.
  EXPECT_EQ(client.last_snapshot().size(), 1u);
  EXPECT_GT(client.failovers(), 0);
}

TEST(HaReplicaTest, LeaderElectedTraceInstantRecorded) {
  if (!telemetry::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  HaDirectoryCluster cluster(3, fast_config());
  const std::int32_t leader = cluster.wait_for_leader();
  ASSERT_NE(leader, -1);
  const auto records = cluster.replica(leader).trace_ring().snapshot();
  bool found = false;
  for (const auto& record : records) {
    if (record.point == telemetry::TracePoint::kLeaderElected) {
      found = true;
      EXPECT_EQ(record.node, leader);
      EXPECT_GE(record.detail, 1);
    }
  }
  EXPECT_TRUE(found) << "election must leave a kLeaderElected instant";
}

// Elections must still converge when the control plane itself is lossy —
// the FaultInjector hook on the election sockets (tentpole requirement).
TEST(HaReplicaTest, ElectsLeaderUnderControlPlaneLoss) {
  HaReplicaConfig config = fast_config();
  config.seed = 99;
  HaClusterFaults faults;
  faults.control = [](std::int32_t id) {
    return std::make_shared<fault::FaultInjector>(
        fault::FaultSpec::symmetric_loss(
            0.25, /*seed=*/100 + static_cast<std::uint64_t>(id)));
  };
  HaDirectoryCluster cluster(3, config, faults);
  EXPECT_NE(cluster.wait_for_leader(10 * kSecond), -1);
}

// A replica keeps its poll slice for heartbeats and elections; stop() must
// not wait it out. Slow timers make the difference visible: a 400 ms
// heartbeat gives a 100 ms slice per replica.
TEST(HaReplicaTest, ClusterTearDownIsPrompt) {
  HaReplicaConfig config;
  config.heartbeat_interval = 400 * kMillisecond;
  config.election_timeout_min = 1600 * kMillisecond;
  config.election_timeout_max = 3200 * kMillisecond;
  config.leader_lease = 1200 * kMillisecond;
  config.seed = 7;
  auto cluster = std::make_unique<HaDirectoryCluster>(3, config);
  net::sleep_for(60 * kMillisecond);
  const SimTime start = net::monotonic_now();
  cluster.reset();  // stops every replica in turn
  const SimDuration took = net::monotonic_now() - start;
  EXPECT_LT(took, 50 * kMillisecond) << to_ms(took) << " ms for 3 replicas";
}

}  // namespace
}  // namespace finelb::cluster::ha
