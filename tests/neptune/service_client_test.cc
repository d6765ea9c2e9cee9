// End-to-end Neptune layer: directory + partitioned service nodes +
// load-balancing service client.
#include "neptune/service_client.h"

#include <gtest/gtest.h>

#include <map>
#include <mutex>

#include "cluster/directory.h"
#include "cluster/server_node.h"
#include "common/check.h"
#include "net/clock.h"
#include "neptune/method_table.h"

namespace finelb::neptune {
namespace {

constexpr std::uint16_t kGet = 1;
constexpr std::uint16_t kPut = 2;

/// A tiny partitioned key/value store service used as the test app.
class KvApp {
 public:
  void attach(MethodTable& table) {
    table.add(kPut, [this](std::uint32_t partition,
                           std::span<const std::uint8_t> args) {
      // args: key '\0' value
      const auto sep = std::find(args.begin(), args.end(), 0);
      FINELB_CHECK(sep != args.end(), "malformed put");
      std::lock_guard<std::mutex> lock(mutex_);
      data_[partition][std::string(args.begin(), sep)] =
          std::string(sep + 1, args.end());
      return std::vector<std::uint8_t>{};
    });
    table.add(kGet, [this](std::uint32_t partition,
                           std::span<const std::uint8_t> args)
                        -> std::vector<std::uint8_t> {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto& partition_map = data_[partition];
      const auto it = partition_map.find(std::string(args.begin(), args.end()));
      if (it == partition_map.end()) throw std::runtime_error("missing key");
      return {it->second.begin(), it->second.end()};
    });
  }

 private:
  std::mutex mutex_;
  std::map<std::uint32_t, std::map<std::string, std::string>> data_;
};

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

struct KvCluster {
  cluster::DirectoryServer directory;
  KvApp app;  // shared across replicas: stands in for replicated state
  std::vector<std::unique_ptr<MethodTable>> tables;  // outlive the nodes
  std::vector<std::unique_ptr<cluster::ServerNode>> nodes;

  // node id -> partitions it hosts
  explicit KvCluster(
      const std::vector<std::pair<ServerId, std::vector<std::uint32_t>>>&
          spec) {
    directory.start();
    std::size_t publishes = 0;
    for (const auto& [id, partitions] : spec) {
      tables.push_back(std::make_unique<MethodTable>(partitions));
      app.attach(*tables.back());
      cluster::ServerOptions options;
      options.id = id;
      options.inject_busy_reply_delay = false;
      options.handler = tables.back()->handler();
      auto node = std::make_unique<cluster::ServerNode>(options);
      node->enable_publishing({directory.address()}, "kv", partitions,
                              50 * kMillisecond, 300 * kMillisecond);
      node->start();
      publishes += partitions.size();
      nodes.push_back(std::move(node));
    }
    // Wait until the directory holds every (node, partition) entry.
    const SimTime deadline = net::monotonic_now() + 5 * kSecond;
    while (directory.live_entries("kv").size() < publishes &&
           net::monotonic_now() < deadline) {
      net::sleep_for(10 * kMillisecond);
    }
  }
  ~KvCluster() {
    for (auto& node : nodes) node->stop();
    directory.stop();
  }

  ServiceClientOptions client_options(PolicyConfig policy) const {
    ServiceClientOptions options;
    options.service_name = "kv";
    options.directory = directory.address();
    options.policy = policy;
    options.rpc_timeout = 300 * kMillisecond;
    options.seed = 77;
    return options;
  }
};

TEST(ServiceClientTest, PutThenGetThroughPolling) {
  KvCluster cluster({{0, {0}}, {1, {0}}, {2, {1}}, {3, {1}}});
  ServiceClient client(cluster.client_options(PolicyConfig::polling(2)));
  EXPECT_EQ(client.replicas(0), 2u);
  EXPECT_EQ(client.replicas(1), 2u);

  const auto put = client.call(kPut, 1, bytes(std::string("k\0vee", 5)));
  ASSERT_TRUE(put.transport_ok);
  EXPECT_EQ(put.status, net::RpcStatus::kOk);

  const auto get = client.call(kGet, 1, bytes("k"));
  ASSERT_TRUE(get.transport_ok);
  EXPECT_EQ(get.status, net::RpcStatus::kOk);
  EXPECT_EQ(std::string(get.data.begin(), get.data.end()), "vee");
  EXPECT_GT(get.latency, 0);
  EXPECT_GE(client.stats().polls_sent, 2);
}

TEST(ServiceClientTest, AccessesSpreadAcrossReplicas) {
  KvCluster cluster({{0, {0}}, {1, {0}}, {2, {0}}});
  ServiceClient client(cluster.client_options(PolicyConfig::random()));
  client.call(kPut, 0, bytes(std::string("k\0v", 3)));

  std::map<ServerId, int> served_by;
  for (int i = 0; i < 60; ++i) {
    const auto result = client.call(kGet, 0, bytes("k"));
    ASSERT_TRUE(result.transport_ok);
    ++served_by[result.server];
  }
  EXPECT_EQ(served_by.size(), 3u) << "random policy must reach all replicas";
}

TEST(ServiceClientTest, RoundRobinCycles) {
  KvCluster cluster({{0, {0}}, {1, {0}}});
  ServiceClient client(cluster.client_options(PolicyConfig::round_robin()));
  client.call(kPut, 0, bytes(std::string("k\0v", 3)));
  std::map<ServerId, int> served_by;
  for (int i = 0; i < 10; ++i) {
    ++served_by[client.call(kGet, 0, bytes("k")).server];
  }
  ASSERT_EQ(served_by.size(), 2u);
  // Perfect alternation modulo the put: 5 +- 1 each.
  for (const auto& [id, count] : served_by) {
    (void)id;
    EXPECT_NEAR(count, 5, 1);
  }
}

TEST(ServiceClientTest, AppErrorsSurfaceWithoutRetryStorm) {
  KvCluster cluster({{0, {0}}});
  ServiceClient client(cluster.client_options(PolicyConfig::polling(2)));
  const auto result = client.call(kGet, 0, bytes("absent"));
  ASSERT_TRUE(result.transport_ok);
  EXPECT_EQ(result.status, net::RpcStatus::kAppError);
}

TEST(ServiceClientTest, UnknownPartitionFailsTransport) {
  KvCluster cluster({{0, {0}}});
  ServiceClientOptions options =
      cluster.client_options(PolicyConfig::polling(2));
  options.max_attempts = 2;
  ServiceClient client(options);
  const auto result = client.call(kGet, 9, bytes("k"));
  EXPECT_FALSE(result.transport_ok);
  EXPECT_EQ(client.stats().transport_failures, 1);
}

TEST(ServiceClientTest, FailoverToSurvivingReplica) {
  KvCluster cluster({{0, {0}}, {1, {0}}});
  ServiceClientOptions options =
      cluster.client_options(PolicyConfig::round_robin());
  options.mapping_refresh = 50 * kMillisecond;
  ServiceClient client(options);
  client.call(kPut, 0, bytes(std::string("k\0v", 3)));

  cluster.nodes[1]->stop();
  net::sleep_for(400 * kMillisecond);  // soft state expires (ttl 300 ms)

  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    const auto result = client.call(kGet, 0, bytes("k"));
    if (result.transport_ok && result.status == net::RpcStatus::kOk) {
      EXPECT_EQ(result.server, 0);
      ++ok;
    }
  }
  EXPECT_GE(ok, 9) << "client must converge on the surviving replica";
}

TEST(ServiceClientTest, RejectsUnsupportedPolicies) {
  KvCluster cluster({{0, {0}}});
  EXPECT_THROW(
      ServiceClient client(cluster.client_options(PolicyConfig::ideal())),
      InvariantError);
  EXPECT_THROW(ServiceClient client(cluster.client_options(
                   PolicyConfig::broadcast(kSecond))),
               InvariantError);
}

}  // namespace
}  // namespace finelb::neptune
