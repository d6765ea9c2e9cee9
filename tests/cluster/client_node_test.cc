#include "cluster/client_node.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "cluster/broadcast_channel.h"
#include "cluster/ideal_manager.h"
#include "cluster/server_node.h"
#include "fault/fault.h"
#include "net/clock.h"
#include "workload/catalog.h"

namespace finelb::cluster {
namespace {

struct TestCluster {
  std::vector<std::unique_ptr<ServerNode>> servers;
  std::vector<ServerEndpoints> endpoints;

  explicit TestCluster(int n) {
    for (int s = 0; s < n; ++s) {
      ServerOptions opts;
      opts.id = s;
      opts.inject_busy_reply_delay = false;
      opts.seed = 100 + static_cast<std::uint64_t>(s);
      servers.push_back(std::make_unique<ServerNode>(opts));
      servers.back()->start();
      endpoints.push_back({servers.back()->id(),
                           servers.back()->service_address(),
                           servers.back()->load_address()});
    }
  }
  ~TestCluster() {
    for (auto& s : servers) s->stop();
  }
};

ClientOptions base_options(const TestCluster& cluster, PolicyConfig policy,
                           std::int64_t requests) {
  ClientOptions opts;
  opts.id = 1;
  opts.policy = policy;
  opts.servers = cluster.endpoints;
  opts.total_requests = requests;
  opts.warmup_requests = 0;
  opts.seed = 7;
  return opts;
}

// Fast workload: 2 ms mean service, arrivals scaled for light load so the
// tests finish quickly.
std::unique_ptr<RequestSource> fast_source(double interval_scale = 1.0) {
  static const Workload w = make_poisson_exp(0.002);
  static std::uint64_t seed = 900;
  return w.make_source(interval_scale, ++seed);
}

TEST(ClientNodeTest, RandomPolicyCompletesAllRequests) {
  TestCluster cluster(2);
  ClientNode client(base_options(cluster, PolicyConfig::random(), 200),
                    fast_source());
  client.run();
  const ClientStats& stats = client.stats();
  EXPECT_EQ(stats.issued, 200);
  EXPECT_EQ(stats.completed, 200);
  EXPECT_EQ(stats.response_timeouts, 0);
  EXPECT_GT(stats.response_ms.mean(), 2.0);  // at least the service time
  EXPECT_EQ(stats.polls_sent, 0);
}

TEST(ClientNodeTest, PollingPolicySendsInquiries) {
  TestCluster cluster(4);
  ClientNode client(base_options(cluster, PolicyConfig::polling(2), 150),
                    fast_source());
  client.run();
  const ClientStats& stats = client.stats();
  EXPECT_EQ(stats.completed, 150);
  EXPECT_EQ(stats.polls_sent, 2 * 150);
  EXPECT_GT(stats.poll_replies_used, 0);
  EXPECT_GT(stats.poll_time_ms.count(), 0);
  // Loopback polls on idle servers finish way under the 50 ms backstop.
  EXPECT_LT(stats.poll_time_ms.mean(), 25.0);
}

TEST(ClientNodeTest, TelemetryMirrorsClientStats) {
  TestCluster cluster(4);
  ClientOptions opts = base_options(cluster, PolicyConfig::polling(2), 150);
  opts.trace_sample_period = 10;  // every 10th access leaves a trace
  ClientNode client(std::move(opts), fast_source());
  client.run();
  const ClientStats& stats = client.stats();
  EXPECT_EQ(stats.completed, 150);

  if (!telemetry::kEnabled) {
    EXPECT_TRUE(client.metrics().snapshot().counters.empty());
    return;
  }
  const auto snap = client.metrics().snapshot("client.1");
  EXPECT_EQ(snap.node, "client.1");
  std::int64_t issued = -1, completed = -1, polls_sent = -1;
  for (const auto& [name, value] : snap.counters) {
    if (name == "requests_issued") issued = value;
    if (name == "requests_completed") completed = value;
    if (name == "polls_sent") polls_sent = value;
  }
  EXPECT_EQ(issued, stats.issued);
  EXPECT_EQ(completed, stats.completed);
  EXPECT_EQ(polls_sent, stats.polls_sent);
  // Histogram mirror carries the same sample counts as ClientStats.
  for (const auto& hist : snap.histograms) {
    if (hist.name == "poll_rtt_ms") {
      EXPECT_EQ(hist.count, stats.poll_rtt_ms.count());
      EXPECT_GT(hist.count, 0);
    }
    if (hist.name == "response_time_ms") {
      EXPECT_EQ(hist.count, stats.response_ms.count());
    }
  }
  // Sampled accesses left full lifecycle traces keyed by the globally
  // unique request id (client id << 40 | access index); the embedded access
  // index honours the sampling period.
  const auto trace = client.trace().snapshot();
  EXPECT_FALSE(trace.empty());
  bool saw_enqueue = false, saw_pick = false, saw_response = false;
  for (const auto& rec : trace) {
    EXPECT_EQ(rec.request_id >> 40, 1u);
    EXPECT_EQ((rec.request_id & ((1ull << 40) - 1)) % 10, 0u);
    if (rec.point == telemetry::TracePoint::kClientEnqueue) {
      saw_enqueue = true;
    }
    if (rec.point == telemetry::TracePoint::kServerPick) saw_pick = true;
    if (rec.point == telemetry::TracePoint::kResponse) saw_response = true;
  }
  EXPECT_TRUE(saw_enqueue);
  EXPECT_TRUE(saw_pick);
  EXPECT_TRUE(saw_response);
  // And the JSON snapshot is exportable end-to-end.
  const std::string json = client.stats_json();
  EXPECT_NE(json.find("\"node\":\"client.1\""), std::string::npos);
  EXPECT_NE(json.find("\"poll_rtt_ms\""), std::string::npos);
}

// Every ClientStats field with a registry mirror must equal its mirror.
void ExpectRegistryMirrorsStats(const ClientNode& client) {
  const ClientStats& s = client.stats();
  const auto snap = client.metrics().snapshot();
  std::map<std::string, std::int64_t> got(snap.counters.begin(),
                                          snap.counters.end());
  for (const auto& hist : snap.histograms) got[hist.name] = hist.count;
  const std::map<std::string, std::int64_t> want = {
      {"requests_issued", s.issued},
      {"requests_completed", s.completed},
      {"polls_sent", s.polls_sent},
      {"polls_discarded", s.polls_discarded},
      {"polls_timed_out", s.polls_timed_out},
      {"fallback_dispatches", s.fallback_dispatches},
      {"response_timeouts", s.response_timeouts},
      {"send_failures", s.send_failures},
      {"blacklist_insertions", s.blacklist_insertions},
      {"blacklist_hits", s.blacklist_hits},
      // Histogram mirrors: sample counts.
      {"poll_time_ms", s.poll_time_ms.count()},
      {"poll_rtt_ms", s.poll_rtt_ms.count()},
      {"response_time_ms", s.response_ms.count()},
  };
  for (const auto& [name, value] : want) {
    ASSERT_TRUE(got.count(name)) << name;
    EXPECT_EQ(got[name], value) << name;
  }
}

TEST(ClientNodeTest, RegistryMirrorsEveryClientStatsCounter) {
  if (!telemetry::kEnabled) return;  // no registry to compare against
  TestCluster cluster(3);

  // Polling over a lossy network: exercises timed-out rounds, blind
  // fallbacks, response timeouts and the blacklist.
  ClientOptions lossy = base_options(cluster, PolicyConfig::polling(2), 150);
  lossy.fault = std::make_shared<fault::FaultInjector>(
      fault::FaultSpec::symmetric_loss(0.15, 11));
  lossy.max_poll_wait = 20 * kMillisecond;
  lossy.response_timeout = 150 * kMillisecond;
  lossy.blacklist_cooldown = 100 * kMillisecond;
  ClientNode polling(std::move(lossy), fast_source());
  polling.run();
  EXPECT_GT(polling.stats().polls_timed_out, 0);
  EXPECT_GT(polling.stats().response_timeouts, 0);
  ExpectRegistryMirrorsStats(polling);

  // IDEAL: decisions come from the manager, not from poll rounds.
  IdealManager manager(3, 5);
  manager.start();
  ClientOptions ideal_opts = base_options(cluster, PolicyConfig::ideal(), 60);
  ideal_opts.ideal_manager = manager.address();
  ClientNode ideal(std::move(ideal_opts), fast_source());
  ideal.run();
  manager.stop();
  EXPECT_GT(ideal.stats().poll_time_ms.count(), 0);
  ExpectRegistryMirrorsStats(ideal);

  // Broadcast: decisions from the locally held load table.
  BroadcastChannel channel;
  channel.start();
  ClientOptions broadcast_opts =
      base_options(cluster, PolicyConfig::broadcast(kSecond), 60);
  broadcast_opts.broadcast_channel = channel.address();
  ClientNode broadcast(std::move(broadcast_opts), fast_source());
  broadcast.run();
  channel.stop();
  EXPECT_EQ(broadcast.stats().completed, 60);
  ExpectRegistryMirrorsStats(broadcast);
}

TEST(ClientNodeTest, PollSizeClampsToServerCount) {
  TestCluster cluster(2);
  ClientNode client(base_options(cluster, PolicyConfig::polling(8), 50),
                    fast_source());
  client.run();
  EXPECT_EQ(client.stats().polls_sent, 2 * 50)
      << "poll set must clamp to the two live servers";
  EXPECT_EQ(client.stats().completed, 50);
}

TEST(ClientNodeTest, DiscardModeBoundsPollTime) {
  TestCluster cluster(3);
  ClientNode client(
      base_options(cluster, PolicyConfig::polling(2, from_ms(1.0)), 150),
      fast_source());
  client.run();
  const ClientStats& stats = client.stats();
  EXPECT_EQ(stats.completed, 150);
  // No decision may take longer than the discard deadline plus loop slack.
  EXPECT_LT(stats.poll_time_ms.max(), 10.0);
}

TEST(ClientNodeTest, DuplicatedPollRepliesDoNotCloseARoundEarly) {
  if (!telemetry::kEnabled) GTEST_SKIP() << "decision ring compiled out";
  TestCluster cluster(4);
  ClientOptions opts = base_options(cluster, PolicyConfig::polling(3), 100);
  // Every datagram the client receives arrives twice.
  fault::FaultSpec spec;
  spec.ingress.dup_prob = 1.0;
  spec.seed = 5;
  opts.fault = std::make_shared<fault::FaultInjector>(spec);
  opts.max_poll_wait = 2 * kSecond;  // only complete rounds decide
  opts.decision_sample_period = 1;
  opts.decision_capacity = 128;
  ClientNode client(std::move(opts), fast_source());
  client.run();
  EXPECT_EQ(client.stats().completed, 100);

  const auto records = client.decisions().snapshot();
  ASSERT_EQ(records.size(), 100u);
  for (const DecisionRecord& rec : records) {
    EXPECT_FALSE(rec.blind_fallback);
    ASSERT_EQ(rec.polled_count, 3);
    std::set<ServerId> distinct;
    for (int i = 0; i < rec.polled_count; ++i) {
      distinct.insert(rec.polled[i].server);
    }
    EXPECT_EQ(distinct.size(), 3u)
        << "a repeated reply stood in for a server that had not answered";
  }
}

TEST(ClientNodeTest, PollMemoryJoinsEveryPickAfterTheFirst) {
  if (!telemetry::kEnabled) GTEST_SKIP() << "decision ring compiled out";
  TestCluster cluster(4);
  PolicyConfig policy = PolicyConfig::polling(2);
  policy.poll_memory = true;
  ClientOptions opts = base_options(cluster, policy, 100);
  opts.max_poll_wait = 2 * kSecond;
  opts.decision_sample_period = 1;
  opts.decision_capacity = 128;
  ClientNode client(std::move(opts), fast_source());
  client.run();
  EXPECT_EQ(client.stats().completed, 100);

  // Decisions are recorded in the order they were made, so each round's
  // memory candidate (listed after its two replies) is the previous
  // round's winner.
  const auto records = client.decisions().snapshot();
  ASSERT_EQ(records.size(), 100u);
  EXPECT_EQ(records[0].polled_count, 2);
  for (std::size_t i = 1; i < records.size(); ++i) {
    ASSERT_EQ(records[i].polled_count, 3) << "decision " << i;
    EXPECT_EQ(records[i].polled[2].server, records[i - 1].chosen);
    EXPECT_GE(records[i].polled[2].queue_length, 1);
  }
}

TEST(ClientNodeTest, IdealPolicyUsesManagerAndReleases) {
  TestCluster cluster(3);
  IdealManager manager(3, 5);
  manager.start();
  ClientOptions opts = base_options(cluster, PolicyConfig::ideal(), 120);
  opts.ideal_manager = manager.address();
  ClientNode client(std::move(opts), fast_source());
  client.run();
  const ClientStats& stats = client.stats();
  EXPECT_EQ(stats.completed, 120);
  EXPECT_EQ(stats.manager_timeouts, 0);
  EXPECT_EQ(manager.acquires(), 120);
  // Allow the final releases to land.
  net::sleep_for(100 * kMillisecond);
  EXPECT_EQ(manager.releases(), 120);
  for (const auto q : manager.tracked_queues()) EXPECT_EQ(q, 0);
  manager.stop();
}

TEST(ClientNodeTest, IdealWithoutManagerAddressRejected) {
  TestCluster cluster(1);
  EXPECT_THROW(ClientNode(base_options(cluster, PolicyConfig::ideal(), 10),
                          fast_source()),
               InvariantError);
}

TEST(ClientNodeTest, BroadcastPolicyRejected) {
  TestCluster cluster(1);
  EXPECT_THROW(
      ClientNode(base_options(cluster, PolicyConfig::broadcast(kSecond), 10),
                 fast_source()),
      InvariantError);
}

TEST(ClientNodeTest, WarmupExcludedFromRecordedStats) {
  TestCluster cluster(2);
  ClientOptions opts = base_options(cluster, PolicyConfig::random(), 100);
  opts.warmup_requests = 40;
  ClientNode client(std::move(opts), fast_source());
  client.run();
  EXPECT_EQ(client.stats().completed, 100);
  EXPECT_EQ(client.stats().recorded, 60);
  EXPECT_EQ(client.stats().response_ms.count(), 60);
}

TEST(ClientNodeTest, DeadServerProducesResponseTimeouts) {
  TestCluster cluster(1);
  // Add a second, dead endpoint: a bound socket nobody serves.
  net::UdpSocket dead_service;
  net::UdpSocket dead_load;
  ClientOptions opts = base_options(cluster, PolicyConfig::random(), 60);
  opts.servers.push_back(
      {1, dead_service.local_address(), dead_load.local_address()});
  opts.response_timeout = 300 * kMillisecond;
  ClientNode client(std::move(opts), fast_source());
  client.run();
  const ClientStats& stats = client.stats();
  EXPECT_EQ(stats.completed + stats.response_timeouts, 60);
  EXPECT_GT(stats.response_timeouts, 10) << "~half the requests hit the dead "
                                            "server and must time out";
  EXPECT_GT(stats.completed, 10);
}

TEST(ClientNodeTest, PollingSurvivesDeadLoadServer) {
  TestCluster cluster(2);
  net::UdpSocket dead_service;
  net::UdpSocket dead_load;
  ClientOptions opts = base_options(cluster, PolicyConfig::polling(3), 60);
  opts.servers.push_back(
      {2, dead_service.local_address(), dead_load.local_address()});
  opts.max_poll_wait = 100 * kMillisecond;
  opts.response_timeout = 500 * kMillisecond;
  ClientNode client(std::move(opts), fast_source(4.0));
  client.run();
  const ClientStats& stats = client.stats();
  // Every access resolves: polls to the dead node time out and the round
  // decides with the replies that did arrive.
  EXPECT_EQ(stats.issued, 60);
  EXPECT_GT(stats.polls_timed_out, 0);
  EXPECT_GT(stats.completed, 0);
}

TEST(ClientNodeTest, ValidationErrors) {
  TestCluster cluster(1);
  ClientOptions no_servers = base_options(cluster, PolicyConfig::random(), 10);
  no_servers.servers.clear();
  EXPECT_THROW(ClientNode(std::move(no_servers), fast_source()),
               InvariantError);

  ClientOptions zero = base_options(cluster, PolicyConfig::random(), 0);
  EXPECT_THROW(ClientNode(std::move(zero), fast_source()), InvariantError);

  EXPECT_THROW(ClientNode(base_options(cluster, PolicyConfig::random(), 10),
                          nullptr),
               InvariantError);
}

}  // namespace
}  // namespace finelb::cluster
