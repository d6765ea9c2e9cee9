#include "telemetry/scrape.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/client_node.h"
#include "cluster/server_node.h"
#include "fault/fault.h"
#include "net/clock.h"
#include "net/poller.h"
#include "telemetry/metrics.h"
#include "workload/catalog.h"

namespace finelb::telemetry {
namespace {

struct LiveServers {
  std::vector<std::unique_ptr<cluster::ServerNode>> servers;
  std::vector<cluster::ServerEndpoints> endpoints;

  explicit LiveServers(int n,
                       std::shared_ptr<fault::FaultInjector> fault = nullptr,
                       int faulty_index = -1) {
    for (int s = 0; s < n; ++s) {
      cluster::ServerOptions opts;
      opts.id = s;
      opts.inject_busy_reply_delay = false;
      opts.seed = 100 + static_cast<std::uint64_t>(s);
      if (s == faulty_index) opts.fault = fault;
      servers.push_back(std::make_unique<cluster::ServerNode>(opts));
      servers.back()->start();
      endpoints.push_back({servers.back()->id(),
                           servers.back()->service_address(),
                           servers.back()->load_address()});
    }
  }
  ~LiveServers() {
    for (auto& s : servers) s->stop();
  }
};

// An address that once belonged to a socket and no longer does: inquiries
// to it go nowhere, modelling a crashed node.
net::Address dead_address() {
  net::UdpSocket socket;
  return socket.local_address();
}

TEST(ScrapeHardeningTest, ClusterScrapeReturnsPartialResultsPastDeadNode) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  LiveServers cluster(2);
  std::vector<net::Address> addrs = {cluster.endpoints[0].load_addr,
                                     dead_address(),
                                     cluster.endpoints[1].load_addr};
  const ClusterStatsScrape scrape =
      scrape_cluster_stats(addrs, /*per_node_timeout=*/50 * kMillisecond,
                           /*retries_per_node=*/1);
  EXPECT_EQ(scrape.answered, 2);
  EXPECT_EQ(scrape.failed, 1);
  ASSERT_EQ(scrape.documents.size(), 3u);
  // Input order preserved; only the dead slot is empty.
  ASSERT_TRUE(scrape.documents[0].has_value());
  EXPECT_FALSE(scrape.documents[1].has_value());
  ASSERT_TRUE(scrape.documents[2].has_value());
  EXPECT_NE(scrape.documents[0]->find("\"node\":\"server.0\""),
            std::string::npos)
      << *scrape.documents[0];
  EXPECT_NE(scrape.documents[2]->find("\"node\":\"server.1\""),
            std::string::npos);
  EXPECT_EQ(scrape.answered_documents().size(), 2u);
}

TEST(ScrapeHardeningTest, ClusterScrapeSurvivesFaultInjectedStatsSocket) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  // Server 1's sockets (including the load socket answering STATS_INQUIRY)
  // drop every datagram: the scrape must charge that node one failed slot
  // and still return server 0's document.
  auto blackhole = std::make_shared<fault::FaultInjector>(
      fault::FaultSpec::symmetric_loss(1.0));
  LiveServers cluster(2, blackhole, /*faulty_index=*/1);
  const std::vector<net::Address> addrs = {cluster.endpoints[0].load_addr,
                                           cluster.endpoints[1].load_addr};
  const ClusterStatsScrape scrape =
      scrape_cluster_stats(addrs, /*per_node_timeout=*/50 * kMillisecond,
                           /*retries_per_node=*/2);
  EXPECT_EQ(scrape.answered, 1);
  EXPECT_EQ(scrape.failed, 1);
  ASSERT_EQ(scrape.documents.size(), 2u);
  EXPECT_TRUE(scrape.documents[0].has_value());
  EXPECT_FALSE(scrape.documents[1].has_value());
  EXPECT_GT(blackhole->counters().drops, 0);
}

TEST(ScrapeHardeningTest, SingleNodeScrapeTimesOutCleanly) {
  EXPECT_EQ(scrape_stats(dead_address(), 50 * kMillisecond), std::nullopt);
  EXPECT_EQ(scrape_trace(dead_address(), 50 * kMillisecond), std::nullopt);
  EXPECT_EQ(scrape_decisions(dead_address(), 50 * kMillisecond),
            std::nullopt);
}

// The one pull channel on both node kinds: a live server (load socket) and
// a live client (service socket) each answer a stats, a trace and a
// decisions pull, the client mid-run.
TEST(ScrapeTest, EveryNodeAnswersEveryPull) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  cluster::ServerOptions sopts;
  sopts.id = 4;
  sopts.inject_busy_reply_delay = false;
  sopts.trace_sample_period = 1;
  cluster::ServerNode server(sopts);
  server.start();

  cluster::ClientOptions copts;
  copts.id = 6;
  copts.policy = PolicyConfig::polling(2);
  copts.servers = {{server.id(), server.service_address(),
                    server.load_address()}};
  copts.total_requests = 600;
  copts.warmup_requests = 0;
  copts.seed = 9;
  copts.trace_sample_period = 4;
  // Large enough that the client's ring never wraps: a mid-run pull is
  // then a prefix of the ring's final contents.
  copts.trace_capacity = 1 << 14;
  copts.decision_sample_period = 1;
  static const Workload workload = make_poisson_exp(0.001);
  cluster::ClientNode client(
      copts, workload.make_source(workload.arrival_scale_for_load(0.5, 1),
                                  902));

  std::atomic<bool> done{false};
  std::thread runner([&] {
    client.run();
    done.store(true);
  });
  std::optional<std::string> client_stats;
  std::optional<NodeTraceScrape> client_trace;
  std::optional<NodeDecisionScrape> client_decisions;
  while (!done.load() && !(client_stats && client_trace && client_decisions)) {
    if (!client_stats) {
      client_stats = scrape_stats(client.pull_address(), 50 * kMillisecond);
    }
    if (!client_trace || client_trace->records.empty()) {
      client_trace = scrape_trace(client.pull_address(), 50 * kMillisecond);
      if (client_trace && client_trace->records.empty()) client_trace.reset();
    }
    if (!client_decisions) {
      client_decisions =
          scrape_decisions(client.pull_address(), 50 * kMillisecond);
      if (client_decisions && client_decisions->records.empty()) {
        client_decisions.reset();
      }
    }
  }
  runner.join();
  ASSERT_TRUE(client_stats && client_trace && client_decisions)
      << "client finished before every pull landed";

  EXPECT_NE(client_stats->find("\"node\":\"client.6\""), std::string::npos)
      << *client_stats;
  EXPECT_EQ(client_trace->node, 6);
  EXPECT_TRUE(client_trace->complete);
  const std::vector<TraceRecord> client_ring = client.trace().snapshot();
  ASSERT_LE(client_trace->records.size(), client_ring.size());
  for (std::size_t i = 0; i < client_trace->records.size(); ++i) {
    EXPECT_EQ(client_trace->records[i].request_id, client_ring[i].request_id);
    EXPECT_EQ(client_trace->records[i].point, client_ring[i].point);
    EXPECT_EQ(client_trace->records[i].at_ns, client_ring[i].at_ns);
  }
  EXPECT_EQ(client_decisions->node, 6);
  EXPECT_FALSE(client_decisions->clock_samples.empty());

  // The server's ring is quiescent once every request it took is counted
  // (kResponse is recorded before requests_served ticks).
  const SimTime drain_deadline = net::monotonic_now() + kSecond;
  while (server.counters().requests_served < client.stats().completed &&
         net::monotonic_now() < drain_deadline) {
    net::sleep_for(kMillisecond);
  }
  const auto server_stats = scrape_stats(server.load_address());
  ASSERT_TRUE(server_stats.has_value());
  EXPECT_NE(server_stats->find("\"node\":\"server.4\""), std::string::npos)
      << *server_stats;
  const auto server_trace = scrape_trace(server.load_address());
  ASSERT_TRUE(server_trace.has_value());
  EXPECT_EQ(server_trace->node, 4);
  const std::vector<TraceRecord> server_ring = server.trace().snapshot();
  ASSERT_FALSE(server_ring.empty());
  ASSERT_EQ(server_trace->records.size(), server_ring.size());
  for (std::size_t i = 0; i < server_ring.size(); ++i) {
    EXPECT_EQ(server_trace->records[i].request_id, server_ring[i].request_id);
    EXPECT_EQ(server_trace->records[i].point, server_ring[i].point);
    EXPECT_EQ(server_trace->records[i].at_ns, server_ring[i].at_ns);
  }
  // A server keeps no decision ring: it answers with an empty, stamped
  // reply rather than staying silent.
  const auto server_decisions = scrape_decisions(server.load_address());
  ASSERT_TRUE(server_decisions.has_value());
  EXPECT_EQ(server_decisions->node, 4);
  EXPECT_TRUE(server_decisions->records.empty());
  EXPECT_TRUE(server_decisions->complete);
  net::UdpSocket raw;
  net::PullInquiry inquiry;
  inquiry.seq = 77;
  inquiry.what = net::PullKind::kDecisions;
  ASSERT_TRUE(raw.send_to(inquiry.encode(), server.load_address()));
  net::Poller poller;
  poller.add(raw.fd(), 0);
  ASSERT_FALSE(poller.wait(2 * kSecond).empty());
  std::vector<std::uint8_t> buf(64 * 1024);
  const auto dgram = raw.recv_from(buf);
  ASSERT_TRUE(dgram.has_value());
  net::DecisionReply reply;
  ASSERT_TRUE(
      net::DecisionReply::try_decode({buf.data(), dgram->size}, reply));
  EXPECT_EQ(reply.seq, 77u);
  EXPECT_EQ(reply.node, 4);
  EXPECT_EQ(reply.total, 0u);
  EXPECT_TRUE(reply.records.empty());
  EXPECT_NE(reply.server_ns, 0);
  server.stop();
}

// The chunked decision pull end to end: a live client answering
// on its service socket hands its decision ring to a wire scraper mid-run.
TEST(ScrapeDecisionsTest, PullsAuditRecordsFromLiveClient) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  LiveServers cluster(2);
  cluster::ClientOptions copts;
  copts.id = 3;
  copts.policy = PolicyConfig::polling(2);
  copts.servers = cluster.endpoints;
  copts.total_requests = 1500;
  copts.warmup_requests = 0;
  copts.seed = 7;
  copts.decision_sample_period = 1;  // audit every dispatch
  static const Workload workload = make_poisson_exp(0.002);
  cluster::ClientNode client(copts, workload.make_source(1.0, 901));

  std::atomic<bool> done{false};
  std::thread runner([&] {
    client.run();
    done.store(true);
  });
  NodeDecisionScrape scrape;
  bool got = false;
  while (!done.load()) {
    auto result =
        scrape_decisions(client.pull_address(), 50 * kMillisecond);
    if (result && !result->records.empty()) {
      scrape = std::move(*result);
      got = true;
      break;
    }
  }
  runner.join();
  ASSERT_TRUE(got) << "client finished before a decision scrape landed";
  EXPECT_EQ(scrape.node, 3);
  EXPECT_TRUE(scrape.complete);
  EXPECT_FALSE(scrape.clock_samples.empty());
  for (const DecisionRecord& rec : scrape.records) {
    EXPECT_NE(rec.chosen, kInvalidServer);
    if (!rec.blind_fallback) {
      ASSERT_GT(rec.polled_count, 0);
      ASSERT_LE(rec.polled_count, kDecisionPollMax);
      for (std::uint8_t i = 0; i < rec.polled_count; ++i) {
        EXPECT_GE(rec.polled[i].server, 0);
        EXPECT_LT(rec.polled[i].server, 2);
        EXPECT_GE(rec.polled[i].queue_length, 0);
      }
    }
  }
  // The wire records must reconcile with the in-process ring: every scraped
  // id is one the ring produced (the ring may have wrapped past the oldest).
  const std::vector<DecisionRecord> ring = client.decisions().snapshot();
  EXPECT_FALSE(ring.empty());
}

}  // namespace
}  // namespace finelb::telemetry
