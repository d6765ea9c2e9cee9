// Broadcast channel and prototype broadcast policy (extension).
#include "cluster/broadcast_channel.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "cluster/experiment.h"
#include "common/check.h"
#include "net/clock.h"
#include "net/message.h"
#include "net/poller.h"
#include "workload/catalog.h"

namespace finelb::cluster {
namespace {

void wait_for_subscribers(const BroadcastChannel& channel, std::size_t n,
                          SimDuration timeout = 2 * kSecond) {
  const SimTime deadline = net::monotonic_now() + timeout;
  while (channel.subscriber_count() < n &&
         net::monotonic_now() < deadline) {
    net::sleep_for(5 * kMillisecond);
  }
  ASSERT_EQ(channel.subscriber_count(), n);
}

TEST(BroadcastChannelTest, RelaysToSubscribers) {
  BroadcastChannel channel;
  channel.start();

  net::UdpSocket subscriber;
  net::Subscribe subscribe;
  subscribe.ttl_ms = 5000;
  ASSERT_TRUE(subscriber.send_to(subscribe.encode(), channel.address()));
  wait_for_subscribers(channel, 1);

  net::UdpSocket server;
  net::LoadAnnounce announcement;
  announcement.server = 5;
  announcement.queue_length = 3;
  ASSERT_TRUE(server.send_to(announcement.encode(), channel.address()));

  net::Poller poller;
  poller.add(subscriber.fd(), 0);
  ASSERT_FALSE(poller.wait(kSecond).empty());
  std::array<std::uint8_t, 64> buf{};
  const auto size = subscriber.recv_from(buf);
  ASSERT_TRUE(size.has_value());
  const auto received =
      net::LoadAnnounce::decode(std::span(buf.data(), size->size));
  EXPECT_EQ(received.server, 5);
  EXPECT_EQ(received.queue_length, 3);
  // The datagram can reach the subscriber before the channel thread bumps
  // its counter; wait for the count rather than racing it.
  const SimTime counter_deadline = net::monotonic_now() + kSecond;
  while (channel.announcements_relayed() < 1 &&
         net::monotonic_now() < counter_deadline) {
    net::sleep_for(kMillisecond);
  }
  EXPECT_EQ(channel.announcements_relayed(), 1);
  channel.stop();
}

TEST(BroadcastChannelTest, SubscriptionExpires) {
  BroadcastChannel channel;
  channel.start();
  net::UdpSocket subscriber;
  net::Subscribe subscribe;
  subscribe.ttl_ms = 150;
  ASSERT_TRUE(subscriber.send_to(subscribe.encode(), channel.address()));
  wait_for_subscribers(channel, 1);
  net::sleep_for(250 * kMillisecond);
  EXPECT_EQ(channel.subscriber_count(), 0u);

  // Announcements after expiry go nowhere.
  net::UdpSocket server;
  net::LoadAnnounce announcement;
  announcement.server = 1;
  ASSERT_TRUE(server.send_to(announcement.encode(), channel.address()));
  net::sleep_for(50 * kMillisecond);
  EXPECT_EQ(channel.announcements_relayed(), 0);
  channel.stop();
}

TEST(BroadcastChannelTest, FanOutToMultipleSubscribers) {
  BroadcastChannel channel;
  channel.start();
  std::vector<net::UdpSocket> subscribers(3);
  net::Subscribe subscribe;
  subscribe.ttl_ms = 2000;
  for (auto& s : subscribers) {
    ASSERT_TRUE(s.send_to(subscribe.encode(), channel.address()));
  }
  wait_for_subscribers(channel, 3);
  net::UdpSocket server;
  net::LoadAnnounce announcement;
  announcement.server = 2;
  ASSERT_TRUE(server.send_to(announcement.encode(), channel.address()));
  const SimTime deadline = net::monotonic_now() + 2 * kSecond;
  while (channel.announcements_relayed() < 3 &&
         net::monotonic_now() < deadline) {
    net::sleep_for(5 * kMillisecond);
  }
  EXPECT_EQ(channel.announcements_relayed(), 3);
  std::array<std::uint8_t, 64> buf{};
  for (auto& s : subscribers) {
    EXPECT_TRUE(s.recv_from(buf).has_value());
  }
  channel.stop();
}

TEST(BroadcastPolicyPrototypeTest, EndToEndRuns) {
  PrototypeConfig config;
  config.servers = 4;
  config.clients = 2;
  config.policy = PolicyConfig::broadcast(20 * kMillisecond);
  config.load = 0.6;
  config.total_requests = 600;
  config.seed = 17;
  const Workload workload = make_poisson_exp(0.005);
  const PrototypeResult r = run_prototype(config, workload);
  EXPECT_EQ(r.clients.issued, 600);
  EXPECT_GE(r.clients.completed, 590);
  EXPECT_GT(r.clients.broadcasts_received, 0)
      << "clients must have consumed load announcements";
}

TEST(BroadcastPolicyPrototypeTest, FreshBeatsStaleInformation) {
  // The paper's Figure 3 effect on the real runtime: frequent broadcasts
  // beat second-scale broadcasts at high load.
  PrototypeConfig config;
  config.servers = 8;
  config.clients = 3;
  config.load = 0.85;
  config.total_requests = 2400;
  config.seed = 17;
  const Workload workload = make_poisson_exp(0.010);

  config.policy = PolicyConfig::broadcast(10 * kMillisecond);
  const double fresh_ms =
      run_prototype(config, workload).clients.response_ms.mean();
  config.policy = PolicyConfig::broadcast(2 * kSecond);
  const double stale_ms =
      run_prototype(config, workload).clients.response_ms.mean();
  EXPECT_GT(stale_ms, fresh_ms * 1.5);
}

// The relay loop blocks on its socket and the stop signal, with no poll
// timeout for stop() to wait out.
TEST(BroadcastChannelTest, SequentialStopsArePrompt) {
  std::vector<std::unique_ptr<BroadcastChannel>> channels;
  for (int i = 0; i < 8; ++i) {
    channels.push_back(std::make_unique<BroadcastChannel>());
    channels.back()->start();
  }
  net::sleep_for(60 * kMillisecond);
  const SimTime start = net::monotonic_now();
  for (auto& channel : channels) channel->stop();
  const SimDuration took = net::monotonic_now() - start;
  EXPECT_LT(took, 50 * kMillisecond) << to_ms(took) << " ms for 8 stops";
}

}  // namespace
}  // namespace finelb::cluster
