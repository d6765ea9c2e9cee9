#include "net/socket.h"

#include <sys/socket.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "fault/fault.h"
#include "net/clock.h"
#include "net/pingpong.h"
#include "net/poller.h"

namespace finelb::net {
namespace {

TEST(AddressTest, LoopbackFormatting) {
  const Address a = Address::loopback(8080);
  EXPECT_EQ(a.to_string(), "127.0.0.1:8080");
  const sockaddr_in sa = a.to_sockaddr();
  EXPECT_EQ(Address::from_sockaddr(sa), a);
}

TEST(UdpSocketTest, BindsEphemeralPort) {
  UdpSocket s;
  const Address addr = s.local_address();
  EXPECT_GT(addr.port, 0);
}

TEST(UdpSocketTest, SendToAndRecvFrom) {
  UdpSocket a;
  UdpSocket b;
  const std::array<std::uint8_t, 4> payload = {1, 2, 3, 4};
  ASSERT_TRUE(a.send_to(payload, b.local_address()));

  std::array<std::uint8_t, 16> buf{};
  Poller poller;
  poller.add(b.fd(), 0);
  EXPECT_FALSE(poller.wait(kSecond).empty());
  const auto dgram = b.recv_from(buf);
  ASSERT_TRUE(dgram.has_value());
  EXPECT_EQ(dgram->size, 4u);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(dgram->from.port, a.local_address().port);
}

TEST(UdpSocketTest, ConnectedSendRecv) {
  UdpSocket server;
  UdpSocket client;
  client.connect(server.local_address());
  const std::array<std::uint8_t, 3> payload = {9, 8, 7};
  ASSERT_TRUE(client.send(payload));

  Poller poller;
  poller.add(server.fd(), 0);
  ASSERT_FALSE(poller.wait(kSecond).empty());
  std::array<std::uint8_t, 16> buf{};
  const auto dgram = server.recv_from(buf);
  ASSERT_TRUE(dgram.has_value());

  // Reply to the connected client: it must receive via plain recv().
  ASSERT_TRUE(server.send_to(payload, dgram->from));
  Poller cpoller;
  cpoller.add(client.fd(), 0);
  ASSERT_FALSE(cpoller.wait(kSecond).empty());
  std::array<std::uint8_t, 16> reply{};
  EXPECT_TRUE(client.recv(reply).has_value());
}

TEST(UdpSocketTest, ConnectedSocketFiltersOtherPeers) {
  UdpSocket peer_a;
  UdpSocket peer_b;
  UdpSocket client;
  client.connect(peer_a.local_address());
  // Datagram from an unrelated peer must not be delivered.
  const std::array<std::uint8_t, 1> payload = {1};
  ASSERT_TRUE(peer_b.send_to(payload, client.local_address()));
  sleep_for(20 * kMillisecond);
  std::array<std::uint8_t, 16> buf{};
  EXPECT_FALSE(client.recv(buf).has_value());
}

TEST(UdpSocketTest, NonBlockingRecvReturnsNullopt) {
  UdpSocket s;
  std::array<std::uint8_t, 16> buf{};
  EXPECT_FALSE(s.recv_from(buf).has_value());
}

TEST(PollerTest, TimeoutExpiresEmpty) {
  UdpSocket s;
  Poller poller;
  poller.add(s.fd(), 42);
  const SimTime start = monotonic_now();
  EXPECT_TRUE(poller.wait(20 * kMillisecond).empty());
  EXPECT_GE(monotonic_now() - start, 15 * kMillisecond);
}

TEST(PollerTest, TagsRouteReadiness) {
  UdpSocket a;
  UdpSocket b;
  Poller poller;
  poller.add(a.fd(), 100);
  poller.add(b.fd(), 200);
  UdpSocket sender;
  const std::array<std::uint8_t, 1> payload = {1};
  ASSERT_TRUE(sender.send_to(payload, b.local_address()));
  const auto ready = poller.wait(kSecond);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].tag, 200u);
  EXPECT_TRUE(ready[0].readable);
}

TEST(PollerTest, RemoveStopsWatching) {
  UdpSocket a;
  Poller poller;
  poller.add(a.fd(), 1);
  EXPECT_EQ(poller.size(), 1u);
  poller.remove(a.fd());
  EXPECT_EQ(poller.size(), 0u);
  EXPECT_THROW(poller.remove(a.fd()), InvariantError);
}

TEST(ClockTest, MonotonicAdvances) {
  const SimTime a = monotonic_now();
  const SimTime b = monotonic_now();
  EXPECT_GE(b, a);
}

TEST(ClockTest, SleepUntilHonoursDeadline) {
  const SimTime start = monotonic_now();
  sleep_until(start + 10 * kMillisecond);
  EXPECT_GE(monotonic_now() - start, 10 * kMillisecond);
  // A deadline in the past returns promptly.
  const SimTime t2 = monotonic_now();
  sleep_until(t2 - kSecond);
  EXPECT_LT(monotonic_now() - t2, 50 * kMillisecond);
}

TEST(ClockTest, SleepUntilPassedDeadlineReturnsAtOnce) {
  // A passed deadline must not reach clock_nanosleep, which would round
  // the call up to the timer slack (~50 us by default).
  std::vector<SimDuration> took;
  took.reserve(1001);
  for (int i = 0; i < 1001; ++i) {
    const SimTime start = monotonic_now();
    sleep_until(start);
    took.push_back(monotonic_now() - start);
  }
  std::nth_element(took.begin(), took.begin() + 500, took.end());
  EXPECT_LT(took[500], 5 * kMicrosecond);
}

TEST(ClockTest, SleepForZeroOrNegativeIsNoop) {
  const SimTime start = monotonic_now();
  sleep_for(0);
  sleep_for(-kSecond);
  EXPECT_LT(monotonic_now() - start, 50 * kMillisecond);
}

TEST(DatagramBatchTest, AppendRespectsCapacityAndBufferSize) {
  DatagramBatch batch(2, 8);
  const std::array<std::uint8_t, 8> fits = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::array<std::uint8_t, 9> too_big = {};
  const Address dest = Address::loopback(1234);
  EXPECT_FALSE(batch.append(too_big, dest));
  EXPECT_TRUE(batch.append(fits, dest));
  EXPECT_TRUE(batch.append(fits, dest));
  EXPECT_FALSE(batch.append(fits, dest));  // full
  EXPECT_EQ(batch.size(), 2u);
  batch.clear();
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_EQ(batch.capacity(), 2u);
}

TEST(UdpSocketTest, SendBatchRecvBatchRoundTrip) {
  UdpSocket a;
  UdpSocket b;
  DatagramBatch out(8, 16);
  for (std::uint8_t i = 0; i < 5; ++i) {
    const std::array<std::uint8_t, 3> payload = {i, 42,
                                                 static_cast<std::uint8_t>(
                                                     i * 2)};
    ASSERT_TRUE(out.append(payload, b.local_address()));
  }
  EXPECT_EQ(a.send_batch(out), 5u);

  Poller poller;
  poller.add(b.fd(), 0);
  EXPECT_FALSE(poller.wait(kSecond).empty());
  DatagramBatch in(8, 16);
  // Loopback may surface the burst across several reads; drain until all
  // five arrived.
  std::vector<std::vector<std::uint8_t>> received;
  const SimTime deadline = monotonic_now() + 2 * kSecond;
  while (received.size() < 5 && monotonic_now() < deadline) {
    if (b.recv_batch(in) == 0) {
      poller.wait(50 * kMillisecond);
      continue;
    }
    for (std::size_t i = 0; i < in.size(); ++i) {
      const auto payload = in.payload(i);
      received.emplace_back(payload.begin(), payload.end());
      EXPECT_EQ(in.address(i).port, a.local_address().port);
    }
  }
  ASSERT_EQ(received.size(), 5u);
  for (std::uint8_t i = 0; i < 5; ++i) {
    EXPECT_EQ(received[i],
              (std::vector<std::uint8_t>{i, 42,
                                         static_cast<std::uint8_t>(i * 2)}));
  }
}

TEST(UdpSocketTest, RecvBatchOnConnectedSocketDrainsBurst) {
  UdpSocket server;
  UdpSocket client;
  client.connect(server.local_address());
  const std::array<std::uint8_t, 2> payload = {7, 7};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.send(payload));
  }
  Poller poller;
  poller.add(server.fd(), 0);
  EXPECT_FALSE(poller.wait(kSecond).empty());
  DatagramBatch in(4, 16);  // capacity below burst: needs several calls
  std::size_t total = 0;
  const SimTime deadline = monotonic_now() + 2 * kSecond;
  while (total < 10 && monotonic_now() < deadline) {
    const std::size_t n = server.recv_batch(in);
    if (n == 0) {
      poller.wait(50 * kMillisecond);
      continue;
    }
    EXPECT_LE(n, in.capacity());
    total += n;
  }
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(server.recv_batch(in), 0u);  // drained
}

TEST(UdpSocketTest, SendBatchAppliesFaultsPerDatagram) {
  // Egress drop probability 1: every datagram in the batch must be rolled
  // (and eaten) individually — the batch must not count as one decision.
  UdpSocket a;
  UdpSocket b;
  fault::FaultSpec spec;
  spec.egress.drop_prob = 1.0;
  auto injector = std::make_shared<fault::FaultInjector>(spec);
  a.attach_fault_injector(injector);

  DatagramBatch out(8, 16);
  const std::array<std::uint8_t, 2> payload = {1, 2};
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(out.append(payload, b.local_address()));
  }
  // Drops report as sent (the network ate them), matching send_to.
  EXPECT_EQ(a.send_batch(out), 6u);
  EXPECT_EQ(injector->counters().decisions, 6);
  EXPECT_EQ(injector->counters().drops, 6);

  Poller poller;
  poller.add(b.fd(), 0);
  poller.wait(100 * kMillisecond);
  DatagramBatch in(8, 16);
  EXPECT_EQ(b.recv_batch(in), 0u);  // nothing survived
}

TEST(UdpSocketTest, RecvBatchAppliesFaultsPerDatagram) {
  UdpSocket a;
  UdpSocket b;
  fault::FaultSpec spec;
  spec.ingress.drop_prob = 1.0;
  auto injector = std::make_shared<fault::FaultInjector>(spec);
  b.attach_fault_injector(injector);

  const std::array<std::uint8_t, 2> payload = {3, 4};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(a.send_to(payload, b.local_address()));
  }
  Poller poller;
  poller.add(b.fd(), 0);
  EXPECT_FALSE(poller.wait(kSecond).empty());
  DatagramBatch in(8, 16);
  // Give the burst time to land, then drain: every datagram must be rolled
  // and swallowed by the ingress fault stream.
  const SimTime deadline = monotonic_now() + kSecond;
  while (injector->counters().decisions < 4 && monotonic_now() < deadline) {
    EXPECT_EQ(b.recv_batch(in), 0u);
    poller.wait(50 * kMillisecond);
  }
  EXPECT_EQ(injector->counters().decisions, 4);
  EXPECT_EQ(injector->counters().drops, 4);
}

int so_rcvbuf(const UdpSocket& s) {
  int bytes = 0;
  socklen_t len = sizeof(bytes);
  EXPECT_EQ(::getsockopt(s.fd(), SOL_SOCKET, SO_RCVBUF, &bytes, &len), 0);
  return bytes;
}

TEST(UdpSocketTest, SetBufferSizesReportsTheKernelGrant) {
  UdpSocket s;
  // A modest request is granted in full; Linux reports twice the usable
  // size to account for its bookkeeping.
  const int modest = 64 * 1024;
  const int granted = s.set_buffer_sizes(modest);
  EXPECT_EQ(granted, so_rcvbuf(s));
  EXPECT_GE(granted, modest);
  // An oversized request is capped by net.core.rmem_max, never an error;
  // the return value is what the socket really holds.
  UdpSocket big;
  const int huge = 1 << 30;
  testing::internal::CaptureStderr();
  const int capped = big.set_buffer_sizes(huge);
  UdpSocket again;
  again.set_buffer_sizes(huge);
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_EQ(capped, so_rcvbuf(big));
  EXPECT_GT(capped, 0);
  EXPECT_LE(static_cast<std::int64_t>(capped), std::int64_t{2} * huge);
  // At most one warning per process, however many sockets fall short.
  std::size_t warnings = 0;
  for (std::size_t at = log.find("kernel granted"); at != std::string::npos;
       at = log.find("kernel granted", at + 1)) {
    ++warnings;
  }
  EXPECT_LE(warnings, 1u);
}

TEST(UdpSocketTest, NextHeldDueTracksDelayedIngress) {
  UdpSocket a;
  UdpSocket b;
  EXPECT_FALSE(b.next_held_due().has_value()) << "no injector attached";
  fault::FaultSpec spec;
  spec.ingress.delay_prob = 1.0;
  spec.ingress.delay_min = 30 * kMillisecond;
  spec.ingress.delay_max = 30 * kMillisecond;
  b.attach_fault_injector(std::make_shared<fault::FaultInjector>(spec));
  EXPECT_FALSE(b.next_held_due().has_value()) << "nothing held yet";

  const std::array<std::uint8_t, 2> payload = {5, 6};
  ASSERT_TRUE(a.send_to(payload, b.local_address()));
  Poller poller;
  poller.add(b.fd(), 0);
  ASSERT_FALSE(poller.wait(kSecond).empty());
  std::array<std::uint8_t, 16> buf{};
  const SimTime held_at = monotonic_now();
  EXPECT_FALSE(b.recv_from(buf).has_value()) << "the datagram is held back";
  const std::optional<SimTime> due = b.next_held_due();
  ASSERT_TRUE(due.has_value());
  EXPECT_GE(*due, held_at + 30 * kMillisecond);

  // The kernel queue is empty now: only the due time can wake the owner.
  EXPECT_TRUE(poller.wait_until(due).empty());
  const auto dgram = b.recv_from(buf);
  ASSERT_TRUE(dgram.has_value());
  EXPECT_EQ(dgram->size, 2u);
  EXPECT_FALSE(b.next_held_due().has_value());
}

TEST(PingPongTest, MeasuresPlausibleLoopbackRtt) {
  const PingPongResult result = measure_udp_rtt(200, 20);
  EXPECT_EQ(result.rounds, 200);
  EXPECT_GT(result.mean_rtt_us, 1.0);      // not free
  EXPECT_LT(result.mean_rtt_us, 20000.0);  // not pathological
  EXPECT_LE(result.min_rtt_us, result.mean_rtt_us);
  EXPECT_LE(result.mean_rtt_us, result.p99_rtt_us * 1.01);
}

}  // namespace
}  // namespace finelb::net
