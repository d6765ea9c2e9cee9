// A Neptune service node: a cluster::ServerNode whose request handler is a
// neptune::MethodTable.
#include "neptune/method_table.h"

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <stdexcept>
#include <string>

#include "cluster/server_node.h"
#include "common/check.h"
#include "net/clock.h"
#include "net/message.h"
#include "net/poller.h"
#include "telemetry/metrics.h"

namespace finelb::neptune {
namespace {

constexpr std::uint16_t kEcho = 1;
constexpr std::uint16_t kUpper = 2;
constexpr std::uint16_t kBoom = 3;

/// An echo service on partitions {0, 1}; the table outlives the node.
struct EchoNode {
  MethodTable table{{0, 1}};
  std::unique_ptr<cluster::ServerNode> node;

  explicit EchoNode(ServerId id = 0) {
    table.add(kEcho, [](std::uint32_t, std::span<const std::uint8_t> args) {
      return std::vector<std::uint8_t>(args.begin(), args.end());
    });
    table.add(kUpper, [](std::uint32_t, std::span<const std::uint8_t> args) {
      std::vector<std::uint8_t> out(args.begin(), args.end());
      for (auto& c : out) c = static_cast<std::uint8_t>(std::toupper(c));
      return out;
    });
    table.add(kBoom, [](std::uint32_t, std::span<const std::uint8_t>)
                         -> std::vector<std::uint8_t> {
      throw std::runtime_error("application failure");
    });
    cluster::ServerOptions options;
    options.id = id;
    options.inject_busy_reply_delay = false;
    options.handler = table.handler();
    node = std::make_unique<cluster::ServerNode>(options);
    node->start();
  }
  ~EchoNode() { node->stop(); }
};

net::ServiceRequest rpc(std::uint64_t id, std::uint16_t method,
                        std::uint32_t partition,
                        std::vector<std::uint8_t> args = {}) {
  net::ServiceRequest request;
  request.request_id = id;
  request.method = method;
  request.partition = partition;
  request.args = std::move(args);
  return request;
}

/// Sends `request` from a fresh socket and decodes the first reply.
template <class Reply, class Request>
Reply roundtrip(const net::Address& dest, const Request& request) {
  net::UdpSocket socket;
  EXPECT_TRUE(socket.send_to(request.encode(), dest));
  net::Poller poller;
  poller.add(socket.fd(), 0);
  std::vector<std::uint8_t> buf(64 * 1024);
  const SimTime deadline = net::monotonic_now() + 2 * kSecond;
  while (net::monotonic_now() < deadline) {
    poller.wait(50 * kMillisecond);
    if (auto dgram = socket.recv_from(buf)) {
      return Reply::decode(std::span(buf.data(), dgram->size));
    }
  }
  ADD_FAILURE() << "no reply";
  return {};
}

net::ServiceResponse call(const EchoNode& echo,
                          const net::ServiceRequest& request) {
  return roundtrip<net::ServiceResponse>(echo.node->service_address(),
                                         request);
}

/// Waits until the node has sent its `n`th response: the served counter
/// ticks just after the send.
void wait_served(const cluster::ServerNode& node, std::int64_t n) {
  const SimTime deadline = net::monotonic_now() + kSecond;
  while (node.counters().requests_served < n &&
         net::monotonic_now() < deadline) {
    net::sleep_for(kMillisecond);
  }
}

TEST(ServiceNodeTest, DispatchesToRegisteredMethod) {
  EchoNode echo(4);
  const net::ServiceResponse response =
      call(echo, rpc(10, kUpper, 1, {'h', 'i'}));
  EXPECT_EQ(response.status, net::RpcStatus::kOk);
  EXPECT_EQ(response.request_id, 10u);
  EXPECT_EQ(response.server, 4);
  EXPECT_EQ(response.result, (std::vector<std::uint8_t>{'H', 'I'}));
  wait_served(*echo.node, 1);
  EXPECT_EQ(echo.node->counters().requests_served, 1);
}

TEST(ServiceNodeTest, UnknownMethodAndPartitionStatuses) {
  EchoNode echo;
  EXPECT_EQ(call(echo, rpc(1, 99, 0)).status, net::RpcStatus::kNoSuchMethod);
  EXPECT_EQ(call(echo, rpc(2, kEcho, /*partition not hosted=*/7)).status,
            net::RpcStatus::kNoSuchPartition);
}

TEST(ServiceNodeTest, HandlerExceptionsBecomeAppErrors) {
  EchoNode echo;
  const net::ServiceResponse failed = call(echo, rpc(3, kBoom, 0));
  EXPECT_EQ(failed.status, net::RpcStatus::kAppError);
  EXPECT_TRUE(failed.result.empty());
  // Node survives the exception and keeps serving.
  EXPECT_EQ(call(echo, rpc(4, kEcho, 0, {'x'})).status, net::RpcStatus::kOk);
  EXPECT_EQ(echo.table.app_errors(), 1);
  wait_served(*echo.node, 2);
  EXPECT_EQ(echo.node->counters().requests_served, 2);
}

TEST(ServiceNodeTest, AnswersLoadInquiries) {
  EchoNode echo;
  net::LoadInquiry inquiry;
  inquiry.seq = 55;
  const auto reply =
      roundtrip<net::LoadReply>(echo.node->load_address(), inquiry);
  EXPECT_EQ(reply.seq, 55u);
  EXPECT_EQ(reply.queue_length, 0);
}

TEST(ServiceNodeTest, AnswersStatsInquiriesWithJsonSnapshot) {
  EchoNode echo(6);
  // Execute one access so the service-time histogram is populated.
  EXPECT_EQ(call(echo, rpc(7, kEcho, 0, {'h', 'i'})).status,
            net::RpcStatus::kOk);
  wait_served(*echo.node, 1);

  net::PullInquiry inquiry;
  inquiry.seq = 404;
  const auto reply =
      roundtrip<net::StatsReply>(echo.node->load_address(), inquiry);
  EXPECT_EQ(reply.seq, 404u);
  EXPECT_NE(reply.payload.find("\"node\":\"server.6\""), std::string::npos);
  if (telemetry::kEnabled) {
    EXPECT_NE(reply.payload.find("\"requests_served\":1"), std::string::npos);
    EXPECT_NE(reply.payload.find("\"service_time_ms\":{\"count\":1"),
              std::string::npos);
    EXPECT_NE(reply.payload.find("\"queue_depth\":"), std::string::npos);
  }
}

TEST(ServiceNodeTest, ValidationErrors) {
  EXPECT_THROW(MethodTable table({}), InvariantError) << "no partitions";

  MethodTable table({0});
  EXPECT_THROW(table.handler(), InvariantError) << "no methods registered";
  const MethodHandler echo = [](std::uint32_t,
                                std::span<const std::uint8_t> a) {
    return std::vector<std::uint8_t>(a.begin(), a.end());
  };
  EXPECT_THROW(table.add(kEcho, nullptr), InvariantError) << "null handler";
  table.add(kEcho, echo);
  EXPECT_THROW(table.add(kEcho, echo), InvariantError) << "duplicate method id";
  (void)table.handler();
  EXPECT_THROW(table.add(kUpper, echo), InvariantError) << "add after handler()";

  cluster::ServerNode node(cluster::ServerOptions{});
  EXPECT_THROW(node.enable_publishing({net::Address::loopback(1)}, "",
                                      table.partitions(), kSecond, kSecond),
               InvariantError)
      << "unnamed service";
  EXPECT_THROW(node.enable_publishing({net::Address::loopback(1)}, "echo", {},
                                      kSecond, kSecond),
               InvariantError)
      << "no partitions to publish";
}

TEST(ServiceNodeTest, MalformedDatagramIgnored) {
  EchoNode echo;
  net::UdpSocket client;
  const std::vector<std::uint8_t> garbage = {0xff, 0x01};
  ASSERT_TRUE(client.send_to(garbage, echo.node->service_address()));
  // A request whose args length runs past the datagram is malformed too.
  std::vector<std::uint8_t> truncated = rpc(8, kEcho, 0, {'a', 'b'}).encode();
  truncated.pop_back();
  ASSERT_TRUE(client.send_to(truncated, echo.node->service_address()));
  net::sleep_for(30 * kMillisecond);
  EXPECT_EQ(echo.node->queue_length(), 0);
  EXPECT_EQ(echo.node->counters().requests_served, 0);
  // And the node still serves well-formed requests afterwards.
  EXPECT_EQ(call(echo, rpc(9, kEcho, 0, {'z'})).result,
            (std::vector<std::uint8_t>{'z'}));
}

}  // namespace
}  // namespace finelb::neptune
