// Cross-commit golden for the prototype's wire bytes.
//
// The other codec tests compare two surfaces of the same build (encode()
// against encode_into(), decode() against try_decode()), so a change that
// moves a field, widens an integer or reorders a list would pass them all.
// This test pins one instance of each of the 21 message types, with a
// non-default value in every field, to bytes recorded once: the exact hex
// for the fixed-layout and string types, and an FNV-1a digest plus the
// length for the three list types. Decoding the pinned bytes and encoding
// again must give the same bytes, so the decode direction is pinned too.
//
// The constants must only change with a deliberate change of the wire
// format; record the new values from the failure message then.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/message.h"

namespace finelb::net {
namespace {

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

/// FNV-1a over the encoded bytes.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <class Msg>
void expect_hex(const Msg& msg, const std::string& hex) {
  const std::vector<std::uint8_t> bytes = msg.encode();
  EXPECT_EQ(to_hex(bytes), hex);
  EXPECT_EQ(to_hex(Msg::decode(bytes).encode()), hex);
}

template <class Msg>
void expect_digest(const Msg& msg, std::size_t size, std::uint64_t digest) {
  const std::vector<std::uint8_t> bytes = msg.encode();
  EXPECT_EQ(bytes.size(), size);
  EXPECT_EQ(fnv1a(bytes), digest) << std::hex << "0x" << fnv1a(bytes);
  const std::vector<std::uint8_t> again = Msg::decode(bytes).encode();
  EXPECT_EQ(again, bytes);
}

constexpr std::uint64_t kId = 0x0102030405060708ULL;
constexpr std::uint64_t kTrace = (3ULL << 40) | 42;

Publish make_publish(std::int32_t server) {
  Publish p;
  p.service = "photo-album";
  p.partition = 2;
  p.server = server;
  p.service_port = 40001;
  p.load_port = 40002;
  p.ttl_ms = 2000;
  return p;
}

TEST(WireGoldenTest, PollingMessages) {
  LoadInquiry inquiry;
  inquiry.seq = kId;
  inquiry.trace_id = kTrace;
  inquiry.origin_ns = -123456789;
  expect_hex(inquiry, "0108070605040302012a00000000030000eb32a4f8ffffffff");

  LoadReply reply;
  reply.seq = kId;
  reply.queue_length = -3;
  reply.trace_id = kTrace;
  reply.origin_ns = -5;
  reply.server_ns = 0x0123456789abcdefLL;
  expect_hex(reply,
             "020807060504030201fdffffff2a00000000030000fbffffffffffffffefcdab"
             "8967452301");
}

TEST(WireGoldenTest, ServiceMessages) {
  ServiceRequest request;
  request.request_id = kId;
  request.service_us = 22200;
  request.partition = 3;
  request.trace_id = kTrace;
  request.origin_ns = -987654321;
  request.method = 0xbeef;
  request.args = {1, 2, 3, 0xff};
  expect_hex(request,
             "030807060504030201b8560000030000002a000000000300004f9721c5ffffff"
             "ffefbe04000000010203ff");

  ServiceResponse response;
  response.request_id = kId;
  response.server = -11;
  response.queue_at_arrival = 5;
  response.trace_id = kTrace;
  response.server_ns = -1;
  response.result = {9, 8, 7};
  response.status = RpcStatus::kOk;
  expect_hex(response,
             "040807060504030201f5ffffff050000002a00000000030000ffffffffffffff"
             "ff0003000000090807");
  response.status = RpcStatus::kNoSuchMethod;
  expect_hex(response,
             "040807060504030201f5ffffff050000002a00000000030000ffffffffffffff"
             "ff0103000000090807");
  response.status = RpcStatus::kNoSuchPartition;
  expect_hex(response,
             "040807060504030201f5ffffff050000002a00000000030000ffffffffffffff"
             "ff0203000000090807");
  response.status = RpcStatus::kAppError;
  expect_hex(response,
             "040807060504030201f5ffffff050000002a00000000030000ffffffffffffff"
             "ff0303000000090807");
}

TEST(WireGoldenTest, ManagerMessages) {
  Acquire acquire;
  acquire.seq = kId;
  expect_hex(acquire, "050807060504030201");

  AcquireReply acquire_reply;
  acquire_reply.seq = kId;
  acquire_reply.server = -9;
  expect_hex(acquire_reply, "060807060504030201f7ffffff");

  Release release;
  release.server = -2;
  expect_hex(release, "07feffffff");
}

TEST(WireGoldenTest, DirectoryMessages) {
  expect_hex(make_publish(-14),
             "080b0070686f746f2d616c62756d02000000f2ffffff419c429cd0070000");

  SnapshotRequest request;
  request.seq = kId;
  request.service = "experiment";
  expect_hex(request, "0908070605040302010a006578706572696d656e74");

  SnapshotReply reply;
  reply.seq = kId;
  reply.entries.push_back(make_publish(7));
  reply.entries.push_back(make_publish(-8));
  reply.entries.back().service = "x";
  expect_digest(reply, 61, 0x383eeb4edfe6e687ULL);
}

TEST(WireGoldenTest, BroadcastMessages) {
  LoadAnnounce announce;
  announce.server = 12;
  announce.queue_length = -34;
  expect_hex(announce, "0b0c000000deffffff");

  Subscribe subscribe;
  subscribe.ttl_ms = 0xdeadbeefU;
  expect_hex(subscribe, "0cefbeadde");
}

TEST(WireGoldenTest, PullMessages) {
  PullInquiry inquiry;
  inquiry.seq = kId;
  inquiry.what = PullKind::kStats;
  expect_hex(inquiry, "1808070605040302010000000000");
  inquiry.what = PullKind::kTrace;
  inquiry.offset = 17;
  expect_hex(inquiry, "1808070605040302010111000000");
  inquiry.what = PullKind::kDecisions;
  inquiry.offset = 0xfffffffeU;
  expect_hex(inquiry, "18080706050403020102feffffff");
}

TEST(WireGoldenTest, StatsMessages) {
  StatsReply reply;
  reply.seq = kId;
  reply.payload = "{\"a\":1}";
  expect_hex(reply, "0e080706050403020107007b2261223a317d");
}

TEST(WireGoldenTest, TraceMessages) {
  TraceReply reply;
  reply.seq = kId;
  reply.node = 13;
  reply.server_ns = -5;
  reply.total = 100;
  reply.offset = 40;
  for (int i = 1; i <= 2; ++i) {
    TraceRecordWire rec;
    rec.request_id = kTrace + static_cast<std::uint64_t>(i);
    rec.point = static_cast<std::uint8_t>(i + 3);
    rec.node = 13 * i;
    rec.at_ns = -1000000LL * i;
    rec.detail = -7LL * i;
    reply.records.push_back(rec);
  }
  expect_digest(reply, 91, 0xbb67398628f982b3ULL);
}

TEST(WireGoldenTest, DecisionMessages) {
  DecisionReply reply;
  reply.seq = kId;
  reply.node = 5;
  reply.server_ns = -987654321012345LL;
  reply.total = 30;
  reply.offset = 10;
  for (const std::uint8_t n :
       {std::uint8_t{0}, static_cast<std::uint8_t>(kDecisionWirePollMax)}) {
    DecisionRecordWire rec;
    rec.request_id = kTrace + n;
    rec.at_ns = -1000 - n;
    rec.chosen = 3 + n;
    rec.polled_count = n;
    rec.flags = 1;
    rec.blacklist_filtered = static_cast<std::uint8_t>(2 + n);
    for (std::uint8_t p = 0; p < n; ++p) {
      rec.polled[p].server = 100 + p;
      rec.polled[p].queue_length = -p - 1;
      rec.polled[p].age_ns = -500LL * (p + 1);
    }
    reply.records.push_back(rec);
  }
  expect_digest(reply, 207, 0xc648d47553d7a6f2ULL);
}

TEST(WireGoldenTest, ElectionMessages) {
  VoteRequest vote_request;
  vote_request.term = kId;
  vote_request.candidate = 4;
  expect_hex(vote_request, "11080706050403020104000000");

  VoteReply vote_reply;
  vote_reply.term = kId;
  vote_reply.voter = 2;
  vote_reply.granted = true;
  expect_hex(vote_reply, "1208070605040302010200000001");

  Heartbeat heartbeat;
  heartbeat.term = kId;
  heartbeat.leader = 3;
  expect_hex(heartbeat, "13080706050403020103000000");

  HeartbeatAck ack;
  ack.term = kId;
  ack.follower = 1;
  expect_hex(ack, "14080706050403020101000000");

  Redirect redirect;
  redirect.seq = kId;
  redirect.term = 9;
  redirect.leader = 2;
  redirect.leader_port = 40123;
  expect_hex(redirect, "150807060504030201090000000000000002000000bb9c");
}

}  // namespace
}  // namespace finelb::net
