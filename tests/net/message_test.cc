#include "net/message.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/check.h"

namespace finelb::net {
namespace {

// Codec surfaces of one message: encode_into must be byte-identical to
// encode(), refuse too-small buffers without writing past them, and
// try_decode must accept exactly what decode() accepts while rejecting
// every truncation and a wrong type tag without throwing.

template <class Msg>
void CheckWireSurfaces(const Msg& msg) {
  const std::vector<std::uint8_t> legacy = msg.encode();
  ASSERT_FALSE(legacy.empty());
  EXPECT_EQ(legacy.size(), msg.encoded_size());

  // Byte-identical hot-path encoding; guard bytes past the end untouched.
  std::vector<std::uint8_t> hot(legacy.size() + 8, 0xab);
  const std::size_t n = msg.encode_into(hot);
  ASSERT_EQ(n, legacy.size());
  EXPECT_TRUE(std::equal(legacy.begin(), legacy.end(), hot.begin()));
  for (std::size_t i = n; i < hot.size(); ++i) {
    ASSERT_EQ(hot[i], 0xab) << "guard byte " << i << " clobbered";
  }

  // Every too-small output buffer is refused with 0 bytes written, and the
  // guard bytes past its end are untouched.
  std::vector<std::uint8_t> small(legacy.size(), 0xab);
  for (std::size_t len = 0; len < legacy.size(); ++len) {
    EXPECT_EQ(msg.encode_into(std::span(small.data(), len)), 0u)
        << "buffer of " << len << " accepted";
    for (std::size_t i = len; i < std::min(len + 8, small.size()); ++i) {
      ASSERT_EQ(small[i], 0xab) << "buffer of " << len << " overrun at " << i;
    }
  }

  // Both decode surfaces accept the full encoding...
  Msg accepted;
  EXPECT_TRUE(Msg::try_decode(legacy, accepted));
  EXPECT_NO_THROW(Msg::decode(legacy));

  // ...and reject every proper prefix (truncated datagram).
  for (std::size_t len = 0; len < legacy.size(); ++len) {
    const std::span<const std::uint8_t> prefix(legacy.data(), len);
    Msg scratch;
    EXPECT_FALSE(Msg::try_decode(prefix, scratch)) << "prefix " << len;
    EXPECT_THROW(Msg::decode(prefix), InvariantError) << "prefix " << len;
  }

  // A wrong type tag is rejected, not misparsed.
  std::vector<std::uint8_t> wrong_tag = legacy;
  wrong_tag[0] = 0xee;
  Msg scratch;
  EXPECT_FALSE(Msg::try_decode(wrong_tag, scratch));
  EXPECT_THROW(Msg::decode(wrong_tag), InvariantError);
}

/// Every proper prefix of `msg`'s encoding must be rejected by decode().
template <class Msg>
void ExpectPrefixesRejected(const Msg& msg) {
  const std::vector<std::uint8_t> bytes = msg.encode();
  const std::span<const std::uint8_t> all(bytes);
  for (std::size_t len = 1; len < bytes.size(); ++len) {
    EXPECT_THROW(Msg::decode(all.subspan(0, len)), InvariantError)
        << "prefix " << len;
  }
}

TEST(MessageTest, LoadInquiryRoundTrip) {
  LoadInquiry m;
  m.seq = 0xfeedface12345678ull;
  m.trace_id = (3ull << 40) | 42;
  m.origin_ns = -123456789;
  const auto decoded = LoadInquiry::decode(m.encode());
  EXPECT_EQ(decoded.seq, m.seq);
  EXPECT_EQ(decoded.trace_id, m.trace_id);
  EXPECT_EQ(decoded.origin_ns, m.origin_ns);
  EXPECT_EQ(peek_type(m.encode()), MsgType::kLoadInquiry);
}

TEST(MessageTest, LoadReplyRoundTrip) {
  LoadReply m;
  m.seq = 99;
  m.queue_length = 17;
  m.trace_id = (5ull << 40) | 7;
  m.origin_ns = 1;
  m.server_ns = 0x7fffffffffffffffll;
  const auto decoded = LoadReply::decode(m.encode());
  EXPECT_EQ(decoded.seq, 99u);
  EXPECT_EQ(decoded.queue_length, 17);
  EXPECT_EQ(decoded.trace_id, m.trace_id);
  EXPECT_EQ(decoded.origin_ns, 1);
  EXPECT_EQ(decoded.server_ns, m.server_ns);
}

TEST(MessageTest, ServiceRequestRoundTrip) {
  ServiceRequest m;
  m.request_id = (7ull << 40) | 12345;
  m.service_us = 22200;
  m.partition = 3;
  m.trace_id = m.request_id;
  m.origin_ns = 987654321;
  const auto decoded = ServiceRequest::decode(m.encode());
  EXPECT_EQ(decoded.request_id, m.request_id);
  EXPECT_EQ(decoded.service_us, 22200u);
  EXPECT_EQ(decoded.partition, 3u);
  EXPECT_EQ(decoded.trace_id, m.request_id);
  EXPECT_EQ(decoded.origin_ns, 987654321);
}

TEST(MessageTest, ServiceResponseRoundTrip) {
  ServiceResponse m;
  m.request_id = 42;
  m.server = 11;
  m.queue_at_arrival = 5;
  m.trace_id = 42;
  m.server_ns = -1;
  const auto decoded = ServiceResponse::decode(m.encode());
  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_EQ(decoded.server, 11);
  EXPECT_EQ(decoded.queue_at_arrival, 5);
  EXPECT_EQ(decoded.trace_id, 42u);
  EXPECT_EQ(decoded.server_ns, -1);
}

// RPC fields of the service messages: a Neptune access names a method and
// carries opaque args; its response carries a status and an opaque result.

TEST(RpcCodecTest, RequestRoundTrip) {
  ServiceRequest request;
  request.request_id = 0xabcdef0123456789ull;
  request.method = 0xfffe;
  request.partition = 3;
  request.args = {1, 2, 3, 4, 5};
  const auto decoded = ServiceRequest::decode(request.encode());
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.method, 0xfffe);
  EXPECT_EQ(decoded.partition, 3u);
  EXPECT_EQ(decoded.args, request.args);
}

TEST(RpcCodecTest, EmptyArgsAllowed) {
  ServiceRequest request;
  request.request_id = 1;
  const auto decoded = ServiceRequest::decode(request.encode());
  EXPECT_EQ(decoded.method, 0);
  EXPECT_TRUE(decoded.args.empty());
}

TEST(RpcCodecTest, ResponseRoundTripAllStatuses) {
  for (const RpcStatus status :
       {RpcStatus::kOk, RpcStatus::kNoSuchMethod, RpcStatus::kNoSuchPartition,
        RpcStatus::kAppError}) {
    ServiceResponse response;
    response.request_id = 42;
    response.server = 11;
    response.queue_at_arrival = 2;
    response.status = status;
    response.result = {9, 9, 9};
    const auto decoded = ServiceResponse::decode(response.encode());
    EXPECT_EQ(decoded.status, status);
    EXPECT_EQ(decoded.server, 11);
    EXPECT_EQ(decoded.result, response.result);
  }
}

TEST(RpcCodecTest, LargePayloadWithinDatagramLimit) {
  ServiceRequest request;
  request.args.assign(kMaxRpcPayload, 0x5a);
  EXPECT_EQ(ServiceRequest::decode(request.encode()).args, request.args);
  ServiceResponse response;
  response.result.assign(kMaxRpcPayload, 0xa5);
  EXPECT_EQ(ServiceResponse::decode(response.encode()).result,
            response.result);
}

TEST(RpcCodecTest, OversizedPayloadRejected) {
  // One byte past kMaxRpcPayload is refused on the hot surface (0 bytes,
  // despite room in the buffer) and the compat one.
  std::vector<std::uint8_t> buf(kMaxRpcPayload + 1024);
  ServiceRequest request;
  request.args.assign(kMaxRpcPayload + 1, 0);
  EXPECT_EQ(request.encode_into(buf), 0u);
  EXPECT_THROW(request.encode(), InvariantError);
  ServiceResponse response;
  response.result.assign(kMaxRpcPayload + 1, 0);
  EXPECT_EQ(response.encode_into(buf), 0u);
  EXPECT_THROW(response.encode(), InvariantError);
}

TEST(RpcCodecTest, CrossDecodeRejected) {
  // The RPC pair must not parse as one another.
  ServiceRequest request;
  request.request_id = 1;
  EXPECT_THROW(ServiceResponse::decode(request.encode()), InvariantError);
  ServiceResponse response;
  response.request_id = 1;
  EXPECT_THROW(ServiceRequest::decode(response.encode()), InvariantError);
}

TEST(RpcCodecTest, TruncatedPrefixesRejected) {
  ServiceRequest request;
  request.request_id = 1;
  request.args = {1, 2, 3};
  ExpectPrefixesRejected(request);
}

TEST(RpcCodecTest, UnknownStatusByteRejected) {
  ServiceResponse response;
  response.request_id = 1;
  auto bytes = response.encode();
  // status follows tag(1) + request_id(8) + server(4) + queue_at_arrival(4)
  // + trace_id(8) + server_ns(8).
  ASSERT_EQ(bytes[33], 0);
  bytes[33] = 250;
  ServiceResponse out;
  EXPECT_FALSE(ServiceResponse::try_decode(bytes, out));
  EXPECT_THROW(ServiceResponse::decode(bytes), InvariantError);
}

TEST(MessageTest, UnknownPullKindByteRejected) {
  PullInquiry inquiry;
  inquiry.seq = 1;
  inquiry.what = wire_max(PullKind{});
  auto bytes = inquiry.encode();
  // what follows tag(1) + seq(8).
  ASSERT_EQ(bytes[9], static_cast<std::uint8_t>(wire_max(PullKind{})));
  bytes[9] = static_cast<std::uint8_t>(wire_max(PullKind{})) + 1;
  PullInquiry out;
  EXPECT_FALSE(PullInquiry::try_decode(bytes, out));
  EXPECT_THROW(PullInquiry::decode(bytes), InvariantError);
}

TEST(MessageTest, UntracedMessagesCarryZeroTraceContext) {
  // Default-constructed (untraced) messages must keep trace_id == 0 across
  // the wire — receivers treat 0 as "no trace context".
  LoadInquiry inquiry;
  inquiry.seq = 8;
  EXPECT_EQ(LoadInquiry::decode(inquiry.encode()).trace_id, 0u);
  ServiceRequest request;
  request.request_id = 8;
  EXPECT_EQ(ServiceRequest::decode(request.encode()).trace_id, 0u);
}

TEST(MessageTest, TracePullReplyRoundTrip) {
  PullInquiry inquiry;
  inquiry.seq = 4242;
  inquiry.what = PullKind::kTrace;
  inquiry.offset = 0xffffffffu;
  const auto dinq = PullInquiry::decode(inquiry.encode());
  EXPECT_EQ(dinq.seq, 4242u);
  EXPECT_EQ(dinq.what, PullKind::kTrace);
  EXPECT_EQ(dinq.offset, 0xffffffffu);

  TraceReply reply;
  reply.seq = 4242;
  reply.node = 13;
  reply.server_ns = 123456789012345ll;
  reply.total = 100;
  reply.offset = 40;
  for (int i = 0; i < 60; ++i) {
    TraceRecordWire rec;
    rec.request_id = (1ull << 40) | static_cast<std::uint64_t>(i);
    rec.point = static_cast<std::uint8_t>(i % 9);
    rec.node = 13;
    rec.at_ns = 1000000ll * i;
    rec.detail = -i;
    reply.records.push_back(rec);
  }
  const auto dreply = TraceReply::decode(reply.encode());
  EXPECT_EQ(dreply.seq, 4242u);
  EXPECT_EQ(dreply.node, 13);
  EXPECT_EQ(dreply.server_ns, reply.server_ns);
  EXPECT_EQ(dreply.total, 100u);
  EXPECT_EQ(dreply.offset, 40u);
  ASSERT_EQ(dreply.records.size(), 60u);
  EXPECT_EQ(dreply.records[59].request_id, (1ull << 40) | 59u);
  EXPECT_EQ(dreply.records[59].point, 59 % 9);
  EXPECT_EQ(dreply.records[59].at_ns, 59000000ll);
  EXPECT_EQ(dreply.records[59].detail, -59);
}

TEST(MessageTest, TraceReplyMaxChunkStaysUnderDatagramCap) {
  // A full chunk (kTraceReplyMaxRecords) must encode below 64 KiB so a
  // single sendto never fails on datagram size.
  TraceReply reply;
  reply.seq = 1;
  reply.total = static_cast<std::uint32_t>(kTraceReplyMaxRecords);
  reply.records.resize(kTraceReplyMaxRecords);
  const auto bytes = reply.encode();
  EXPECT_LT(bytes.size(), 64u * 1024u);
  const auto decoded = TraceReply::decode(bytes);
  EXPECT_EQ(decoded.records.size(), kTraceReplyMaxRecords);
}

TEST(MessageTest, DecisionPullReplyRoundTrip) {
  PullInquiry inquiry;
  inquiry.seq = 777;
  inquiry.what = PullKind::kDecisions;
  inquiry.offset = 0xfffffffeu;
  const auto dinq = PullInquiry::decode(inquiry.encode());
  EXPECT_EQ(dinq.seq, 777u);
  EXPECT_EQ(dinq.what, PullKind::kDecisions);
  EXPECT_EQ(dinq.offset, 0xfffffffeu);

  DecisionReply reply;
  reply.seq = 777;
  reply.node = 5;
  reply.server_ns = 987654321012345ll;
  reply.total = 30;
  reply.offset = 10;
  for (int i = 0; i < 20; ++i) {
    DecisionRecordWire rec;
    rec.request_id = (1ull << 40) | static_cast<std::uint64_t>(i);
    rec.at_ns = 1000000ll * i;
    rec.chosen = i % 16;
    rec.polled_count = static_cast<std::uint8_t>(i % (kDecisionWirePollMax + 1));
    rec.flags = static_cast<std::uint8_t>(i % 2);  // bit 0: blind fallback
    rec.blacklist_filtered = static_cast<std::uint8_t>(i % 3);
    for (std::uint8_t p = 0; p < rec.polled_count; ++p) {
      rec.polled[p].server = p;
      rec.polled[p].queue_length = -p;  // sign must survive
      rec.polled[p].age_ns = 500ll * p;
    }
    reply.records.push_back(rec);
  }
  const auto dreply = DecisionReply::decode(reply.encode());
  EXPECT_EQ(dreply.seq, 777u);
  EXPECT_EQ(dreply.node, 5);
  EXPECT_EQ(dreply.server_ns, reply.server_ns);
  EXPECT_EQ(dreply.total, 30u);
  EXPECT_EQ(dreply.offset, 10u);
  ASSERT_EQ(dreply.records.size(), 20u);
  for (std::size_t i = 0; i < dreply.records.size(); ++i) {
    const DecisionRecordWire& rec = dreply.records[i];
    EXPECT_EQ(rec.request_id, reply.records[i].request_id);
    EXPECT_EQ(rec.at_ns, reply.records[i].at_ns);
    EXPECT_EQ(rec.chosen, reply.records[i].chosen);
    ASSERT_EQ(rec.polled_count, reply.records[i].polled_count);
    EXPECT_EQ(rec.flags, reply.records[i].flags);
    EXPECT_EQ(rec.blacklist_filtered, reply.records[i].blacklist_filtered);
    for (std::uint8_t p = 0; p < rec.polled_count; ++p) {
      EXPECT_EQ(rec.polled[p].server, p);
      EXPECT_EQ(rec.polled[p].queue_length, -p);
      EXPECT_EQ(rec.polled[p].age_ns, 500ll * p);
    }
  }
}

TEST(MessageTest, DecisionReplyMaxChunkStaysUnderDatagramCap) {
  // A full chunk of worst-case records (every polled slot occupied) must
  // encode below 64 KiB so a single sendto never fails on datagram size.
  DecisionReply reply;
  reply.seq = 1;
  reply.total = static_cast<std::uint32_t>(kDecisionReplyMaxRecords);
  reply.records.resize(kDecisionReplyMaxRecords);
  for (auto& rec : reply.records) {
    rec.polled_count = static_cast<std::uint8_t>(kDecisionWirePollMax);
  }
  const auto bytes = reply.encode();
  EXPECT_LT(bytes.size(), 64u * 1024u);
  const auto decoded = DecisionReply::decode(bytes);
  EXPECT_EQ(decoded.records.size(), kDecisionReplyMaxRecords);
}

TEST(MessageTest, ManagerProtocolRoundTrips) {
  Acquire a;
  a.seq = 1001;
  EXPECT_EQ(Acquire::decode(a.encode()).seq, 1001u);

  AcquireReply r;
  r.seq = 1001;
  r.server = 9;
  const auto decoded = AcquireReply::decode(r.encode());
  EXPECT_EQ(decoded.seq, 1001u);
  EXPECT_EQ(decoded.server, 9);

  Release rel;
  rel.server = 9;
  EXPECT_EQ(Release::decode(rel.encode()).server, 9);
}

TEST(MessageTest, PublishRoundTrip) {
  Publish m;
  m.service = "photo-album";
  m.partition = 2;
  m.server = 14;
  m.service_port = 40001;
  m.load_port = 40002;
  m.ttl_ms = 2000;
  const auto decoded = Publish::decode(m.encode());
  EXPECT_EQ(decoded.service, "photo-album");
  EXPECT_EQ(decoded.partition, 2u);
  EXPECT_EQ(decoded.server, 14);
  EXPECT_EQ(decoded.service_port, 40001);
  EXPECT_EQ(decoded.load_port, 40002);
  EXPECT_EQ(decoded.ttl_ms, 2000u);
}

TEST(MessageTest, SnapshotRoundTrip) {
  SnapshotRequest req;
  req.seq = 5;
  req.service = "experiment";
  const auto dreq = SnapshotRequest::decode(req.encode());
  EXPECT_EQ(dreq.seq, 5u);
  EXPECT_EQ(dreq.service, "experiment");

  SnapshotReply reply;
  reply.seq = 5;
  for (int i = 0; i < 16; ++i) {
    Publish p;
    p.service = "experiment";
    p.server = i;
    p.service_port = static_cast<std::uint16_t>(40000 + 2 * i);
    p.load_port = static_cast<std::uint16_t>(40001 + 2 * i);
    p.ttl_ms = 1000;
    reply.entries.push_back(p);
  }
  const auto dreply = SnapshotReply::decode(reply.encode());
  EXPECT_EQ(dreply.seq, 5u);
  ASSERT_EQ(dreply.entries.size(), 16u);
  EXPECT_EQ(dreply.entries[7].server, 7);
  EXPECT_EQ(dreply.entries[7].service_port, 40014);
}

TEST(MessageTest, EmptySnapshotReply) {
  SnapshotReply reply;
  reply.seq = 1;
  const auto decoded = SnapshotReply::decode(reply.encode());
  EXPECT_TRUE(decoded.entries.empty());
}

TEST(MessageTest, WrongTypeTagThrows) {
  LoadInquiry inquiry;
  inquiry.seq = 1;
  const auto bytes = inquiry.encode();
  EXPECT_THROW(LoadReply::decode(bytes), InvariantError);
  EXPECT_THROW(ServiceRequest::decode(bytes), InvariantError);
}

TEST(MessageTest, EmptyDatagramThrows) {
  EXPECT_THROW(peek_type({}), InvariantError);
}

TEST(MessageTest, ElectionProtocolRoundTrips) {
  VoteRequest request;
  request.term = 0xabcdef0123456789ull;
  request.candidate = 4;
  const auto drequest = VoteRequest::decode(request.encode());
  EXPECT_EQ(drequest.term, request.term);
  EXPECT_EQ(drequest.candidate, 4);

  VoteReply reply;
  reply.term = 17;
  reply.voter = 2;
  reply.granted = true;
  const auto dreply = VoteReply::decode(reply.encode());
  EXPECT_EQ(dreply.term, 17u);
  EXPECT_EQ(dreply.voter, 2);
  EXPECT_TRUE(dreply.granted);
  reply.granted = false;
  EXPECT_FALSE(VoteReply::decode(reply.encode()).granted);

  Heartbeat heartbeat;
  heartbeat.term = 3;
  heartbeat.leader = 0;
  const auto dheartbeat = Heartbeat::decode(heartbeat.encode());
  EXPECT_EQ(dheartbeat.term, 3u);
  EXPECT_EQ(dheartbeat.leader, 0);

  HeartbeatAck ack;
  ack.term = 3;
  ack.follower = 1;
  const auto dack = HeartbeatAck::decode(ack.encode());
  EXPECT_EQ(dack.term, 3u);
  EXPECT_EQ(dack.follower, 1);
}

TEST(MessageTest, RedirectRoundTrip) {
  Redirect redirect;
  redirect.seq = 0x1122334455667788ull;
  redirect.term = 9;
  redirect.leader = 2;
  redirect.leader_port = 40123;
  const auto decoded = Redirect::decode(redirect.encode());
  EXPECT_EQ(decoded.seq, redirect.seq);
  EXPECT_EQ(decoded.term, 9u);
  EXPECT_EQ(decoded.leader, 2);
  EXPECT_EQ(decoded.leader_port, 40123);

  // The "election in progress" form: no known leader.
  Redirect unknown;
  unknown.seq = 1;
  const auto dunknown = Redirect::decode(unknown.encode());
  EXPECT_EQ(dunknown.leader, -1);
  EXPECT_EQ(dunknown.leader_port, 0);
}

// Truncation property sweep: every message type must reject every proper
// prefix of its encoding rather than read garbage.
class MessageTruncation : public ::testing::TestWithParam<int> {};

TEST_P(MessageTruncation, AllPrefixesRejected) {
  switch (GetParam()) {
    case 0: {
      LoadInquiry m;
      m.seq = 7;
      ExpectPrefixesRejected(m);
      break;
    }
    case 1: {
      LoadReply m;
      m.seq = 7;
      m.queue_length = 3;
      ExpectPrefixesRejected(m);
      break;
    }
    case 2: {
      ServiceRequest m;
      m.request_id = 7;
      m.method = 2;
      m.args = {1, 2, 3};
      ExpectPrefixesRejected(m);
      break;
    }
    case 3: {
      ServiceResponse m;
      m.request_id = 7;
      m.status = RpcStatus::kAppError;
      m.result = {4, 5, 6};
      ExpectPrefixesRejected(m);
      break;
    }
    case 4: {
      Publish m;
      m.service = "svc";
      ExpectPrefixesRejected(m);
      break;
    }
    case 5: {
      PullInquiry m;
      m.seq = 7;
      m.what = PullKind::kTrace;
      ExpectPrefixesRejected(m);
      break;
    }
    case 6: {
      TraceReply m;
      m.seq = 7;
      m.total = 1;
      m.records.emplace_back();
      ExpectPrefixesRejected(m);
      break;
    }
    case 7: {
      VoteRequest m;
      m.term = 7;
      m.candidate = 1;
      ExpectPrefixesRejected(m);
      break;
    }
    case 8: {
      VoteReply m;
      m.term = 7;
      m.voter = 1;
      m.granted = true;
      ExpectPrefixesRejected(m);
      break;
    }
    case 9: {
      Heartbeat m;
      m.term = 7;
      m.leader = 1;
      ExpectPrefixesRejected(m);
      break;
    }
    case 10: {
      HeartbeatAck m;
      m.term = 7;
      m.follower = 1;
      ExpectPrefixesRejected(m);
      break;
    }
    case 11: {
      Redirect m;
      m.seq = 7;
      m.term = 7;
      m.leader = 1;
      m.leader_port = 9000;
      ExpectPrefixesRejected(m);
      break;
    }
    case 12: {
      PullInquiry m;
      m.seq = 7;
      m.what = PullKind::kDecisions;
      ExpectPrefixesRejected(m);
      break;
    }
    case 13: {
      DecisionReply m;
      m.seq = 7;
      m.total = 1;
      m.records.emplace_back();
      m.records.back().polled_count = 2;
      ExpectPrefixesRejected(m);
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMessageTypes, MessageTruncation,
                         ::testing::Range(0, 14));

TEST(MessageHotPath, FixedTypesRoundTrip) {
  LoadInquiry inquiry;
  inquiry.seq = ~0ull;
  CheckWireSurfaces(inquiry);
  LoadInquiry inquiry_out;
  ASSERT_TRUE(LoadInquiry::try_decode(inquiry.encode(), inquiry_out));
  EXPECT_EQ(inquiry_out.seq, ~0ull);

  LoadReply reply;
  reply.seq = 0x0102030405060708ull;
  reply.queue_length = -3;  // sign must survive the u32 cast
  CheckWireSurfaces(reply);
  LoadReply reply_out;
  ASSERT_TRUE(LoadReply::try_decode(reply.encode(), reply_out));
  EXPECT_EQ(reply_out.seq, reply.seq);
  EXPECT_EQ(reply_out.queue_length, -3);

  ServiceRequest request;
  request.request_id = 0xfeedface12345678ull;
  request.service_us = 0xffffffffu;
  request.partition = 7;
  CheckWireSurfaces(request);
  ServiceRequest request_out;
  ASSERT_TRUE(ServiceRequest::try_decode(request.encode(), request_out));
  EXPECT_EQ(request_out.request_id, request.request_id);
  EXPECT_EQ(request_out.service_us, request.service_us);
  EXPECT_EQ(request_out.partition, 7u);
  // Without an RPC payload (every experiment request) the datagram fits
  // the fixed stack buffers and decodes without allocating.
  EXPECT_EQ(request.encoded_size(), 39u);
  EXPECT_EQ(request_out.args.capacity(), 0u);
  // With one, decoding reuses (and resizes) out.args.
  request.method = 0xffff;
  request.args = {'h', 'i', 0};
  CheckWireSurfaces(request);
  request_out.args.assign(9, 0xee);
  ASSERT_TRUE(ServiceRequest::try_decode(request.encode(), request_out));
  EXPECT_EQ(request_out.method, 0xffff);
  EXPECT_EQ(request_out.args, request.args);

  ServiceResponse response;
  response.request_id = 1;
  response.server = -1;
  response.queue_at_arrival = 0x7fffffff;
  CheckWireSurfaces(response);
  EXPECT_EQ(response.encoded_size(), 38u);
  response.result = {0, 0xff};
  for (const RpcStatus status :
       {RpcStatus::kOk, RpcStatus::kNoSuchMethod, RpcStatus::kNoSuchPartition,
        RpcStatus::kAppError}) {
    response.status = status;
    CheckWireSurfaces(response);
    ServiceResponse response_out;
    ASSERT_TRUE(ServiceResponse::try_decode(response.encode(), response_out));
    EXPECT_EQ(response_out.server, -1);
    EXPECT_EQ(response_out.queue_at_arrival, 0x7fffffff);
    EXPECT_EQ(response_out.status, status);
    EXPECT_EQ(response_out.result, response.result);
  }

  Acquire acquire;
  acquire.seq = 0;  // all-zero fields still carry the tag
  CheckWireSurfaces(acquire);
  Acquire acquire_out;
  ASSERT_TRUE(Acquire::try_decode(acquire.encode(), acquire_out));
  EXPECT_EQ(acquire_out.seq, 0u);

  AcquireReply acquire_reply;
  acquire_reply.seq = 55;
  acquire_reply.server = 1000;
  CheckWireSurfaces(acquire_reply);
  AcquireReply acquire_reply_out;
  ASSERT_TRUE(
      AcquireReply::try_decode(acquire_reply.encode(), acquire_reply_out));
  EXPECT_EQ(acquire_reply_out.seq, 55u);
  EXPECT_EQ(acquire_reply_out.server, 1000);

  Release release;
  release.server = -2147483647;
  CheckWireSurfaces(release);
  Release release_out;
  ASSERT_TRUE(Release::try_decode(release.encode(), release_out));
  EXPECT_EQ(release_out.server, -2147483647);

  LoadAnnounce announce;
  announce.server = 12;
  announce.queue_length = 34;
  CheckWireSurfaces(announce);
  LoadAnnounce announce_out;
  ASSERT_TRUE(LoadAnnounce::try_decode(announce.encode(), announce_out));
  EXPECT_EQ(announce_out.server, 12);
  EXPECT_EQ(announce_out.queue_length, 34);

  Subscribe subscribe;
  subscribe.ttl_ms = 0xdeadbeefu;
  CheckWireSurfaces(subscribe);
  Subscribe subscribe_out;
  ASSERT_TRUE(Subscribe::try_decode(subscribe.encode(), subscribe_out));
  EXPECT_EQ(subscribe_out.ttl_ms, 0xdeadbeefu);
}

TEST(MessageHotPath, ElectionTypesRoundTrip) {
  VoteRequest vote_request;
  vote_request.term = 0x0102030405060708ull;
  vote_request.candidate = 3;
  CheckWireSurfaces(vote_request);
  VoteRequest vote_request_out;
  ASSERT_TRUE(VoteRequest::try_decode(vote_request.encode(), vote_request_out));
  EXPECT_EQ(vote_request_out.term, vote_request.term);
  EXPECT_EQ(vote_request_out.candidate, 3);

  VoteReply vote_reply;
  vote_reply.term = 42;
  vote_reply.voter = 4;
  vote_reply.granted = true;
  CheckWireSurfaces(vote_reply);
  VoteReply vote_reply_out;
  ASSERT_TRUE(VoteReply::try_decode(vote_reply.encode(), vote_reply_out));
  EXPECT_EQ(vote_reply_out.term, 42u);
  EXPECT_EQ(vote_reply_out.voter, 4);
  EXPECT_TRUE(vote_reply_out.granted);

  Heartbeat heartbeat;
  heartbeat.term = 43;
  heartbeat.leader = 2;
  CheckWireSurfaces(heartbeat);
  Heartbeat heartbeat_out;
  ASSERT_TRUE(Heartbeat::try_decode(heartbeat.encode(), heartbeat_out));
  EXPECT_EQ(heartbeat_out.term, 43u);
  EXPECT_EQ(heartbeat_out.leader, 2);

  HeartbeatAck ack;
  ack.term = 43;
  ack.follower = 0;
  CheckWireSurfaces(ack);
  HeartbeatAck ack_out;
  ASSERT_TRUE(HeartbeatAck::try_decode(ack.encode(), ack_out));
  EXPECT_EQ(ack_out.term, 43u);
  EXPECT_EQ(ack_out.follower, 0);

  Redirect redirect;
  redirect.seq = 77;
  redirect.term = 44;
  redirect.leader = 1;
  redirect.leader_port = 54321;
  CheckWireSurfaces(redirect);
  Redirect redirect_out;
  ASSERT_TRUE(Redirect::try_decode(redirect.encode(), redirect_out));
  EXPECT_EQ(redirect_out.seq, 77u);
  EXPECT_EQ(redirect_out.term, 44u);
  EXPECT_EQ(redirect_out.leader, 1);
  EXPECT_EQ(redirect_out.leader_port, 54321);
}

TEST(MessageHotPath, StringTypesRoundTrip) {
  Publish publish;
  publish.service = "image-store";
  publish.partition = 9;
  publish.server = 3;
  publish.service_port = 65535;
  publish.load_port = 1;
  publish.ttl_ms = 123456;
  CheckWireSurfaces(publish);
  Publish publish_out;
  ASSERT_TRUE(Publish::try_decode(publish.encode(), publish_out));
  EXPECT_EQ(publish_out.service, "image-store");
  EXPECT_EQ(publish_out.partition, 9u);
  EXPECT_EQ(publish_out.server, 3);
  EXPECT_EQ(publish_out.service_port, 65535);
  EXPECT_EQ(publish_out.load_port, 1);
  EXPECT_EQ(publish_out.ttl_ms, 123456u);

  SnapshotRequest request;
  request.seq = 77;
  request.service = "photo-album";
  CheckWireSurfaces(request);
  SnapshotRequest request_out;
  ASSERT_TRUE(SnapshotRequest::try_decode(request.encode(), request_out));
  EXPECT_EQ(request_out.seq, 77u);
  EXPECT_EQ(request_out.service, "photo-album");

  SnapshotReply reply;
  reply.seq = 78;
  for (int i = 0; i < 3; ++i) {
    Publish entry = publish;
    entry.server = i;
    reply.entries.push_back(entry);
  }
  CheckWireSurfaces(reply);
  SnapshotReply reply_out;
  ASSERT_TRUE(SnapshotReply::try_decode(reply.encode(), reply_out));
  EXPECT_EQ(reply_out.seq, 78u);
  ASSERT_EQ(reply_out.entries.size(), 3u);
  EXPECT_EQ(reply_out.entries[2].server, 2);
  EXPECT_EQ(reply_out.entries[2].service, "image-store");
}

TEST(MessageHotPath, StatsPullReplyRoundTrip) {
  PullInquiry inquiry;
  inquiry.seq = 31337;
  CheckWireSurfaces(inquiry);
  PullInquiry inquiry_out;
  ASSERT_TRUE(PullInquiry::try_decode(inquiry.encode(), inquiry_out));
  EXPECT_EQ(inquiry_out.seq, 31337u);
  EXPECT_EQ(inquiry_out.what, PullKind::kStats);

  StatsReply reply;
  reply.seq = 31337;
  reply.payload = "{\"node\":\"server.0\",\"counters\":{\"served\":12}}";
  CheckWireSurfaces(reply);
  StatsReply reply_out;
  reply_out.payload = "stale";  // must be overwritten, not appended to
  ASSERT_TRUE(StatsReply::try_decode(reply.encode(), reply_out));
  EXPECT_EQ(reply_out.seq, 31337u);
  EXPECT_EQ(reply_out.payload, reply.payload);

  // Empty payload round-trips; oversized payload is refused, not truncated.
  reply.payload.clear();
  CheckWireSurfaces(reply);
  reply.payload.assign(0x10000, 'x');
  std::vector<std::uint8_t> buf(reply.payload.size() + 64);
  EXPECT_EQ(reply.encode_into(buf), 0u);

  // The inquiry and the reply must not parse as one another despite the
  // shared seq-first layout.
  PullInquiry cross;
  EXPECT_FALSE(PullInquiry::try_decode(StatsReply().encode(), cross));
}

TEST(MessageHotPath, TracePullReplySurfaces) {
  PullInquiry inquiry;
  inquiry.seq = 31338;
  inquiry.what = PullKind::kTrace;
  inquiry.offset = 17;
  CheckWireSurfaces(inquiry);
  PullInquiry inquiry_out;
  ASSERT_TRUE(PullInquiry::try_decode(inquiry.encode(), inquiry_out));
  EXPECT_EQ(inquiry_out.seq, 31338u);
  EXPECT_EQ(inquiry_out.what, PullKind::kTrace);
  EXPECT_EQ(inquiry_out.offset, 17u);

  TraceReply reply;
  reply.seq = 31338;
  reply.node = -1;
  reply.server_ns = -5;
  reply.total = 2;
  TraceRecordWire rec;
  rec.request_id = ~0ull;
  rec.point = 8;
  rec.node = 2147483647;
  rec.at_ns = -9;
  rec.detail = 0x7fffffffffffffffll;
  reply.records.push_back(rec);
  reply.records.emplace_back();
  CheckWireSurfaces(reply);
  TraceReply reply_out;
  reply_out.records.resize(7);  // must shrink to the decoded count
  ASSERT_TRUE(TraceReply::try_decode(reply.encode(), reply_out));
  EXPECT_EQ(reply_out.node, -1);
  EXPECT_EQ(reply_out.server_ns, -5);
  ASSERT_EQ(reply_out.records.size(), 2u);
  EXPECT_EQ(reply_out.records[0].request_id, ~0ull);
  EXPECT_EQ(reply_out.records[0].point, 8);
  EXPECT_EQ(reply_out.records[0].node, 2147483647);
  EXPECT_EQ(reply_out.records[0].at_ns, -9);
  EXPECT_EQ(reply_out.records[0].detail, 0x7fffffffffffffffll);
  EXPECT_EQ(reply_out.records[1].request_id, 0u);

  // Empty chunk (e.g. clock probe against an empty ring) round-trips.
  reply.records.clear();
  reply.total = 0;
  CheckWireSurfaces(reply);
  ASSERT_TRUE(TraceReply::try_decode(reply.encode(), reply_out));
  EXPECT_TRUE(reply_out.records.empty());
}

TEST(MessageHotPath, TraceReplyCorruptedCountRejected) {
  // A record count the remaining bytes cannot possibly hold must be
  // rejected before any storage is reserved (same defence as
  // SnapshotReply). Count u32 lives after tag + u64 seq + i32 node +
  // i64 server_ns + u32 total + u32 offset = offset 29.
  TraceReply reply;
  reply.seq = 2;
  std::vector<std::uint8_t> bytes = reply.encode();
  ASSERT_GE(bytes.size(), 33u);
  bytes[29] = 0xff;
  bytes[30] = 0xff;
  bytes[31] = 0xff;
  bytes[32] = 0xff;
  TraceReply out;
  EXPECT_FALSE(TraceReply::try_decode(bytes, out));
  EXPECT_THROW(TraceReply::decode(bytes), InvariantError);
}

TEST(MessageHotPath, DecisionTypesRoundTrip) {
  PullInquiry inquiry;
  inquiry.seq = ~0ull;
  inquiry.what = PullKind::kDecisions;
  inquiry.offset = 12345;
  CheckWireSurfaces(inquiry);
  PullInquiry inquiry_out;
  ASSERT_TRUE(PullInquiry::try_decode(inquiry.encode(), inquiry_out));
  EXPECT_EQ(inquiry_out.seq, ~0ull);
  EXPECT_EQ(inquiry_out.what, PullKind::kDecisions);
  EXPECT_EQ(inquiry_out.offset, 12345u);

  // Variable-size records (mixed polled counts) through every surface.
  DecisionReply reply;
  reply.seq = 9;
  reply.node = -1;
  reply.server_ns = -5;  // sign must survive
  reply.total = 3;
  for (std::uint8_t n : {std::uint8_t{0}, std::uint8_t{3},
                         std::uint8_t{kDecisionWirePollMax}}) {
    DecisionRecordWire rec;
    rec.request_id = 0xfeedface0000ull + n;
    rec.at_ns = -1000;
    rec.chosen = -1;
    rec.polled_count = n;
    rec.flags = 1;
    rec.blacklist_filtered = 255;
    for (std::uint8_t p = 0; p < n; ++p) {
      rec.polled[p].server = 0x7fffffff - p;
      rec.polled[p].queue_length = -2;
      rec.polled[p].age_ns = -42;
    }
    reply.records.push_back(rec);
  }
  CheckWireSurfaces(reply);
  DecisionReply reply_out;
  ASSERT_TRUE(DecisionReply::try_decode(reply.encode(), reply_out));
  EXPECT_EQ(reply_out.server_ns, -5);
  ASSERT_EQ(reply_out.records.size(), 3u);
  EXPECT_EQ(reply_out.records[2].polled_count, kDecisionWirePollMax);
  EXPECT_EQ(reply_out.records[2].polled[7].server, 0x7fffffff - 7);
  EXPECT_EQ(reply_out.records[2].polled[7].queue_length, -2);
  EXPECT_EQ(reply_out.records[2].polled[7].age_ns, -42);
  EXPECT_EQ(reply_out.records[0].blacklist_filtered, 255);

  // An empty chunk (the "ring is empty" reply) still round-trips.
  DecisionReply empty;
  empty.seq = 1;
  CheckWireSurfaces(empty);
}

TEST(MessageHotPath, DecisionReplyHostileInputsRejected) {
  // A record count the remaining bytes cannot possibly hold must be
  // rejected before any storage is reserved. Count u32 sits at the same
  // offset 29 as TraceReply's (tag + seq + node + server_ns + total +
  // offset).
  DecisionReply reply;
  reply.seq = 2;
  std::vector<std::uint8_t> bytes = reply.encode();
  ASSERT_GE(bytes.size(), 33u);
  for (int i = 29; i < 33; ++i) bytes[static_cast<std::size_t>(i)] = 0xff;
  DecisionReply out;
  EXPECT_FALSE(DecisionReply::try_decode(bytes, out));
  EXPECT_THROW(DecisionReply::decode(bytes), InvariantError);

  // A per-record polled count past the inline cap is hostile (it would
  // walk the reader past the record boundary): rejected, never clamped.
  DecisionReply one;
  one.seq = 3;
  one.total = 1;
  one.records.emplace_back();
  one.records.back().polled_count = 1;
  std::vector<std::uint8_t> corrupt = one.encode();
  // polled_count u8 sits after the count (33) + record header's u64 + i64 +
  // i32 = byte 53.
  ASSERT_EQ(corrupt[53], 1);
  corrupt[53] = static_cast<std::uint8_t>(kDecisionWirePollMax + 1);
  EXPECT_FALSE(DecisionReply::try_decode(corrupt, out));

  // encode_into refuses (returns 0) rather than truncating a record whose
  // in-memory polled count exceeds the wire cap.
  DecisionReply overfull;
  overfull.records.emplace_back();
  overfull.records.back().polled_count =
      static_cast<std::uint8_t>(kDecisionWirePollMax + 1);
  std::vector<std::uint8_t> big(1024);
  EXPECT_EQ(overfull.encode_into(big), 0u);
}

TEST(MessageHotPath, MaxLengthServiceString) {
  // The wire format length-prefixes strings with a u16: 65535 is the
  // longest service name that can exist on the wire.
  const std::string longest(0xffff, 's');

  Publish publish;
  publish.service = longest;
  CheckWireSurfaces(publish);
  Publish publish_out;
  ASSERT_TRUE(Publish::try_decode(publish.encode(), publish_out));
  EXPECT_EQ(publish_out.service, longest);

  SnapshotRequest request;
  request.service = longest;
  CheckWireSurfaces(request);
  SnapshotRequest request_out;
  ASSERT_TRUE(SnapshotRequest::try_decode(request.encode(), request_out));
  EXPECT_EQ(request_out.service, longest);

  // One byte longer cannot be encoded on either surface.
  request.service.push_back('s');
  std::vector<std::uint8_t> buf(request.service.size() + 64);
  EXPECT_EQ(request.encode_into(buf), 0u);
}

TEST(MessageHotPath, ZeroLengthPayloads) {
  Publish publish;  // empty service string
  CheckWireSurfaces(publish);
  Publish publish_out;
  publish_out.service = "stale";  // must be overwritten, not appended to
  ASSERT_TRUE(Publish::try_decode(publish.encode(), publish_out));
  EXPECT_TRUE(publish_out.service.empty());

  SnapshotRequest request;  // empty service = "all services"
  CheckWireSurfaces(request);

  SnapshotReply reply;  // zero entries
  reply.seq = 9;
  CheckWireSurfaces(reply);
  SnapshotReply reply_out;
  reply_out.entries.resize(4);  // must shrink to the decoded count
  ASSERT_TRUE(SnapshotReply::try_decode(reply.encode(), reply_out));
  EXPECT_EQ(reply_out.seq, 9u);
  EXPECT_TRUE(reply_out.entries.empty());

  // An entry whose service string is empty round-trips too.
  reply.entries.emplace_back();
  CheckWireSurfaces(reply);
  ASSERT_TRUE(SnapshotReply::try_decode(reply.encode(), reply_out));
  ASSERT_EQ(reply_out.entries.size(), 1u);
  EXPECT_TRUE(reply_out.entries[0].service.empty());
}

TEST(MessageHotPath, GarbageRejectedWithoutThrowing) {
  // A corrupted string length pointing past the datagram.
  Publish publish;
  publish.service = "abc";
  std::vector<std::uint8_t> bytes = publish.encode();
  bytes[1] = 0xff;  // string length low byte (u16 right after the tag)
  bytes[2] = 0xff;
  Publish publish_out;
  EXPECT_FALSE(Publish::try_decode(bytes, publish_out));
  EXPECT_THROW(Publish::decode(bytes), InvariantError);

  // A corrupted SnapshotReply entry count that the remaining bytes cannot
  // possibly hold must be rejected before any storage is reserved.
  SnapshotReply reply;
  reply.seq = 1;
  std::vector<std::uint8_t> reply_bytes = reply.encode();
  reply_bytes[9] = 0xff;  // count u32 lives after tag + u64 seq
  reply_bytes[10] = 0xff;
  reply_bytes[11] = 0xff;
  reply_bytes[12] = 0xff;
  SnapshotReply reply_out;
  EXPECT_FALSE(SnapshotReply::try_decode(reply_bytes, reply_out));
  EXPECT_THROW(SnapshotReply::decode(reply_bytes), InvariantError);

  // RPC blob lengths pointing past the datagram (the u32 length precedes
  // the 3 payload bytes; corrupt its high byte).
  ServiceRequest request;
  request.args = {1, 2, 3};
  std::vector<std::uint8_t> request_bytes = request.encode();
  request_bytes[request_bytes.size() - 4] = 0xff;
  EXPECT_THROW(ServiceRequest::decode(request_bytes), InvariantError);
  ServiceResponse response;
  response.result = {1, 2, 3};
  std::vector<std::uint8_t> response_bytes = response.encode();
  response_bytes[response_bytes.size() - 4] = 0xff;
  EXPECT_THROW(ServiceResponse::decode(response_bytes), InvariantError);

  // Random-looking bytes under every valid tag: try_decode must say false
  // or succeed, never throw or crash. Long enough to reach the RPC blobs.
  std::vector<std::uint8_t> junk(48);
  for (std::size_t i = 0; i < junk.size(); ++i) {
    junk[i] = static_cast<std::uint8_t>(0x9e * (i + 1));
  }
  for (std::uint8_t tag = 1; tag <= 16; ++tag) {
    junk[0] = tag;
    LoadInquiry a;
    LoadReply b;
    ServiceRequest c;
    ServiceResponse d;
    Acquire e;
    AcquireReply f;
    Release g;
    Publish h;
    SnapshotRequest i2;
    SnapshotReply j;
    LoadAnnounce k;
    Subscribe l;
    StatsReply n;
    TraceReply p;
    EXPECT_NO_THROW(LoadInquiry::try_decode(junk, a));
    EXPECT_NO_THROW(LoadReply::try_decode(junk, b));
    EXPECT_NO_THROW(ServiceRequest::try_decode(junk, c));
    EXPECT_NO_THROW(ServiceResponse::try_decode(junk, d));
    EXPECT_NO_THROW(Acquire::try_decode(junk, e));
    EXPECT_NO_THROW(AcquireReply::try_decode(junk, f));
    EXPECT_NO_THROW(Release::try_decode(junk, g));
    EXPECT_NO_THROW(Publish::try_decode(junk, h));
    EXPECT_NO_THROW(SnapshotRequest::try_decode(junk, i2));
    EXPECT_NO_THROW(SnapshotReply::try_decode(junk, j));
    EXPECT_NO_THROW(LoadAnnounce::try_decode(junk, k));
    EXPECT_NO_THROW(Subscribe::try_decode(junk, l));
    EXPECT_NO_THROW(StatsReply::try_decode(junk, n));
    EXPECT_NO_THROW(TraceReply::try_decode(junk, p));
  }
}

// ---------------------------------------------------------------------------
// Typed property suite over every type in AllMessages. Instances are filled
// from a seeded generator through the type's own fields() list, so a field
// added to a message is covered without touching this file.

static_assert(std::tuple_size_v<AllMessages> == 21);

/// Seeded random value for every field; counted arrays get an in-range
/// count.
template <class T>
void Fill(T& v, std::mt19937_64& rng) {
  if constexpr (std::is_same_v<T, bool>) {
    v = (rng() & 1) != 0;
  } else if constexpr (std::is_enum_v<T>) {
    const auto values = static_cast<std::uint64_t>(wire_max(T{})) + 1;
    v = static_cast<T>(rng() % values);
  } else if constexpr (std::is_integral_v<T>) {
    v = static_cast<T>(rng());
  } else if constexpr (std::is_same_v<T, std::string>) {
    v.resize(rng() % 24);
    for (char& c : v) c = static_cast<char>('a' + rng() % 26);
  } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
    v.resize(rng() % 24);
    for (std::uint8_t& b : v) b = static_cast<std::uint8_t>(rng());
  } else if constexpr (codec::IsVector<T>::value) {
    v.resize(rng() % 4);
    for (auto& e : v) Fill(e, rng);
  } else if constexpr (codec::IsCounted<T>::value) {
    v.count = static_cast<std::remove_reference_t<decltype(v.count)>>(
        rng() % (T::kExtent + 1));
    for (auto& item : v.items) Fill(item, rng);
  } else {
    std::apply([&rng](auto&&... f) { (Fill(f, rng), ...); }, T::fields(v));
  }
}

template <class Msg>
Msg Filled(std::mt19937_64& rng) {
  Msg m;
  Fill(m, rng);
  return m;
}

template <class Tuple>
struct AsTestTypes;
template <class... M>
struct AsTestTypes<std::tuple<M...>> {
  using type = ::testing::Types<M...>;
};

template <class Msg>
class MessageProperty : public ::testing::Test {};
TYPED_TEST_SUITE(MessageProperty, AsTestTypes<AllMessages>::type);

TYPED_TEST(MessageProperty, SeededRoundTrip) {
  using Msg = TypeParam;
  std::mt19937_64 rng(1);
  Msg out;  // reused across rounds, as the receive loops reuse theirs
  for (int round = 0; round < 64; ++round) {
    const Msg m = Filled<Msg>(rng);
    const std::vector<std::uint8_t> bytes = m.encode();
    ASSERT_TRUE(Msg::try_decode(bytes, out)) << "round " << round;
    EXPECT_EQ(out.encode(), bytes) << "round " << round;
    EXPECT_EQ(Msg::decode(bytes).encode(), bytes) << "round " << round;
  }
}

TYPED_TEST(MessageProperty, SurfacesAgreeAndRejectTruncation) {
  // encoded_size() == encode_into() == encode(); too-small buffers give 0
  // with guard bytes intact; every proper prefix is rejected by both
  // decoders.
  using Msg = TypeParam;
  CheckWireSurfaces(Msg{});
  std::mt19937_64 rng(2);
  for (int round = 0; round < 8; ++round) CheckWireSurfaces(Filled<Msg>(rng));
}

TYPED_TEST(MessageProperty, EveryOtherTagRejected) {
  using Msg = TypeParam;
  std::mt19937_64 rng(3);
  std::vector<std::uint8_t> bytes = Filled<Msg>(rng).encode();
  for (int tag = 0; tag < 256; ++tag) {
    if (tag == static_cast<int>(Msg::kType)) continue;
    bytes[0] = static_cast<std::uint8_t>(tag);
    Msg out;
    EXPECT_FALSE(Msg::try_decode(bytes, out)) << "tag " << tag;
  }
}

TYPED_TEST(MessageProperty, RandomBytesUnderItsTagNeverThrow) {
  // Even rounds are random bytes, half of them zero so that small lengths
  // and counts are common; odd rounds overwrite 1-4 bytes of a valid
  // encoding, which reaches the checks deep inside list entries.
  using Msg = TypeParam;
  std::mt19937_64 rng(4);
  Msg out;
  for (int round = 0; round < 1000; ++round) {
    std::vector<std::uint8_t> junk;
    if (round % 2 == 0) {
      junk.resize(1 + rng() % 128);
      for (std::uint8_t& b : junk) {
        b = (rng() & 1) != 0 ? 0 : static_cast<std::uint8_t>(rng());
      }
    } else {
      junk = Filled<Msg>(rng).encode();
      for (int flips = 1 + static_cast<int>(rng() % 4); flips > 0; --flips) {
        junk[rng() % junk.size()] = static_cast<std::uint8_t>(rng());
      }
    }
    junk[0] = static_cast<std::uint8_t>(Msg::kType);
    EXPECT_NO_THROW((void)Msg::try_decode(junk, out)) << "round " << round;
  }
}

}  // namespace
}  // namespace finelb::net
