// Prototype wire protocol (paper §3, Figure 5).
//
// Message families:
//   * load inquiry / reply     — the random polling policy's just-in-time
//                                load information pull;
//   * service request/response — the RPC-like service access;
//   * acquire / release        — the centralized load-index manager protocol
//                                used only to emulate IDEAL (paper §4);
//   * publish / snapshot       — the service availability subsystem's
//                                soft-state publish/subscribe channel;
//   * vote / heartbeat / redirect — the replicated directory's control
//                                plane: term-numbered leader election and
//                                lease heartbeats between replicas, plus the
//                                leader-redirect answer a follower returns
//                                to a snapshot request (DESIGN.md §12);
//   * pull inquiry / replies   — the observability pull channel: one
//                                PullInquiry asks a node for its stats
//                                document, a chunk of its trace ring or a
//                                chunk of its decision ring, answered by a
//                                StatsReply, TraceReply or DecisionReply.
//
// Every message starts with a one-byte type tag followed by little-endian
// fields. Each type names its tag in `kType` and lists its fields once, in
// wire order, in `fields()`; deriving from Message<Self> (net/codec.h)
// supplies all of its codec surfaces from that one list:
//   * hot path  — encode_into() serializes into a caller buffer (a
//     DatagramBatch slot or a stack array) and try_decode() parses without
//     throwing; neither touches the heap for the fixed-size message types.
//   * compat    — encode() returns a fresh vector (cold control-plane
//     sends) and decode() throws InvariantError on malformed input (tests);
//     same bytes.
// AllMessages, at the end, lists all 21 types.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "net/codec.h"

namespace finelb::net {

enum class MsgType : std::uint8_t {
  kLoadInquiry = 1,
  kLoadReply = 2,
  kServiceRequest = 3,
  kServiceResponse = 4,
  kAcquire = 5,
  kAcquireReply = 6,
  kRelease = 7,
  kPublish = 8,
  kSnapshotRequest = 9,
  kSnapshotReply = 10,
  kLoadAnnounce = 11,
  kSubscribe = 12,
  // 13, 15 and 22 were the per-artifact pull inquiries PullInquiry replaced;
  // they stay retired so an older scraper's datagram is dropped, not misread.
  kStatsReply = 14,
  kTraceReply = 16,
  kVoteRequest = 17,
  kVoteReply = 18,
  kHeartbeat = 19,
  kHeartbeatAck = 20,
  kRedirect = 21,
  kDecisionReply = 23,
  kPullInquiry = 24,
};

/// Peeks at the type tag; throws on empty payloads.
inline MsgType peek_type(std::span<const std::uint8_t> data) {
  FINELB_CHECK(!data.empty(), "empty datagram");
  return static_cast<MsgType>(data[0]);
}

struct LoadInquiry : Message<LoadInquiry> {
  static constexpr MsgType kType = MsgType::kLoadInquiry;

  std::uint64_t seq = 0;
  /// Distributed-tracing context (0 = untraced): the issuing client's
  /// request id, so the server's reply-time TraceRecord is causally
  /// linkable to the client's poll round.
  std::uint64_t trace_id = 0;
  /// Sender's monotonic clock at send time (its own epoch; only meaningful
  /// after telemetry::ClockSync alignment). 0 when untraced.
  std::int64_t origin_ns = 0;

  static constexpr auto fields(auto& m) {
    return std::tie(m.seq, m.trace_id, m.origin_ns);
  }
};

struct LoadReply : Message<LoadReply> {
  static constexpr MsgType kType = MsgType::kLoadReply;

  std::uint64_t seq = 0;
  std::int32_t queue_length = 0;
  /// Echoed from the inquiry (0 = untraced), so a late reply can still be
  /// traced under its owning request after the round is gone.
  std::uint64_t trace_id = 0;
  /// Echoed inquiry origin_ns: lets the receiver compute the poll RTT and
  /// a clock-offset sample without any per-round state.
  std::int64_t origin_ns = 0;
  /// Server's monotonic clock when the reply was built — the t_reply of the
  /// paper's staleness measure, on the server's own clock.
  std::int64_t server_ns = 0;

  static constexpr auto fields(auto& m) {
    return std::tie(m.seq, m.queue_length, m.trace_id, m.origin_ns,
                    m.server_ns);
  }
};

/// Outcome of a service access (Neptune RPC semantics, paper §3.1).
enum class RpcStatus : std::uint8_t {
  kOk = 0,
  kNoSuchMethod = 1,
  kNoSuchPartition = 2,
  kAppError = 3,
};

/// Largest valid RpcStatus: decoders reject any status byte past it.
constexpr RpcStatus wire_max(RpcStatus) { return RpcStatus::kAppError; }

/// A service access. The experiment service reads `service_us`; a Neptune
/// service reads `method`, `partition` and `args`.
struct ServiceRequest : Message<ServiceRequest> {
  static constexpr MsgType kType = MsgType::kServiceRequest;

  std::uint64_t request_id = 0;
  /// Service demand in microseconds (the CPU-time the paper's microbenchmark
  /// would spin for; our workers consume it with deadline sleeps).
  std::uint32_t service_us = 0;
  /// Data partition addressed by the access (Neptune semantics).
  std::uint32_t partition = 0;
  /// Distributed-tracing context (0 = untraced). Sampled requests carry
  /// their request_id here so the server traces under the same key.
  std::uint64_t trace_id = 0;
  /// Client's monotonic clock at dispatch time (0 when untraced).
  std::int64_t origin_ns = 0;
  /// RPC method id, chosen by the service.
  std::uint16_t method = 0;
  /// Opaque RPC arguments (at most kMaxRpcPayload bytes).
  std::vector<std::uint8_t> args;

  static constexpr auto fields(auto& m) {
    return std::tie(m.request_id, m.service_us, m.partition, m.trace_id,
                    m.origin_ns, m.method, m.args);
  }
};

struct ServiceResponse : Message<ServiceResponse> {
  static constexpr MsgType kType = MsgType::kServiceResponse;

  std::uint64_t request_id = 0;
  std::int32_t server = 0;
  /// Queue length observed when the request entered the server (diagnostic).
  std::int32_t queue_at_arrival = 0;
  /// Echoed from the request (0 = untraced).
  std::uint64_t trace_id = 0;
  /// Server's monotonic clock when the response was sent (0 when untraced).
  std::int64_t server_ns = 0;
  RpcStatus status = RpcStatus::kOk;
  /// Opaque RPC result (at most kMaxRpcPayload bytes).
  std::vector<std::uint8_t> result;

  static constexpr auto fields(auto& m) {
    return std::tie(m.request_id, m.server, m.queue_at_arrival, m.trace_id,
                    m.server_ns, m.status, m.result);
  }
};

struct Acquire : Message<Acquire> {
  static constexpr MsgType kType = MsgType::kAcquire;

  std::uint64_t seq = 0;

  static constexpr auto fields(auto& m) {
    return std::tie(m.seq);
  }
};

struct AcquireReply : Message<AcquireReply> {
  static constexpr MsgType kType = MsgType::kAcquireReply;

  std::uint64_t seq = 0;
  std::int32_t server = 0;

  static constexpr auto fields(auto& m) {
    return std::tie(m.seq, m.server);
  }
};

struct Release : Message<Release> {
  static constexpr MsgType kType = MsgType::kRelease;

  std::int32_t server = 0;

  static constexpr auto fields(auto& m) {
    return std::tie(m.server);
  }
};

/// A server's soft-state announcement to the availability channel.
struct Publish : Message<Publish> {
  static constexpr MsgType kType = MsgType::kPublish;

  std::string service;        // service type, e.g. "image-store"
  std::uint32_t partition = 0;
  std::int32_t server = 0;    // dense experiment-wide server id
  std::uint16_t service_port = 0;
  std::uint16_t load_port = 0;
  std::uint32_t ttl_ms = 0;   // entry expires unless refreshed within ttl

  static constexpr auto fields(auto& m) {
    return std::tie(m.service, m.partition, m.server, m.service_port,
                    m.load_port, m.ttl_ms);
  }
};

struct SnapshotRequest : Message<SnapshotRequest> {
  static constexpr MsgType kType = MsgType::kSnapshotRequest;

  std::uint64_t seq = 0;
  std::string service;  // empty = all services

  static constexpr auto fields(auto& m) {
    return std::tie(m.seq, m.service);
  }
};

struct SnapshotReply : Message<SnapshotReply> {
  static constexpr MsgType kType = MsgType::kSnapshotReply;

  std::uint64_t seq = 0;
  std::vector<Publish> entries;

  static constexpr auto fields(auto& m) {
    return std::tie(m.seq, m.entries);
  }
};

/// A server's periodic load announcement on the broadcast channel
/// (prototype extension of the paper's §2.2 broadcast policy).
struct LoadAnnounce : Message<LoadAnnounce> {
  static constexpr MsgType kType = MsgType::kLoadAnnounce;

  std::int32_t server = 0;
  std::int32_t queue_length = 0;

  static constexpr auto fields(auto& m) {
    return std::tie(m.server, m.queue_length);
  }
};

/// A client's (soft-state) subscription to the broadcast channel.
struct Subscribe : Message<Subscribe> {
  static constexpr MsgType kType = MsgType::kSubscribe;

  std::uint32_t ttl_ms = 0;

  static constexpr auto fields(auto& m) {
    return std::tie(m.ttl_ms);
  }
};

/// What a PullInquiry asks a node for.
enum class PullKind : std::uint8_t {
  kStats = 0,      // the node's telemetry document (answered by StatsReply)
  kTrace = 1,      // a chunk of its trace ring (TraceReply)
  kDecisions = 2,  // a chunk of its decision ring (DecisionReply)
};

/// Largest valid PullKind: decoders reject any kind byte past it.
constexpr PullKind wire_max(PullKind) { return PullKind::kDecisions; }

/// The observability pull channel's one inquiry. Servers answer it on their
/// load-index socket and clients on their service socket, out-of-band from
/// the hot-path messages there, so scrapers need no extra port. For the
/// two rings, `offset` is the first record wanted of the node's current
/// snapshot: scrapers walk offsets until a reply's records cross its
/// advertised total. It is ignored for stats.
struct PullInquiry : Message<PullInquiry> {
  static constexpr MsgType kType = MsgType::kPullInquiry;

  std::uint64_t seq = 0;
  PullKind what = PullKind::kStats;
  std::uint32_t offset = 0;

  static constexpr auto fields(auto& m) {
    return std::tie(m.seq, m.what, m.offset);
  }
};

/// The snapshot answer: a JSON document (telemetry::to_json). Senders must
/// keep the payload under the str() codec's 64 KiB limit — encode_into
/// returns 0 for larger payloads, as it does for any undersized buffer.
struct StatsReply : Message<StatsReply> {
  static constexpr MsgType kType = MsgType::kStatsReply;

  std::uint64_t seq = 0;
  std::string payload;

  static constexpr auto fields(auto& m) {
    return std::tie(m.seq, m.payload);
  }
};

/// One TraceRecord on the wire (telemetry::TraceRecord without depending on
/// the telemetry library from net): request id, lifecycle point, node id,
/// node-local monotonic timestamp and point-specific detail payload.
struct TraceRecordWire {
  std::uint64_t request_id = 0;
  std::uint8_t point = 0;     // telemetry::TracePoint value
  std::int32_t node = -1;
  std::int64_t at_ns = 0;     // sender's monotonic clock, unaligned
  std::int64_t detail = 0;

  static constexpr auto fields(auto& m) {
    return std::tie(m.request_id, m.point, m.node, m.at_ns, m.detail);
  }
};

/// One chunk of a node's trace ring plus a clock probe: `server_ns` is the
/// answering node's monotonic clock at reply-build time, so every
/// inquiry/reply round doubles as a ClockSync sample. Senders chunk under
/// the 64 KiB datagram cap (kTraceReplyMaxRecords records per reply).
struct TraceReply : Message<TraceReply> {
  static constexpr MsgType kType = MsgType::kTraceReply;

  std::uint64_t seq = 0;
  std::int32_t node = -1;       // answering node's id
  std::int64_t server_ns = 0;   // answering node's clock (midpoint probe)
  std::uint32_t total = 0;      // records in the node's current snapshot
  std::uint32_t offset = 0;     // index of records.front() within that total
  std::vector<TraceRecordWire> records;

  static constexpr auto fields(auto& m) {
    return std::tie(m.seq, m.node, m.server_ns, m.total, m.offset, m.records);
  }
};

/// Most polled servers one DecisionRecordWire carries inline — must match
/// core's kDecisionPollMax (static_asserted where both are visible).
constexpr std::size_t kDecisionWirePollMax = 8;

/// One decision audit record on the wire (core::DecisionRecord without
/// depending on the core library from net): access id, decision instant,
/// chosen server, flags, and the polled set with reported loads and ages.
struct DecisionRecordWire {
  std::uint64_t request_id = 0;
  std::int64_t at_ns = 0;       // recorder's monotonic clock, unaligned
  std::int32_t chosen = -1;
  std::uint8_t polled_count = 0;  // <= kDecisionWirePollMax
  std::uint8_t flags = 0;         // bit 0: blind fallback
  std::uint8_t blacklist_filtered = 0;
  struct Polled {
    std::int32_t server = -1;
    std::int32_t queue_length = 0;
    std::int64_t age_ns = 0;

    static constexpr auto fields(auto& m) {
      return std::tie(m.server, m.queue_length, m.age_ns);
    }
  };
  /// Only the first polled_count entries go on the wire.
  Polled polled[kDecisionWirePollMax] = {};

  static constexpr auto fields(auto& m) {
    return std::tuple_cat(std::tie(m.request_id, m.at_ns, m.chosen,
                                   m.polled_count, m.flags,
                                   m.blacklist_filtered),
                          std::tuple(codec::counted(m.polled_count, m.polled)));
  }
};

/// One chunk of a node's decision ring. Like TraceReply, `server_ns` is the
/// answering node's monotonic clock at reply-build time (a free ClockSync
/// sample per chunk); senders chunk under the 64 KiB datagram cap
/// (kDecisionReplyMaxRecords records per reply). Records are variable-size
/// on the wire: only `polled_count` polled entries are encoded.
struct DecisionReply : Message<DecisionReply> {
  static constexpr MsgType kType = MsgType::kDecisionReply;

  std::uint64_t seq = 0;
  std::int32_t node = -1;
  std::int64_t server_ns = 0;
  std::uint32_t total = 0;
  std::uint32_t offset = 0;
  std::vector<DecisionRecordWire> records;

  static constexpr auto fields(auto& m) {
    return std::tie(m.seq, m.node, m.server_ns, m.total, m.offset, m.records);
  }
};

/// A candidate's term-stamped vote solicitation (replicated directory
/// control plane). One vote per term per replica, so two leaders can never
/// be elected in the same term.
struct VoteRequest : Message<VoteRequest> {
  static constexpr MsgType kType = MsgType::kVoteRequest;

  std::uint64_t term = 0;
  std::int32_t candidate = -1;  // soliciting replica's id

  static constexpr auto fields(auto& m) {
    return std::tie(m.term, m.candidate);
  }
};

struct VoteReply : Message<VoteReply> {
  static constexpr MsgType kType = MsgType::kVoteReply;

  std::uint64_t term = 0;
  std::int32_t voter = -1;
  bool granted = false;

  static constexpr auto fields(auto& m) {
    return std::tie(m.term, m.voter, m.granted);
  }
};

/// The leader's periodic term-numbered heartbeat. There is no log to ship —
/// directory entries are TTL'd soft state that servers re-publish to every
/// replica — so the heartbeat only asserts leadership and renews the lease.
struct Heartbeat : Message<Heartbeat> {
  static constexpr MsgType kType = MsgType::kHeartbeat;

  std::uint64_t term = 0;
  std::int32_t leader = -1;

  static constexpr auto fields(auto& m) {
    return std::tie(m.term, m.leader);
  }
};

/// A follower's answer to a heartbeat. The leader counts recent acks to
/// decide whether its quorum lease still holds; an ack carrying a larger
/// term tells a deposed leader to step down.
struct HeartbeatAck : Message<HeartbeatAck> {
  static constexpr MsgType kType = MsgType::kHeartbeatAck;

  std::uint64_t term = 0;
  std::int32_t follower = -1;

  static constexpr auto fields(auto& m) {
    return std::tie(m.term, m.follower);
  }
};

/// A non-leader replica's answer to a SnapshotRequest: who (it believes) is
/// leading. leader == -1 / leader_port == 0 means an election is in
/// progress — the client should fail over to another replica and retry.
struct Redirect : Message<Redirect> {
  static constexpr MsgType kType = MsgType::kRedirect;

  std::uint64_t seq = 0;  // echoed SnapshotRequest sequence
  std::uint64_t term = 0;
  std::int32_t leader = -1;
  std::uint16_t leader_port = 0;  // leader's data (publish/snapshot) port

  static constexpr auto fields(auto& m) {
    return std::tie(m.seq, m.term, m.leader, m.leader_port);
  }
};

/// Most records one TraceReply may carry while staying under the UDP
/// datagram limit (29 bytes per record + 29 bytes of header ≈ 58 KiB).
constexpr std::size_t kTraceReplyMaxRecords = 2000;

/// Most records one DecisionReply may carry under the UDP datagram limit:
/// a full record is 23 + 8*16 = 151 bytes, so 400 records ≈ 59 KiB.
constexpr std::size_t kDecisionReplyMaxRecords = 400;

/// Generous stack-buffer size for every fixed-size message type's
/// encode_into, and for service requests/responses with empty args/result
/// (the string-bearing publish/snapshot/trace types and RPC payloads need
/// encoded_size()).
constexpr std::size_t kMaxFixedMsgSize = 64;

/// Every message type, for the typed codec tests and the checks below.
using AllMessages =
    std::tuple<LoadInquiry, LoadReply, ServiceRequest, ServiceResponse,
               Acquire, AcquireReply, Release, Publish, SnapshotRequest,
               SnapshotReply, LoadAnnounce, Subscribe, PullInquiry,
               StatsReply, TraceReply, DecisionReply, VoteRequest,
               VoteReply, Heartbeat, HeartbeatAck, Redirect>;

namespace codec {

template <class... M>
constexpr bool distinct_tags(std::type_identity<std::tuple<M...>>) {
  constexpr MsgType kTags[] = {M::kType...};
  for (std::size_t i = 0; i < sizeof...(M); ++i) {
    for (std::size_t j = i + 1; j < sizeof...(M); ++j) {
      if (kTags[i] == kTags[j]) return false;
    }
  }
  return true;
}

template <class... M>
constexpr bool fixed_sizes_fit(std::type_identity<std::tuple<M...>>) {
  return ((!kFixedSize<M> || M{}.encoded_size() <= kMaxFixedMsgSize) && ...);
}

}  // namespace codec

static_assert(codec::distinct_tags(std::type_identity<AllMessages>{}),
              "two message types share a type tag");
static_assert(codec::fixed_sizes_fit(std::type_identity<AllMessages>{}),
              "a fixed-size message outgrew kMaxFixedMsgSize");
static_assert(ServiceRequest{}.encoded_size() <= kMaxFixedMsgSize &&
                  ServiceResponse{}.encoded_size() <= kMaxFixedMsgSize,
              "an RPC message without payload outgrew kMaxFixedMsgSize");

}  // namespace finelb::net
