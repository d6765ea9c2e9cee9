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
//                                to a snapshot request (DESIGN.md §12).
//
// Every message starts with a one-byte type tag followed by little-endian
// fields. Each type offers two codec surfaces with byte-identical wire
// output:
//   * hot path  — encode_into() serializes into a caller buffer (a
//     DatagramBatch slot or a stack array) and try_decode() parses without
//     throwing; neither touches the heap for the fixed-size message types.
//   * compat    — encode() returns a fresh vector and decode() throws
//     InvariantError on malformed input; thin wrappers over the hot path,
//     kept for tests and cold control-plane code.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/wire.h"

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
  kStatsInquiry = 13,
  kStatsReply = 14,
  kTraceInquiry = 15,
  kTraceReply = 16,
  kVoteRequest = 17,
  kVoteReply = 18,
  kHeartbeat = 19,
  kHeartbeatAck = 20,
  kRedirect = 21,
  kDecisionInquiry = 22,
  kDecisionReply = 23,
};

/// Peeks at the type tag; throws on empty payloads.
MsgType peek_type(std::span<const std::uint8_t> data);

struct LoadInquiry {
  std::uint64_t seq = 0;
  /// Distributed-tracing context (0 = untraced): the issuing client's
  /// request id, so the server's reply-time TraceRecord is causally
  /// linkable to the client's poll round.
  std::uint64_t trace_id = 0;
  /// Sender's monotonic clock at send time (its own epoch; only meaningful
  /// after telemetry::ClockSync alignment). 0 when untraced.
  std::int64_t origin_ns = 0;

  std::size_t encoded_size() const;
  /// Serializes into `out`; returns bytes written, 0 if `out` is too small
  /// (nothing usable is written in that case). Never allocates or throws.
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  /// Non-throwing decode; returns false on malformed input, leaving `out`
  /// unspecified. Never allocates for fixed-size message types.
  static bool try_decode(std::span<const std::uint8_t> data, LoadInquiry& out);

  std::vector<std::uint8_t> encode() const;
  static LoadInquiry decode(std::span<const std::uint8_t> data);
};

struct LoadReply {
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

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  static bool try_decode(std::span<const std::uint8_t> data, LoadReply& out);

  std::vector<std::uint8_t> encode() const;
  static LoadReply decode(std::span<const std::uint8_t> data);
};

/// Outcome of a service access (Neptune RPC semantics, paper §3.1).
enum class RpcStatus : std::uint8_t {
  kOk = 0,
  kNoSuchMethod = 1,
  kNoSuchPartition = 2,
  kAppError = 3,
};

/// Largest RPC args/result blob: one datagram with header room to spare.
/// encode_into refuses (returns 0) anything larger.
constexpr std::size_t kMaxRpcPayload = 60 * 1024;

/// A service access. The experiment service reads `service_us`; a Neptune
/// service reads `method`, `partition` and `args`.
struct ServiceRequest {
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

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  /// Reuses out.args capacity; empty args decode without allocating.
  static bool try_decode(std::span<const std::uint8_t> data,
                         ServiceRequest& out);

  std::vector<std::uint8_t> encode() const;
  static ServiceRequest decode(std::span<const std::uint8_t> data);
};

struct ServiceResponse {
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

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  /// Rejects unknown status bytes; reuses out.result capacity.
  static bool try_decode(std::span<const std::uint8_t> data,
                         ServiceResponse& out);

  std::vector<std::uint8_t> encode() const;
  static ServiceResponse decode(std::span<const std::uint8_t> data);
};

struct Acquire {
  std::uint64_t seq = 0;

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  static bool try_decode(std::span<const std::uint8_t> data, Acquire& out);

  std::vector<std::uint8_t> encode() const;
  static Acquire decode(std::span<const std::uint8_t> data);
};

struct AcquireReply {
  std::uint64_t seq = 0;
  std::int32_t server = 0;

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  static bool try_decode(std::span<const std::uint8_t> data,
                         AcquireReply& out);

  std::vector<std::uint8_t> encode() const;
  static AcquireReply decode(std::span<const std::uint8_t> data);
};

struct Release {
  std::int32_t server = 0;

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  static bool try_decode(std::span<const std::uint8_t> data, Release& out);

  std::vector<std::uint8_t> encode() const;
  static Release decode(std::span<const std::uint8_t> data);
};

/// A server's soft-state announcement to the availability channel.
struct Publish {
  std::string service;        // service type, e.g. "image-store"
  std::uint32_t partition = 0;
  std::int32_t server = 0;    // dense experiment-wide server id
  std::uint16_t service_port = 0;
  std::uint16_t load_port = 0;
  std::uint32_t ttl_ms = 0;   // entry expires unless refreshed within ttl

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  /// try_decode assigns into out.service, reusing its capacity across calls.
  static bool try_decode(std::span<const std::uint8_t> data, Publish& out);

  std::vector<std::uint8_t> encode() const;
  static Publish decode(std::span<const std::uint8_t> data);
};

struct SnapshotRequest {
  std::uint64_t seq = 0;
  std::string service;  // empty = all services

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  static bool try_decode(std::span<const std::uint8_t> data,
                         SnapshotRequest& out);

  std::vector<std::uint8_t> encode() const;
  static SnapshotRequest decode(std::span<const std::uint8_t> data);
};

struct SnapshotReply {
  std::uint64_t seq = 0;
  std::vector<Publish> entries;

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  /// Rejects entry counts that cannot fit the remaining bytes before
  /// reserving storage, so a garbage count cannot force a huge allocation.
  static bool try_decode(std::span<const std::uint8_t> data,
                         SnapshotReply& out);

  std::vector<std::uint8_t> encode() const;
  static SnapshotReply decode(std::span<const std::uint8_t> data);
};

/// A server's periodic load announcement on the broadcast channel
/// (prototype extension of the paper's §2.2 broadcast policy).
struct LoadAnnounce {
  std::int32_t server = 0;
  std::int32_t queue_length = 0;

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  static bool try_decode(std::span<const std::uint8_t> data,
                         LoadAnnounce& out);

  std::vector<std::uint8_t> encode() const;
  static LoadAnnounce decode(std::span<const std::uint8_t> data);
};

/// A client's (soft-state) subscription to the broadcast channel.
struct Subscribe {
  std::uint32_t ttl_ms = 0;

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  static bool try_decode(std::span<const std::uint8_t> data, Subscribe& out);

  std::vector<std::uint8_t> encode() const;
  static Subscribe decode(std::span<const std::uint8_t> data);
};

/// Asks a node's load-index UDP server for a telemetry snapshot (the
/// observability pull channel; answered out-of-band from LoadInquiry on the
/// same socket, so scrapers need no extra port).
struct StatsInquiry {
  std::uint64_t seq = 0;

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  static bool try_decode(std::span<const std::uint8_t> data,
                         StatsInquiry& out);

  std::vector<std::uint8_t> encode() const;
  static StatsInquiry decode(std::span<const std::uint8_t> data);
};

/// The snapshot answer: a JSON document (telemetry::to_json). Senders must
/// keep the payload under the str() codec's 64 KiB limit — encode_into
/// returns 0 for larger payloads, as it does for any undersized buffer.
struct StatsReply {
  std::uint64_t seq = 0;
  std::string payload;

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  /// try_decode assigns into out.payload, reusing its capacity across calls.
  static bool try_decode(std::span<const std::uint8_t> data, StatsReply& out);

  std::vector<std::uint8_t> encode() const;
  static StatsReply decode(std::span<const std::uint8_t> data);
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
};

/// Asks a node's load-index UDP server for a chunk of its trace ring,
/// starting at record `offset` of the node's current snapshot. Clients walk
/// offsets until a reply's records cross its advertised total.
struct TraceInquiry {
  std::uint64_t seq = 0;
  std::uint32_t offset = 0;

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  static bool try_decode(std::span<const std::uint8_t> data,
                         TraceInquiry& out);

  std::vector<std::uint8_t> encode() const;
  static TraceInquiry decode(std::span<const std::uint8_t> data);
};

/// One chunk of a node's trace ring plus a clock probe: `server_ns` is the
/// answering node's monotonic clock at reply-build time, so every
/// inquiry/reply round doubles as a ClockSync sample. Senders chunk under
/// the 64 KiB datagram cap (kTraceReplyMaxRecords records per reply).
struct TraceReply {
  std::uint64_t seq = 0;
  std::int32_t node = -1;       // answering node's id
  std::int64_t server_ns = 0;   // answering node's clock (midpoint probe)
  std::uint32_t total = 0;      // records in the node's current snapshot
  std::uint32_t offset = 0;     // index of records.front() within that total
  std::vector<TraceRecordWire> records;

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  /// Rejects record counts that cannot fit the remaining bytes before
  /// reserving storage, like SnapshotReply.
  static bool try_decode(std::span<const std::uint8_t> data, TraceReply& out);

  std::vector<std::uint8_t> encode() const;
  static TraceReply decode(std::span<const std::uint8_t> data);
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
  };
  Polled polled[kDecisionWirePollMax] = {};
};

/// Asks a node for a chunk of its decision ring, starting at record
/// `offset` of the node's current snapshot (walked like TraceInquiry).
struct DecisionInquiry {
  std::uint64_t seq = 0;
  std::uint32_t offset = 0;

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  static bool try_decode(std::span<const std::uint8_t> data,
                         DecisionInquiry& out);

  std::vector<std::uint8_t> encode() const;
  static DecisionInquiry decode(std::span<const std::uint8_t> data);
};

/// One chunk of a node's decision ring. Like TraceReply, `server_ns` is the
/// answering node's monotonic clock at reply-build time (a free ClockSync
/// sample per chunk); senders chunk under the 64 KiB datagram cap
/// (kDecisionReplyMaxRecords records per reply). Records are variable-size
/// on the wire: only `polled_count` polled entries are encoded.
struct DecisionReply {
  std::uint64_t seq = 0;
  std::int32_t node = -1;
  std::int64_t server_ns = 0;
  std::uint32_t total = 0;
  std::uint32_t offset = 0;
  std::vector<DecisionRecordWire> records;

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  /// Rejects record counts that cannot fit the remaining bytes before
  /// reserving storage, and per-record polled counts past the inline cap.
  static bool try_decode(std::span<const std::uint8_t> data,
                         DecisionReply& out);

  std::vector<std::uint8_t> encode() const;
  static DecisionReply decode(std::span<const std::uint8_t> data);
};

/// A candidate's term-stamped vote solicitation (replicated directory
/// control plane). One vote per term per replica, so two leaders can never
/// be elected in the same term.
struct VoteRequest {
  std::uint64_t term = 0;
  std::int32_t candidate = -1;  // soliciting replica's id

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  static bool try_decode(std::span<const std::uint8_t> data, VoteRequest& out);

  std::vector<std::uint8_t> encode() const;
  static VoteRequest decode(std::span<const std::uint8_t> data);
};

struct VoteReply {
  std::uint64_t term = 0;
  std::int32_t voter = -1;
  bool granted = false;

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  static bool try_decode(std::span<const std::uint8_t> data, VoteReply& out);

  std::vector<std::uint8_t> encode() const;
  static VoteReply decode(std::span<const std::uint8_t> data);
};

/// The leader's periodic term-numbered heartbeat. There is no log to ship —
/// directory entries are TTL'd soft state that servers re-publish to every
/// replica — so the heartbeat only asserts leadership and renews the lease.
struct Heartbeat {
  std::uint64_t term = 0;
  std::int32_t leader = -1;

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  static bool try_decode(std::span<const std::uint8_t> data, Heartbeat& out);

  std::vector<std::uint8_t> encode() const;
  static Heartbeat decode(std::span<const std::uint8_t> data);
};

/// A follower's answer to a heartbeat. The leader counts recent acks to
/// decide whether its quorum lease still holds; an ack carrying a larger
/// term tells a deposed leader to step down.
struct HeartbeatAck {
  std::uint64_t term = 0;
  std::int32_t follower = -1;

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  static bool try_decode(std::span<const std::uint8_t> data, HeartbeatAck& out);

  std::vector<std::uint8_t> encode() const;
  static HeartbeatAck decode(std::span<const std::uint8_t> data);
};

/// A non-leader replica's answer to a SnapshotRequest: who (it believes) is
/// leading. leader == -1 / leader_port == 0 means an election is in
/// progress — the client should fail over to another replica and retry.
struct Redirect {
  std::uint64_t seq = 0;  // echoed SnapshotRequest sequence
  std::uint64_t term = 0;
  std::int32_t leader = -1;
  std::uint16_t leader_port = 0;  // leader's data (publish/snapshot) port

  std::size_t encoded_size() const;
  std::size_t encode_into(std::span<std::uint8_t> out) const;
  static bool try_decode(std::span<const std::uint8_t> data, Redirect& out);

  std::vector<std::uint8_t> encode() const;
  static Redirect decode(std::span<const std::uint8_t> data);
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

}  // namespace finelb::net
