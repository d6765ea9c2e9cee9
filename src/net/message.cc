#include "net/message.h"

namespace finelb::net {
namespace {

/// Consumes the type tag; false when it is missing or not `want`.
bool expect_type(TryReader& r, MsgType want) {
  const auto got = static_cast<MsgType>(r.u8());
  return r.ok() && got == want;
}

// Every encode path (including the compat encode() vectors) routes through
// SpanWriter, so there is a single source of wire bytes per message type.
void put_publish_body(SpanWriter& w, const Publish& p) {
  w.str(p.service);
  w.u32(p.partition);
  w.i32(p.server);
  w.u16(p.service_port);
  w.u16(p.load_port);
  w.u32(p.ttl_ms);
}

bool read_publish_body(TryReader& r, Publish& p) {
  r.str(p.service);
  p.partition = r.u32();
  p.server = r.i32();
  p.service_port = r.u16();
  p.load_port = r.u16();
  p.ttl_ms = r.u32();
  return r.ok();
}

std::size_t publish_body_size(const Publish& p) {
  return 2 + p.service.size() + 4 + 4 + 2 + 2 + 4;
}

/// Shared encode() wrapper: size the vector exactly, serialize in place.
/// Byte-identical to encode_into by construction.
template <class Msg>
std::vector<std::uint8_t> encode_via(const Msg& m) {
  std::vector<std::uint8_t> out(m.encoded_size());
  const std::size_t n = m.encode_into(out);
  FINELB_CHECK(n == out.size(), "encoded_size/encode_into disagree");
  return out;
}

/// Shared decode() wrapper: throwing facade over try_decode.
template <class Msg>
Msg decode_via(std::span<const std::uint8_t> data, const char* what) {
  Msg m;
  FINELB_CHECK(Msg::try_decode(data, m), what);
  return m;
}

}  // namespace

MsgType peek_type(std::span<const std::uint8_t> data) {
  FINELB_CHECK(!data.empty(), "empty datagram");
  return static_cast<MsgType>(data[0]);
}

std::size_t LoadInquiry::encoded_size() const { return 1 + 8 + 8 + 8; }

std::size_t LoadInquiry::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kLoadInquiry));
  w.u64(seq);
  w.u64(trace_id);
  w.i64(origin_ns);
  return w.ok() ? w.size() : 0;
}

bool LoadInquiry::try_decode(std::span<const std::uint8_t> data,
                             LoadInquiry& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kLoadInquiry)) return false;
  out.seq = r.u64();
  out.trace_id = r.u64();
  out.origin_ns = r.i64();
  return r.ok();
}

std::vector<std::uint8_t> LoadInquiry::encode() const {
  return encode_via(*this);
}

LoadInquiry LoadInquiry::decode(std::span<const std::uint8_t> data) {
  return decode_via<LoadInquiry>(data, "malformed LoadInquiry");
}

std::size_t LoadReply::encoded_size() const { return 1 + 8 + 4 + 8 + 8 + 8; }

std::size_t LoadReply::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kLoadReply));
  w.u64(seq);
  w.i32(queue_length);
  w.u64(trace_id);
  w.i64(origin_ns);
  w.i64(server_ns);
  return w.ok() ? w.size() : 0;
}

bool LoadReply::try_decode(std::span<const std::uint8_t> data,
                           LoadReply& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kLoadReply)) return false;
  out.seq = r.u64();
  out.queue_length = r.i32();
  out.trace_id = r.u64();
  out.origin_ns = r.i64();
  out.server_ns = r.i64();
  return r.ok();
}

std::vector<std::uint8_t> LoadReply::encode() const { return encode_via(*this); }

LoadReply LoadReply::decode(std::span<const std::uint8_t> data) {
  return decode_via<LoadReply>(data, "malformed LoadReply");
}

std::size_t ServiceRequest::encoded_size() const {
  return 1 + 8 + 4 + 4 + 8 + 8 + 2 + 4 + args.size();
}

std::size_t ServiceRequest::encode_into(std::span<std::uint8_t> out) const {
  if (args.size() > kMaxRpcPayload) return 0;
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kServiceRequest));
  w.u64(request_id);
  w.u32(service_us);
  w.u32(partition);
  w.u64(trace_id);
  w.i64(origin_ns);
  w.u16(method);
  w.blob(args);
  return w.ok() ? w.size() : 0;
}

bool ServiceRequest::try_decode(std::span<const std::uint8_t> data,
                                ServiceRequest& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kServiceRequest)) return false;
  out.request_id = r.u64();
  out.service_us = r.u32();
  out.partition = r.u32();
  out.trace_id = r.u64();
  out.origin_ns = r.i64();
  out.method = r.u16();
  r.blob(out.args);
  return r.ok();
}

std::vector<std::uint8_t> ServiceRequest::encode() const {
  return encode_via(*this);
}

ServiceRequest ServiceRequest::decode(std::span<const std::uint8_t> data) {
  return decode_via<ServiceRequest>(data, "malformed ServiceRequest");
}

std::size_t ServiceResponse::encoded_size() const {
  return 1 + 8 + 4 + 4 + 8 + 8 + 1 + 4 + result.size();
}

std::size_t ServiceResponse::encode_into(std::span<std::uint8_t> out) const {
  if (result.size() > kMaxRpcPayload) return 0;
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kServiceResponse));
  w.u64(request_id);
  w.i32(server);
  w.i32(queue_at_arrival);
  w.u64(trace_id);
  w.i64(server_ns);
  w.u8(static_cast<std::uint8_t>(status));
  w.blob(result);
  return w.ok() ? w.size() : 0;
}

bool ServiceResponse::try_decode(std::span<const std::uint8_t> data,
                                 ServiceResponse& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kServiceResponse)) return false;
  out.request_id = r.u64();
  out.server = r.i32();
  out.queue_at_arrival = r.i32();
  out.trace_id = r.u64();
  out.server_ns = r.i64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(RpcStatus::kAppError)) return false;
  out.status = static_cast<RpcStatus>(status);
  r.blob(out.result);
  return r.ok();
}

std::vector<std::uint8_t> ServiceResponse::encode() const {
  return encode_via(*this);
}

ServiceResponse ServiceResponse::decode(std::span<const std::uint8_t> data) {
  return decode_via<ServiceResponse>(data, "malformed ServiceResponse");
}

std::size_t Acquire::encoded_size() const { return 1 + 8; }

std::size_t Acquire::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kAcquire));
  w.u64(seq);
  return w.ok() ? w.size() : 0;
}

bool Acquire::try_decode(std::span<const std::uint8_t> data, Acquire& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kAcquire)) return false;
  out.seq = r.u64();
  return r.ok();
}

std::vector<std::uint8_t> Acquire::encode() const { return encode_via(*this); }

Acquire Acquire::decode(std::span<const std::uint8_t> data) {
  return decode_via<Acquire>(data, "malformed Acquire");
}

std::size_t AcquireReply::encoded_size() const { return 1 + 8 + 4; }

std::size_t AcquireReply::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kAcquireReply));
  w.u64(seq);
  w.i32(server);
  return w.ok() ? w.size() : 0;
}

bool AcquireReply::try_decode(std::span<const std::uint8_t> data,
                              AcquireReply& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kAcquireReply)) return false;
  out.seq = r.u64();
  out.server = r.i32();
  return r.ok();
}

std::vector<std::uint8_t> AcquireReply::encode() const {
  return encode_via(*this);
}

AcquireReply AcquireReply::decode(std::span<const std::uint8_t> data) {
  return decode_via<AcquireReply>(data, "malformed AcquireReply");
}

std::size_t Release::encoded_size() const { return 1 + 4; }

std::size_t Release::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kRelease));
  w.i32(server);
  return w.ok() ? w.size() : 0;
}

bool Release::try_decode(std::span<const std::uint8_t> data, Release& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kRelease)) return false;
  out.server = r.i32();
  return r.ok();
}

std::vector<std::uint8_t> Release::encode() const { return encode_via(*this); }

Release Release::decode(std::span<const std::uint8_t> data) {
  return decode_via<Release>(data, "malformed Release");
}

std::size_t Publish::encoded_size() const {
  return 1 + publish_body_size(*this);
}

std::size_t Publish::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kPublish));
  put_publish_body(w, *this);
  return w.ok() ? w.size() : 0;
}

bool Publish::try_decode(std::span<const std::uint8_t> data, Publish& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kPublish)) return false;
  return read_publish_body(r, out);
}

std::vector<std::uint8_t> Publish::encode() const { return encode_via(*this); }

Publish Publish::decode(std::span<const std::uint8_t> data) {
  return decode_via<Publish>(data, "malformed Publish");
}

std::size_t SnapshotRequest::encoded_size() const {
  return 1 + 8 + 2 + service.size();
}

std::size_t SnapshotRequest::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kSnapshotRequest));
  w.u64(seq);
  w.str(service);
  return w.ok() ? w.size() : 0;
}

bool SnapshotRequest::try_decode(std::span<const std::uint8_t> data,
                                 SnapshotRequest& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kSnapshotRequest)) return false;
  out.seq = r.u64();
  r.str(out.service);
  return r.ok();
}

std::vector<std::uint8_t> SnapshotRequest::encode() const {
  return encode_via(*this);
}

SnapshotRequest SnapshotRequest::decode(std::span<const std::uint8_t> data) {
  return decode_via<SnapshotRequest>(data, "malformed SnapshotRequest");
}

std::size_t SnapshotReply::encoded_size() const {
  std::size_t size = 1 + 8 + 4;
  for (const auto& entry : entries) size += publish_body_size(entry);
  return size;
}

std::size_t SnapshotReply::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kSnapshotReply));
  w.u64(seq);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& entry : entries) put_publish_body(w, entry);
  return w.ok() ? w.size() : 0;
}

bool SnapshotReply::try_decode(std::span<const std::uint8_t> data,
                               SnapshotReply& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kSnapshotReply)) return false;
  out.seq = r.u64();
  const std::uint32_t count = r.u32();
  if (!r.ok()) return false;
  // The smallest possible entry (empty service string) is 18 bytes; a count
  // the remaining bytes cannot hold is garbage — reject it before reserving
  // storage rather than letting a corrupted count force a giant allocation.
  constexpr std::size_t kMinEntryBytes = 18;
  if (static_cast<std::size_t>(count) > r.remaining() / kMinEntryBytes) {
    return false;
  }
  out.entries.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!read_publish_body(r, out.entries[i])) return false;
  }
  return true;
}

std::vector<std::uint8_t> SnapshotReply::encode() const {
  return encode_via(*this);
}

SnapshotReply SnapshotReply::decode(std::span<const std::uint8_t> data) {
  return decode_via<SnapshotReply>(data, "malformed SnapshotReply");
}

std::size_t LoadAnnounce::encoded_size() const { return 1 + 4 + 4; }

std::size_t LoadAnnounce::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kLoadAnnounce));
  w.i32(server);
  w.i32(queue_length);
  return w.ok() ? w.size() : 0;
}

bool LoadAnnounce::try_decode(std::span<const std::uint8_t> data,
                              LoadAnnounce& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kLoadAnnounce)) return false;
  out.server = r.i32();
  out.queue_length = r.i32();
  return r.ok();
}

std::vector<std::uint8_t> LoadAnnounce::encode() const {
  return encode_via(*this);
}

LoadAnnounce LoadAnnounce::decode(std::span<const std::uint8_t> data) {
  return decode_via<LoadAnnounce>(data, "malformed LoadAnnounce");
}

std::size_t Subscribe::encoded_size() const { return 1 + 4; }

std::size_t Subscribe::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kSubscribe));
  w.u32(ttl_ms);
  return w.ok() ? w.size() : 0;
}

bool Subscribe::try_decode(std::span<const std::uint8_t> data,
                           Subscribe& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kSubscribe)) return false;
  out.ttl_ms = r.u32();
  return r.ok();
}

std::vector<std::uint8_t> Subscribe::encode() const {
  return encode_via(*this);
}

Subscribe Subscribe::decode(std::span<const std::uint8_t> data) {
  return decode_via<Subscribe>(data, "malformed Subscribe");
}

std::size_t StatsInquiry::encoded_size() const { return 1 + 8; }

std::size_t StatsInquiry::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kStatsInquiry));
  w.u64(seq);
  return w.ok() ? w.size() : 0;
}

bool StatsInquiry::try_decode(std::span<const std::uint8_t> data,
                              StatsInquiry& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kStatsInquiry)) return false;
  out.seq = r.u64();
  return r.ok();
}

std::vector<std::uint8_t> StatsInquiry::encode() const {
  return encode_via(*this);
}

StatsInquiry StatsInquiry::decode(std::span<const std::uint8_t> data) {
  return decode_via<StatsInquiry>(data, "malformed StatsInquiry");
}

std::size_t StatsReply::encoded_size() const {
  return 1 + 8 + 2 + payload.size();
}

std::size_t StatsReply::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kStatsReply));
  w.u64(seq);
  w.str(payload);
  return w.ok() ? w.size() : 0;
}

bool StatsReply::try_decode(std::span<const std::uint8_t> data,
                            StatsReply& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kStatsReply)) return false;
  out.seq = r.u64();
  r.str(out.payload);
  return r.ok();
}

std::vector<std::uint8_t> StatsReply::encode() const {
  return encode_via(*this);
}

StatsReply StatsReply::decode(std::span<const std::uint8_t> data) {
  return decode_via<StatsReply>(data, "malformed StatsReply");
}

std::size_t TraceInquiry::encoded_size() const { return 1 + 8 + 4; }

std::size_t TraceInquiry::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kTraceInquiry));
  w.u64(seq);
  w.u32(offset);
  return w.ok() ? w.size() : 0;
}

bool TraceInquiry::try_decode(std::span<const std::uint8_t> data,
                              TraceInquiry& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kTraceInquiry)) return false;
  out.seq = r.u64();
  out.offset = r.u32();
  return r.ok();
}

std::vector<std::uint8_t> TraceInquiry::encode() const {
  return encode_via(*this);
}

TraceInquiry TraceInquiry::decode(std::span<const std::uint8_t> data) {
  return decode_via<TraceInquiry>(data, "malformed TraceInquiry");
}

namespace {

constexpr std::size_t kTraceRecordWireBytes = 8 + 1 + 4 + 8 + 8;

void put_trace_record(SpanWriter& w, const TraceRecordWire& rec) {
  w.u64(rec.request_id);
  w.u8(rec.point);
  w.i32(rec.node);
  w.i64(rec.at_ns);
  w.i64(rec.detail);
}

bool read_trace_record(TryReader& r, TraceRecordWire& rec) {
  rec.request_id = r.u64();
  rec.point = r.u8();
  rec.node = r.i32();
  rec.at_ns = r.i64();
  rec.detail = r.i64();
  return r.ok();
}

}  // namespace

std::size_t TraceReply::encoded_size() const {
  return 1 + 8 + 4 + 8 + 4 + 4 + 4 + records.size() * kTraceRecordWireBytes;
}

std::size_t TraceReply::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kTraceReply));
  w.u64(seq);
  w.i32(node);
  w.i64(server_ns);
  w.u32(total);
  w.u32(offset);
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const TraceRecordWire& rec : records) put_trace_record(w, rec);
  return w.ok() ? w.size() : 0;
}

bool TraceReply::try_decode(std::span<const std::uint8_t> data,
                            TraceReply& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kTraceReply)) return false;
  out.seq = r.u64();
  out.node = r.i32();
  out.server_ns = r.i64();
  out.total = r.u32();
  out.offset = r.u32();
  const std::uint32_t count = r.u32();
  if (!r.ok()) return false;
  // Reject counts the remaining bytes cannot hold before reserving storage
  // (same defense as SnapshotReply against a corrupted count).
  if (static_cast<std::size_t>(count) >
      r.remaining() / kTraceRecordWireBytes) {
    return false;
  }
  out.records.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!read_trace_record(r, out.records[i])) return false;
  }
  return true;
}

std::vector<std::uint8_t> TraceReply::encode() const {
  return encode_via(*this);
}

TraceReply TraceReply::decode(std::span<const std::uint8_t> data) {
  return decode_via<TraceReply>(data, "malformed TraceReply");
}

std::size_t DecisionInquiry::encoded_size() const { return 1 + 8 + 4; }

std::size_t DecisionInquiry::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kDecisionInquiry));
  w.u64(seq);
  w.u32(offset);
  return w.ok() ? w.size() : 0;
}

bool DecisionInquiry::try_decode(std::span<const std::uint8_t> data,
                                 DecisionInquiry& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kDecisionInquiry)) return false;
  out.seq = r.u64();
  out.offset = r.u32();
  return r.ok();
}

std::vector<std::uint8_t> DecisionInquiry::encode() const {
  return encode_via(*this);
}

DecisionInquiry DecisionInquiry::decode(std::span<const std::uint8_t> data) {
  return decode_via<DecisionInquiry>(data, "malformed DecisionInquiry");
}

namespace {

// Fixed header of one decision record; each polled entry adds 4 + 4 + 8.
constexpr std::size_t kDecisionRecordHeaderBytes = 8 + 8 + 4 + 1 + 1 + 1;
constexpr std::size_t kDecisionPolledBytes = 4 + 4 + 8;

std::size_t decision_record_bytes(const DecisionRecordWire& rec) {
  return kDecisionRecordHeaderBytes +
         static_cast<std::size_t>(rec.polled_count) * kDecisionPolledBytes;
}

void put_decision_record(SpanWriter& w, const DecisionRecordWire& rec) {
  w.u64(rec.request_id);
  w.i64(rec.at_ns);
  w.i32(rec.chosen);
  w.u8(rec.polled_count);
  w.u8(rec.flags);
  w.u8(rec.blacklist_filtered);
  for (std::uint8_t i = 0; i < rec.polled_count; ++i) {
    w.i32(rec.polled[i].server);
    w.i32(rec.polled[i].queue_length);
    w.i64(rec.polled[i].age_ns);
  }
}

bool read_decision_record(TryReader& r, DecisionRecordWire& rec) {
  rec.request_id = r.u64();
  rec.at_ns = r.i64();
  rec.chosen = r.i32();
  rec.polled_count = r.u8();
  rec.flags = r.u8();
  rec.blacklist_filtered = r.u8();
  if (!r.ok() || rec.polled_count > kDecisionWirePollMax) return false;
  for (std::uint8_t i = 0; i < rec.polled_count; ++i) {
    rec.polled[i].server = r.i32();
    rec.polled[i].queue_length = r.i32();
    rec.polled[i].age_ns = r.i64();
  }
  return r.ok();
}

}  // namespace

std::size_t DecisionReply::encoded_size() const {
  std::size_t n = 1 + 8 + 4 + 8 + 4 + 4 + 4;
  for (const DecisionRecordWire& rec : records) {
    n += decision_record_bytes(rec);
  }
  return n;
}

std::size_t DecisionReply::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kDecisionReply));
  w.u64(seq);
  w.i32(node);
  w.i64(server_ns);
  w.u32(total);
  w.u32(offset);
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const DecisionRecordWire& rec : records) {
    if (rec.polled_count > kDecisionWirePollMax) return 0;
    put_decision_record(w, rec);
  }
  return w.ok() ? w.size() : 0;
}

bool DecisionReply::try_decode(std::span<const std::uint8_t> data,
                               DecisionReply& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kDecisionReply)) return false;
  out.seq = r.u64();
  out.node = r.i32();
  out.server_ns = r.i64();
  out.total = r.u32();
  out.offset = r.u32();
  const std::uint32_t count = r.u32();
  if (!r.ok()) return false;
  // Records are variable-size, so the cheapest-possible record (no polled
  // entries) bounds the admissible count before any storage is reserved.
  if (static_cast<std::size_t>(count) >
      r.remaining() / kDecisionRecordHeaderBytes) {
    return false;
  }
  out.records.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!read_decision_record(r, out.records[i])) return false;
  }
  return true;
}

std::vector<std::uint8_t> DecisionReply::encode() const {
  return encode_via(*this);
}

DecisionReply DecisionReply::decode(std::span<const std::uint8_t> data) {
  return decode_via<DecisionReply>(data, "malformed DecisionReply");
}

std::size_t VoteRequest::encoded_size() const { return 1 + 8 + 4; }

std::size_t VoteRequest::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kVoteRequest));
  w.u64(term);
  w.i32(candidate);
  return w.ok() ? w.size() : 0;
}

bool VoteRequest::try_decode(std::span<const std::uint8_t> data,
                             VoteRequest& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kVoteRequest)) return false;
  out.term = r.u64();
  out.candidate = r.i32();
  return r.ok();
}

std::vector<std::uint8_t> VoteRequest::encode() const {
  return encode_via(*this);
}

VoteRequest VoteRequest::decode(std::span<const std::uint8_t> data) {
  return decode_via<VoteRequest>(data, "malformed VoteRequest");
}

std::size_t VoteReply::encoded_size() const { return 1 + 8 + 4 + 1; }

std::size_t VoteReply::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kVoteReply));
  w.u64(term);
  w.i32(voter);
  w.u8(granted ? 1 : 0);
  return w.ok() ? w.size() : 0;
}

bool VoteReply::try_decode(std::span<const std::uint8_t> data,
                           VoteReply& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kVoteReply)) return false;
  out.term = r.u64();
  out.voter = r.i32();
  out.granted = r.u8() != 0;
  return r.ok();
}

std::vector<std::uint8_t> VoteReply::encode() const {
  return encode_via(*this);
}

VoteReply VoteReply::decode(std::span<const std::uint8_t> data) {
  return decode_via<VoteReply>(data, "malformed VoteReply");
}

std::size_t Heartbeat::encoded_size() const { return 1 + 8 + 4; }

std::size_t Heartbeat::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kHeartbeat));
  w.u64(term);
  w.i32(leader);
  return w.ok() ? w.size() : 0;
}

bool Heartbeat::try_decode(std::span<const std::uint8_t> data,
                           Heartbeat& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kHeartbeat)) return false;
  out.term = r.u64();
  out.leader = r.i32();
  return r.ok();
}

std::vector<std::uint8_t> Heartbeat::encode() const {
  return encode_via(*this);
}

Heartbeat Heartbeat::decode(std::span<const std::uint8_t> data) {
  return decode_via<Heartbeat>(data, "malformed Heartbeat");
}

std::size_t HeartbeatAck::encoded_size() const { return 1 + 8 + 4; }

std::size_t HeartbeatAck::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kHeartbeatAck));
  w.u64(term);
  w.i32(follower);
  return w.ok() ? w.size() : 0;
}

bool HeartbeatAck::try_decode(std::span<const std::uint8_t> data,
                              HeartbeatAck& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kHeartbeatAck)) return false;
  out.term = r.u64();
  out.follower = r.i32();
  return r.ok();
}

std::vector<std::uint8_t> HeartbeatAck::encode() const {
  return encode_via(*this);
}

HeartbeatAck HeartbeatAck::decode(std::span<const std::uint8_t> data) {
  return decode_via<HeartbeatAck>(data, "malformed HeartbeatAck");
}

std::size_t Redirect::encoded_size() const { return 1 + 8 + 8 + 4 + 2; }

std::size_t Redirect::encode_into(std::span<std::uint8_t> out) const {
  SpanWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kRedirect));
  w.u64(seq);
  w.u64(term);
  w.i32(leader);
  w.u16(leader_port);
  return w.ok() ? w.size() : 0;
}

bool Redirect::try_decode(std::span<const std::uint8_t> data, Redirect& out) {
  TryReader r(data);
  if (!expect_type(r, MsgType::kRedirect)) return false;
  out.seq = r.u64();
  out.term = r.u64();
  out.leader = r.i32();
  out.leader_port = r.u16();
  return r.ok();
}

std::vector<std::uint8_t> Redirect::encode() const {
  return encode_via(*this);
}

Redirect Redirect::decode(std::span<const std::uint8_t> data) {
  return decode_via<Redirect>(data, "malformed Redirect");
}

}  // namespace finelb::net
