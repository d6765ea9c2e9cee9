#include "telemetry/scrape.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <utility>

#include "net/clock.h"
#include "net/poller.h"
#include "telemetry/export.h"

namespace finelb::telemetry {

namespace {

/// Which reply answers a ring pull, and how many records one may carry.
template <class Record>
struct RingPull;

template <>
struct RingPull<TraceRecord> {
  using Reply = net::TraceReply;
  static constexpr net::PullKind kKind = net::PullKind::kTrace;
  static constexpr std::size_t kMaxRecords = net::kTraceReplyMaxRecords;
};

template <>
struct RingPull<DecisionRecord> {
  using Reply = net::DecisionReply;
  static constexpr net::PullKind kKind = net::PullKind::kDecisions;
  static constexpr std::size_t kMaxRecords = net::kDecisionReplyMaxRecords;
};

static_assert(net::kDecisionWirePollMax == kDecisionPollMax,
              "wire and core polled-set caps must agree");

net::TraceRecordWire to_wire(const TraceRecord& rec) {
  net::TraceRecordWire wire;
  wire.request_id = rec.request_id;
  wire.point = static_cast<std::uint8_t>(rec.point);
  wire.node = rec.node;
  wire.at_ns = rec.at_ns;
  wire.detail = rec.detail;
  return wire;
}

TraceRecord from_wire(const net::TraceRecordWire& wire) {
  TraceRecord rec;
  rec.request_id = wire.request_id;
  rec.point = static_cast<TracePoint>(wire.point);
  rec.node = wire.node;
  rec.at_ns = wire.at_ns;
  rec.detail = wire.detail;
  return rec;
}

net::DecisionRecordWire to_wire(const DecisionRecord& rec) {
  net::DecisionRecordWire wire;
  wire.request_id = rec.request_id;
  wire.at_ns = rec.at_ns;
  wire.chosen = rec.chosen;
  wire.polled_count = rec.polled_count;
  wire.flags = rec.blind_fallback ? 1 : 0;
  wire.blacklist_filtered = rec.blacklist_filtered;
  for (std::size_t p = 0; p < rec.polled_count && p < kDecisionPollMax; ++p) {
    wire.polled[p].server = rec.polled[p].server;
    wire.polled[p].queue_length = rec.polled[p].queue_length;
    wire.polled[p].age_ns = rec.polled[p].age_ns;
  }
  return wire;
}

// The codec refuses a polled_count past kDecisionWirePollMax, so every
// decoded count indexes `polled` safely.
DecisionRecord from_wire(const net::DecisionRecordWire& wire) {
  DecisionRecord rec;
  rec.request_id = wire.request_id;
  rec.at_ns = wire.at_ns;
  rec.chosen = wire.chosen;
  rec.polled_count = wire.polled_count;
  rec.blind_fallback = (wire.flags & 1) != 0;
  rec.blacklist_filtered = wire.blacklist_filtered;
  for (std::uint8_t i = 0; i < rec.polled_count; ++i) {
    rec.polled[i].server = wire.polled[i].server;
    rec.polled[i].queue_length = wire.polled[i].queue_length;
    rec.polled[i].age_ns = wire.polled[i].age_ns;
  }
  return rec;
}

/// One pull round trip on `socket`: sends a PullInquiry for `what` at
/// `offset` and waits until `deadline` for the Reply echoing its seq.
/// `sample` gets the local send/recv stamps bracketing the exchange.
/// Anything else arriving on the ephemeral socket is noise and skipped.
std::atomic<std::uint64_t> next_pull_seq{1};

template <class Reply>
std::optional<Reply> round_trip(net::UdpSocket& socket,
                                const net::Address& addr, net::PullKind what,
                                std::uint32_t offset, SimTime deadline,
                                net::ClockSample& sample) {
  net::PullInquiry inquiry;
  inquiry.seq = next_pull_seq.fetch_add(1, std::memory_order_relaxed);
  inquiry.what = what;
  inquiry.offset = offset;
  std::array<std::uint8_t, net::kMaxFixedMsgSize> out;
  const std::size_t n = inquiry.encode_into(out);
  sample.local_send_ns = net::monotonic_now();
  if (n == 0 || !socket.send_to({out.data(), n}, addr)) return std::nullopt;

  net::Poller poller;
  poller.add(socket.fd(), 0);
  std::vector<std::uint8_t> buf(64 * 1024);
  while (true) {
    const SimDuration remaining = deadline - net::monotonic_now();
    if (remaining <= 0) return std::nullopt;
    if (poller.wait(remaining).empty()) continue;
    while (const auto dgram = socket.recv_from(buf)) {
      Reply reply;
      if (Reply::try_decode({buf.data(), dgram->size}, reply) &&
          reply.seq == inquiry.seq) {
        sample.local_recv_ns = net::monotonic_now();
        return reply;
      }
    }
  }
}

/// Walks a node's ring chunk by chunk until a reply's records reach its
/// advertised total. The first chunk lost means the node is unreachable
/// (nullopt); a later one lost returns the prefix pulled so far, marked
/// incomplete, rather than discarding it (partial results on lossy links).
template <class Record>
std::optional<RingScrape<Record>> pull_ring(const net::Address& addr,
                                            SimDuration timeout) {
  using Pull = RingPull<Record>;
  const SimTime deadline = net::monotonic_now() + timeout;
  net::UdpSocket socket;
  RingScrape<Record> result;
  std::uint32_t offset = 0;
  while (true) {
    net::ClockSample sample{};
    const auto reply = round_trip<typename Pull::Reply>(
        socket, addr, Pull::kKind, offset, deadline, sample);
    if (!reply) {
      if (offset == 0) return std::nullopt;
      result.complete = false;
      return result;
    }
    sample.remote_ns = reply->server_ns;
    result.node = reply->node;
    result.clock_samples.push_back(sample);
    for (const auto& wire : reply->records) {
      result.records.push_back(from_wire(wire));
    }
    offset = reply->offset + static_cast<std::uint32_t>(reply->records.size());
    if (offset >= reply->total || reply->records.empty()) break;
  }
  return result;
}

/// One chunk of `records` starting at the inquiry's offset (clamped to the
/// total), stamped with the answering node's id and clock.
template <class Record>
typename RingPull<Record>::Reply ring_chunk(std::int32_t node,
                                            const net::PullInquiry& inquiry,
                                            const std::vector<Record>& records) {
  typename RingPull<Record>::Reply reply;
  reply.seq = inquiry.seq;
  reply.node = node;
  reply.server_ns = net::monotonic_now();
  reply.total = static_cast<std::uint32_t>(records.size());
  reply.offset = std::min(inquiry.offset, reply.total);
  const std::size_t end = std::min<std::size_t>(
      records.size(), reply.offset + RingPull<Record>::kMaxRecords);
  reply.records.reserve(end - reply.offset);
  for (std::size_t i = reply.offset; i < end; ++i) {
    reply.records.push_back(to_wire(records[i]));
  }
  return reply;
}

template <class Reply>
bool send_reply(const Reply& reply, net::UdpSocket& socket,
                const net::Address& to) {
  std::vector<std::uint8_t> buf(reply.encoded_size());
  const std::size_t n = reply.encode_into(buf);
  return n > 0 && socket.send_to({buf.data(), n}, to);
}

}  // namespace

std::optional<std::string> scrape_stats(const net::Address& addr,
                                        SimDuration timeout) {
  net::UdpSocket socket;
  net::ClockSample unused{};
  auto reply = round_trip<net::StatsReply>(socket, addr, net::PullKind::kStats,
                                           0, net::monotonic_now() + timeout,
                                           unused);
  if (!reply) return std::nullopt;
  return std::move(reply->payload);
}

std::vector<std::string> ClusterStatsScrape::answered_documents() const {
  std::vector<std::string> docs;
  docs.reserve(static_cast<std::size_t>(answered));
  for (const auto& doc : documents) {
    if (doc) docs.push_back(*doc);
  }
  return docs;
}

ClusterStatsScrape scrape_cluster_stats(
    const std::vector<net::Address>& load_addrs, SimDuration per_node_timeout,
    int retries_per_node) {
  ClusterStatsScrape result;
  result.documents.reserve(load_addrs.size());
  for (const net::Address& addr : load_addrs) {
    std::optional<std::string> doc;
    // Each attempt is a fresh inquiry on a fresh ephemeral socket — on a
    // lossy link a retry beats waiting longer for a datagram that is gone.
    for (int attempt = 0; attempt <= retries_per_node && !doc; ++attempt) {
      doc = scrape_stats(addr, per_node_timeout);
    }
    if (doc) {
      ++result.answered;
    } else {
      ++result.failed;
    }
    result.documents.push_back(std::move(doc));
  }
  return result;
}

std::optional<NodeTraceScrape> scrape_trace(const net::Address& addr,
                                            SimDuration timeout) {
  return pull_ring<TraceRecord>(addr, timeout);
}

std::optional<NodeDecisionScrape> scrape_decisions(const net::Address& addr,
                                                   SimDuration timeout) {
  return pull_ring<DecisionRecord>(addr, timeout);
}

PullEndpoint::PullEndpoint(std::int32_t node, std::string name,
                           Registry& registry, const TraceRing& trace,
                           const DecisionRing* decisions)
    : node_(node),
      name_(std::move(name)),
      registry_(registry),
      trace_(trace),
      decisions_(decisions),
      stats_scrapes_(registry.counter("stats_scrapes")) {}

std::string PullEndpoint::stats_json() const {
  return to_json(registry_.snapshot(name_), trace_.snapshot());
}

bool PullEndpoint::answer(const net::PullInquiry& inquiry,
                          net::UdpSocket& socket, const net::Address& to) {
  switch (inquiry.what) {
    case net::PullKind::kStats: {
      stats_scrapes_.inc();
      net::StatsReply reply;
      reply.seq = inquiry.seq;
      reply.payload = stats_json();
      return send_reply(reply, socket, to);
    }
    case net::PullKind::kTrace:
      return send_reply(ring_chunk(node_, inquiry, trace_.snapshot()), socket,
                        to);
    case net::PullKind::kDecisions:
      return send_reply(
          ring_chunk(node_, inquiry,
                     decisions_ != nullptr ? decisions_->snapshot()
                                           : std::vector<DecisionRecord>{}),
          socket, to);
  }
  return false;
}

}  // namespace finelb::telemetry
