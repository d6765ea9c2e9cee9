// Both ends of the observability pull channel (net::PullInquiry): the
// scrapers that ask a node for its stats document, its trace ring or its
// decision ring, and the PullEndpoint every node answers them with.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/time.h"
#include "core/selection.h"
#include "net/message.h"
#include "net/pingpong.h"
#include "net/socket.h"
#include "telemetry/decision.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace finelb::telemetry {

/// Pulls the stats document from `addr` (a server's load socket or a
/// client's service socket) and waits up to `timeout` for the matching
/// STATS_REPLY. Returns the JSON payload, or nullopt on timeout /
/// malformed reply. Cold path: allocates freely, creates its own socket.
std::optional<std::string> scrape_stats(const net::Address& addr,
                                        SimDuration timeout = 200 *
                                                              kMillisecond);

/// Lossy-link-hardened cluster scrape: every node gets its own inquiry and
/// per-node timeout, and a node that stays silent (or answers garbage)
/// costs one `failed` slot instead of sinking the whole scrape — the
/// partial document set is still returned in input order.
struct ClusterStatsScrape {
  /// One entry per requested address; nullopt where the node never answered.
  std::vector<std::optional<std::string>> documents;
  int answered = 0;
  int failed = 0;

  /// The answered documents, in input order (feed to cluster_to_json).
  std::vector<std::string> answered_documents() const;
};

ClusterStatsScrape scrape_cluster_stats(
    const std::vector<net::Address>& load_addrs,
    SimDuration per_node_timeout = 200 * kMillisecond,
    int retries_per_node = 1);

/// One node's ring pulled over the wire, plus the clock-sync samples each
/// chunked round trip yielded for free (every TRACE_REPLY and
/// DECISION_REPLY carries the answering node's monotonic clock — feed these
/// to ClockSync::add_sample).
template <class Record>
struct RingScrape {
  /// Node id the replies reported (-1 if the node didn't say).
  std::int32_t node = -1;
  std::vector<Record> records;
  std::vector<net::ClockSample> clock_samples;
  /// False when a later chunk timed out on a lossy link: `records` then
  /// holds the prefix pulled so far (still usable for merging — the caller
  /// just has fewer samples), rather than nothing at all.
  bool complete = true;
};

using NodeTraceScrape = RingScrape<TraceRecord>;
using NodeDecisionScrape = RingScrape<DecisionRecord>;

/// Pulls the full trace ring from `addr` in chunks (each reply stays under
/// the 64 KiB datagram cap). Returns nullopt only when the very first chunk
/// goes unanswered; a scrape cut short mid-walk returns the partial prefix
/// with `complete` false. Cold path: allocates freely, creates its own
/// socket.
std::optional<NodeTraceScrape> scrape_trace(const net::Address& addr,
                                            SimDuration timeout = 200 *
                                                                  kMillisecond);

/// Pulls the full decision ring from `addr` with the same chunking and
/// partial-result semantics as scrape_trace. Every node answers; only a
/// client keeps decisions, so a server's pull comes back empty.
std::optional<NodeDecisionScrape> scrape_decisions(
    const net::Address& addr, SimDuration timeout = 200 * kMillisecond);

/// The node side of the pull channel: answers every PullInquiry a node
/// receives from the node's registry and rings. Servers and clients each
/// own one and call answer() for the PullInquiry datagrams their sockets
/// receive. A node without a decision ring answers a decisions pull with
/// an empty, stamped reply.
class PullEndpoint {
 public:
  /// `name` labels the stats document (e.g. "server.3"). The registry and
  /// rings must outlive the endpoint.
  PullEndpoint(std::int32_t node, std::string name, Registry& registry,
               const TraceRing& trace,
               const DecisionRing* decisions = nullptr);

  /// The node's snapshot (+ sampled trace) as JSON — what a stats pull
  /// answers with.
  std::string stats_json() const;

  /// Sends the answer to `inquiry` to `to` through `socket`. Cold path:
  /// snapshots and allocates. The ring snapshot is re-taken per inquiry,
  /// so a scraper walking offsets sees a consistent total only while the
  /// ring is quiescent. Returns false when the reply was not sent (the
  /// kernel refused it, or the stats document outgrew the 64 KiB cap).
  bool answer(const net::PullInquiry& inquiry, net::UdpSocket& socket,
              const net::Address& to);

 private:
  std::int32_t node_;
  std::string name_;
  const Registry& registry_;
  const TraceRing& trace_;
  const DecisionRing* decisions_;
  Counter stats_scrapes_;
};

}  // namespace finelb::telemetry
