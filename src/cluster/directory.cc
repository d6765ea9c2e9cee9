#include "cluster/directory.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "net/clock.h"

namespace finelb::cluster {

// --------------------------------------------------------------------------
// DirectoryTable

void DirectoryTable::apply(net::Publish publish, SimTime now) {
  const auto ttl =
      static_cast<SimDuration>(publish.ttl_ms) * kMillisecond;
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry =
      entries_[Key{publish.service, publish.server, publish.partition}];
  entry.publish = std::move(publish);
  entry.expires_at = now + ttl;
  entry.grace = ttl / 4;
  republish_locked();
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const DirectoryTable::Snapshot> DirectoryTable::load_snapshot()
    const {
  // Lock-free read path; protocol documented at the member declarations.
  // The pin / re-check pair is seq_cst to close the Dekker race against
  // the writer's flip / drain pair: if the writer's drain loop missed this
  // pin, the total seq_cst order forces the re-check below to observe the
  // flipped version, so the reader retries instead of touching a slot the
  // writer is rewriting.
  for (;;) {
    const std::uint64_t v = version_.load(std::memory_order_acquire);
    const Slot& slot = slots_[v & 1];
    slot.readers.fetch_add(1, std::memory_order_seq_cst);
    if (version_.load(std::memory_order_seq_cst) == v) {
      std::shared_ptr<const Snapshot> snap = slot.snap;
      slot.readers.fetch_sub(1, std::memory_order_release);
      return snap;
    }
    // The writer advanced past v between our load and our pin; it may be
    // rewriting this slot already (it only drains readers that pinned
    // before its flip). Unpin and retry against the new active slot.
    slot.readers.fetch_sub(1, std::memory_order_release);
  }
}

std::vector<net::Publish> DirectoryTable::live_entries(
    const std::string& service, SimTime now) const {
  // Lock-free read: grab the current immutable snapshot and filter. See
  // the guard-discipline comment in the header. The grace term keeps a
  // server that refreshes exactly at ttl from flapping out for the one
  // read that races its refresh.
  const std::shared_ptr<const Snapshot> snap = load_snapshot();
  std::vector<net::Publish> out;
  for (const Entry& entry : *snap) {
    if (entry.expires_at + entry.grace <= now) continue;  // expired
    if (!service.empty() && entry.publish.service != service) continue;
    out.push_back(entry.publish);
  }
  return out;
}

void DirectoryTable::republish_locked() {
  auto next = std::make_shared<Snapshot>();
  next->reserve(entries_.size());
  for (const auto& [key, entry] : entries_) next->push_back(entry);
  // Install into the inactive slot, then flip. Writers are serialised by
  // mutex_ (we hold it here), so only readers contend. Draining waits for
  // readers that pinned this slot at least two flips ago — each is mid
  // shared_ptr copy, so the spin is bounded by that copy, not by how long
  // callers keep the returned snapshot alive.
  const std::uint64_t v = version_.load(std::memory_order_relaxed);
  Slot& slot = slots_[(v + 1) & 1];
  while (slot.readers.load(std::memory_order_seq_cst) != 0) {
    // A stale reader is still unpinning; its fetch_sub(release) below
    // synchronises with this acquire-or-stronger load, so the write to
    // slot.snap cannot race the reader's copy.
  }
  slot.snap = std::shared_ptr<const Snapshot>(std::move(next));
  version_.store(v + 1, std::memory_order_seq_cst);
}

// --------------------------------------------------------------------------
// DirectoryServer

DirectoryServer::DirectoryServer() { socket_.set_buffer_sizes(1 << 20); }

DirectoryServer::~DirectoryServer() { stop(); }

void DirectoryServer::start() {
  FINELB_CHECK(!running_.exchange(true), "directory already started");
  stop_.reset();
  thread_ = std::thread([this] { recv_loop(); });
}

void DirectoryServer::stop() {
  if (!running_.exchange(false)) return;
  stop_.notify();
  if (thread_.joinable()) thread_.join();
}

net::Address DirectoryServer::address() const {
  return socket_.local_address();
}

std::vector<net::Publish> DirectoryServer::live_entries(
    const std::string& service) const {
  return table_.live_entries(service, net::monotonic_now());
}

void DirectoryServer::recv_loop() {
  net::Poller poller;
  poller.add(socket_.fd(), 0);
  poller.add(stop_.fd(), 1);
  std::array<std::uint8_t, 2048> buf{};
  while (running_.load(std::memory_order_relaxed)) {
    poller.wait(-1);  // until a datagram arrives or stop() fires
    while (auto dgram = socket_.recv_from(buf)) {
      const std::span<const std::uint8_t> data(buf.data(), dgram->size);
      if (data.empty()) continue;  // peek_type throws on empty datagrams
      switch (net::peek_type(data)) {
        case net::MsgType::kPublish: {
          net::Publish publish;
          if (!net::Publish::try_decode(data, publish)) {
            FINELB_LOG(kWarn, "directory") << "dropping malformed publish";
            break;
          }
          table_.apply(std::move(publish), net::monotonic_now());
          break;
        }
        case net::MsgType::kSnapshotRequest: {
          net::SnapshotRequest request;
          if (!net::SnapshotRequest::try_decode(data, request)) {
            FINELB_LOG(kWarn, "directory") << "dropping malformed snapshot "
                                              "request";
            break;
          }
          net::SnapshotReply reply;
          reply.seq = request.seq;
          reply.entries = live_entries(request.service);
          socket_.send_to(reply.encode(), dgram->from);
          break;
        }
        default:
          FINELB_LOG(kWarn, "directory") << "unexpected message type";
      }
    }
  }
}

// --------------------------------------------------------------------------
// DirectoryClient

DirectoryClient::DirectoryClient(const net::Address& directory,
                                 std::uint64_t seed)
    : DirectoryClient(std::vector<net::Address>{directory}, seed) {}

DirectoryClient::DirectoryClient(std::vector<net::Address> replicas,
                                 std::uint64_t seed)
    : replicas_(std::move(replicas)), rng_(seed) {
  FINELB_CHECK(!replicas_.empty(), "directory client needs >= 1 replica");
  socket_.connect(replicas_[0]);
  poller_.add(socket_.fd(), 0);
}

void DirectoryClient::attach_fault_injector(
    std::shared_ptr<fault::FaultInjector> injector) {
  socket_.attach_fault_injector(std::move(injector));
}

void DirectoryClient::reconnect(const net::Address& addr) {
  // POSIX allows re-connecting a UDP socket; the fd (and thus poller_
  // registration) is unchanged, only the peer filter moves.
  socket_.connect(addr);
}

std::optional<std::vector<ServiceEndpoint>> DirectoryClient::try_fetch(
    const std::string& service, SimDuration timeout) {
  const SimTime deadline = net::monotonic_now() + timeout;
  // Retransmit with exponential backoff: 100 ms base doubling to an 800 ms
  // cap, each interval jittered by +/-25% so a fleet of clients recovering
  // from a directory outage does not resynchronize into bursts. Each
  // unanswered slice rotates to the next replica before retransmitting.
  SimDuration backoff = 100 * kMillisecond;
  constexpr SimDuration kBackoffCap = 800 * kMillisecond;
  bool first_send = true;
  while (net::monotonic_now() < deadline) {
    net::SnapshotRequest request;
    request.seq = next_seq_++;
    request.service = service;
    socket_.send(request.encode());
    if (!first_send) snapshot_retries_.fetch_add(1, std::memory_order_relaxed);
    first_send = false;
    const auto jittered = static_cast<SimDuration>(
        static_cast<double>(backoff) * rng_.uniform(0.75, 1.25));
    backoff = std::min<SimDuration>(backoff * 2, kBackoffCap);
    const SimTime retry_at =
        std::min<SimTime>(deadline, net::monotonic_now() + jittered);
    bool redirected = false;
    while (!redirected && net::monotonic_now() < retry_at) {
      poller_.wait(retry_at - net::monotonic_now());
      while (!redirected) {
        const auto size = socket_.recv(recv_buf_);
        if (!size) break;
        const std::span<const std::uint8_t> data(recv_buf_.data(), *size);
        if (data.empty()) continue;
        switch (net::peek_type(data)) {
          case net::MsgType::kSnapshotReply: {
            if (!net::SnapshotReply::try_decode(data, reply_)) {
              continue;  // malformed; keep waiting
            }
            if (reply_.seq != request.seq) continue;  // stale reply
            std::vector<ServiceEndpoint> endpoints;
            endpoints.reserve(reply_.entries.size());
            for (const auto& entry : reply_.entries) {
              endpoints.push_back({entry.server, entry.partition,
                                   net::Address::loopback(entry.service_port),
                                   net::Address::loopback(entry.load_port)});
            }
            last_snapshot_ = endpoints;
            last_snapshot_at_ = net::monotonic_now();
            return endpoints;
          }
          case net::MsgType::kRedirect: {
            net::Redirect redirect;
            if (!net::Redirect::try_decode(data, redirect)) continue;
            if (redirect.seq != request.seq) continue;  // stale redirect
            if (redirect.leader_port == 0) {
              // Election in progress: the follower knows no leader yet.
              // Keep waiting out this slice, then rotate as usual.
              continue;
            }
            redirects_followed_.fetch_add(1, std::memory_order_relaxed);
            reconnect(net::Address::loopback(redirect.leader_port));
            redirected = true;  // retransmit immediately to the leader
            break;
          }
          default:
            continue;  // not ours (e.g. a late reply type we don't know)
        }
      }
    }
    if (!redirected && replicas_.size() > 1 &&
        net::monotonic_now() < deadline) {
      // This replica stayed silent for a whole backoff slice: it is dead,
      // partitioned, or mid-election. Rotate and try its neighbour.
      current_ = (current_ + 1) % replicas_.size();
      reconnect(replicas_[current_]);
      failovers_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return std::nullopt;
}

std::vector<ServiceEndpoint> DirectoryClient::fetch(const std::string& service,
                                                    SimDuration timeout) {
  auto endpoints = try_fetch(service, timeout);
  FINELB_CHECK(endpoints.has_value(),
               "directory did not answer snapshot request");
  return std::move(*endpoints);
}

std::vector<ServiceEndpoint> DirectoryClient::wait_for_servers(
    const std::string& service, std::size_t min_servers,
    SimDuration deadline_from_now) {
  const SimTime deadline = net::monotonic_now() + deadline_from_now;
  std::vector<ServiceEndpoint> endpoints;
  // Servers announce themselves within a millisecond or two of start(), so
  // re-fetch quickly at first and back off (1 ms doubling to 20 ms) only
  // if they are slow to show up.
  SimDuration pause = kMillisecond;
  constexpr SimDuration kPauseCap = 20 * kMillisecond;
  for (;;) {
    if (auto got = try_fetch(service)) endpoints = std::move(*got);
    const SimTime now = net::monotonic_now();
    if (endpoints.size() >= min_servers || now >= deadline) {
      return endpoints;
    }
    net::sleep_until(std::min(now + pause, deadline));
    pause = std::min(pause * 2, kPauseCap);
  }
}

}  // namespace finelb::cluster
