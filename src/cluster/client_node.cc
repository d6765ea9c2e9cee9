#include "cluster/client_node.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "common/log.h"
#include "net/clock.h"
#include "net/message.h"
#include "telemetry/export.h"

namespace finelb::cluster {
namespace {
constexpr std::uint64_t kServiceTag = 0;
constexpr std::uint64_t kManagerTag = 1;
constexpr std::uint64_t kBroadcastTag = 2;
constexpr std::uint64_t kPollTagBase = 1000;
constexpr std::uint32_t kSubscribeTtlMs = 5000;
/// A burst of dispatches in one pass of the loop (an arrival backlog, or
/// poll rounds expiring together after a stall) reads the service socket
/// after every this many: zero-service servers answer as fast as requests go
/// out, and unread answers past the receive buffer are dropped.
constexpr std::int64_t kDispatchesPerDrain = 64;

// Encodes a fixed-size message onto the stack and sends it; no heap
// traffic, unlike msg.encode() which materialises a vector per send.
template <class Msg, class Send>
bool send_fixed(const Msg& msg, Send&& send) {
  std::array<std::uint8_t, net::kMaxFixedMsgSize> buf;
  const std::size_t n = msg.encode_into(buf);
  return send(std::span<const std::uint8_t>(buf.data(), n));
}
}  // namespace

void ClientStats::merge(const ClientStats& other) {
  response_ms.merge(other.response_ms);
  response_hist_ms.merge(other.response_hist_ms);
  poll_time_ms.merge(other.poll_time_ms);
  poll_rtt_ms.merge(other.poll_rtt_ms);
  queue_at_arrival.merge(other.queue_at_arrival);
  issued += other.issued;
  completed += other.completed;
  recorded += other.recorded;
  polls_sent += other.polls_sent;
  poll_replies_used += other.poll_replies_used;
  polls_discarded += other.polls_discarded;
  polls_timed_out += other.polls_timed_out;
  manager_timeouts += other.manager_timeouts;
  response_timeouts += other.response_timeouts;
  send_failures += other.send_failures;
  broadcasts_received += other.broadcasts_received;
  fallback_dispatches += other.fallback_dispatches;
  access_retries += other.access_retries;
  blacklist_insertions += other.blacklist_insertions;
  blacklist_hits += other.blacklist_hits;
  mapping_refreshes += other.mapping_refreshes;
  refresh_failures += other.refresh_failures;
  snapshot_retries += other.snapshot_retries;
  directory_failovers += other.directory_failovers;
  directory_redirects += other.directory_redirects;
  if (timeline.size() < other.timeline.size()) {
    timeline.resize(other.timeline.size());
  }
  for (std::size_t i = 0; i < other.timeline.size(); ++i) {
    timeline[i].completed += other.timeline[i].completed;
    timeline[i].failed += other.timeline[i].failed;
    timeline[i].sum_response_ms += other.timeline[i].sum_response_ms;
  }
}

ClientNode::ClientNode(ClientOptions options,
                       std::unique_ptr<RequestSource> source)
    : options_(std::move(options)),
      source_(std::move(source)),
      rng_(options_.seed),
      polls_(options_.policy, options_.max_poll_wait),
      trace_(options_.trace_capacity == 0 ? 1 : options_.trace_capacity,
             options_.trace_sample_period),
      decision_ring_(
          options_.decision_capacity == 0 ? 1 : options_.decision_capacity,
          options_.decision_sample_period) {
  FINELB_CHECK(!options_.servers.empty(), "client needs at least one server");
  FINELB_CHECK(options_.total_requests > 0, "nothing to do");
  FINELB_CHECK(source_ != nullptr, "client needs a request source");
  if (options_.policy.kind == PolicyKind::kIdeal) {
    FINELB_CHECK(options_.ideal_manager.has_value(),
                 "ideal policy requires a load-index manager address");
  }
  if (options_.policy.kind == PolicyKind::kBroadcast) {
    FINELB_CHECK(options_.broadcast_channel.has_value(),
                 "broadcast policy requires a broadcast channel address");
  }

  m_issued_ = metrics_.counter("requests_issued");
  m_completed_ = metrics_.counter("requests_completed");
  m_polls_sent_ = metrics_.counter("polls_sent");
  m_polls_discarded_ = metrics_.counter("polls_discarded");
  m_polls_timed_out_ = metrics_.counter("polls_timed_out");
  m_fallback_dispatches_ = metrics_.counter("fallback_dispatches");
  m_response_timeouts_ = metrics_.counter("response_timeouts");
  m_send_failures_ = metrics_.counter("send_failures");
  m_blacklist_insertions_ = metrics_.counter("blacklist_insertions");
  m_blacklist_hits_ = metrics_.counter("blacklist_hits");
  m_poll_rtt_ms_ = metrics_.histogram("poll_rtt_ms");
  m_response_time_ms_ = metrics_.histogram("response_time_ms");
  m_poll_time_ms_ = metrics_.histogram("poll_time_ms");
  // In-flight depth as a plain gauge (issued - resolved), not a probe into
  // the event loop's vectors: probes run on the scraping thread, and the
  // round/outstanding containers are loop-private. Counter subtraction keeps
  // the scrape race-free.
  metrics_.probe("requests_in_flight", [this] {
    return m_in_flight_.load(std::memory_order_relaxed);
  });

  server_ids_.reserve(options_.servers.size());
  for (const auto& server : options_.servers) {
    server_ids_.push_back(server.id);
  }
  endpoint_live_.assign(options_.servers.size(), 1);
  consecutive_timeouts_.assign(options_.servers.size(), 0);

  service_socket_.set_buffer_sizes(1 << 21);
  service_socket_.attach_fault_injector(options_.fault);
  poller_.add(service_socket_.fd(), kServiceTag);

  poll_sockets_.reserve(options_.servers.size());
  for (std::size_t i = 0; i < options_.servers.size(); ++i) {
    poll_sockets_.emplace_back();
    // A poll burst from every server lands here between two drains; the
    // default ~208 KiB (about 250 datagrams) overflows when the client
    // thread is descheduled.
    poll_sockets_.back().set_buffer_sizes(1 << 21);
    poll_sockets_.back().connect(options_.servers[i].load_addr);
    poll_sockets_.back().attach_fault_injector(options_.fault);
    poller_.add(poll_sockets_.back().fd(), kPollTagBase + i);
  }

  if ((options_.directory || !options_.directory_replicas.empty()) &&
      options_.mapping_refresh > 0) {
    std::vector<net::Address> replicas = options_.directory_replicas;
    if (replicas.empty()) replicas.push_back(*options_.directory);
    directory_client_ = std::make_unique<DirectoryClient>(
        std::move(replicas), options_.seed + 77);
    directory_client_->attach_fault_injector(options_.fault);
    mapping_refresh_interval_ = options_.mapping_refresh;
  }

  if (options_.ideal_manager) {
    manager_socket_ = std::make_unique<net::UdpSocket>();
    manager_socket_->connect(*options_.ideal_manager);
    poller_.add(manager_socket_->fd(), kManagerTag);
  }

  if (options_.broadcast_channel) {
    broadcast_socket_ = std::make_unique<net::UdpSocket>();
    broadcast_socket_->set_buffer_sizes(1 << 21);
    broadcast_socket_->connect(*options_.broadcast_channel);
    poller_.add(broadcast_socket_->fd(), kBroadcastTag);
    broadcast_table_ = std::make_unique<LoadCache>(options_.servers.size());
    for (std::size_t i = 0; i < options_.servers.size(); ++i) {
      // ServerLoad.server holds the endpoint *index* (as in poll replies).
      broadcast_table_->store(i, {static_cast<ServerId>(i), 0, 0});
    }
    net::Subscribe subscribe;
    subscribe.ttl_ms = kSubscribeTtlMs;
    if (!send_fixed(subscribe, [&](auto p) { return broadcast_socket_->send(p); })) {
      bump(stats_.send_failures, m_send_failures_);
    }
    subscribe_refresh_at_ =
        net::monotonic_now() +
        static_cast<SimDuration>(kSubscribeTtlMs / 2) * kMillisecond;
  }
}

void ClientNode::run() {
  TraceRecord pending = source_->next();
  run_started_at_ = net::monotonic_now();
  SimTime next_arrival = run_started_at_ + pending.arrival_interval;
  next_mapping_refresh_ = run_started_at_ + mapping_refresh_interval_;

  while (resolved_ < options_.total_requests) {
    SimTime now = net::monotonic_now();

    // Re-pull the service mapping so endpoints whose soft state expired
    // stop receiving work (failure hardening; off unless configured).
    if (directory_client_ && now >= next_mapping_refresh_) {
      refresh_mapping(now);
      now = net::monotonic_now();
    }

    // Keep the broadcast-channel subscription alive (soft state).
    if (broadcast_socket_ && now >= subscribe_refresh_at_) {
      net::Subscribe subscribe;
      subscribe.ttl_ms = kSubscribeTtlMs;
      if (!send_fixed(subscribe,
                      [&](auto p) { return broadcast_socket_->send(p); })) {
        bump(stats_.send_failures, m_send_failures_);
      }
      subscribe_refresh_at_ =
          now + static_cast<SimDuration>(kSubscribeTtlMs / 2) * kMillisecond;
    }

    // Fire due arrivals (possibly several if the loop fell behind).
    std::int64_t fired = 0;
    while (stats_.issued < options_.total_requests && next_arrival <= now) {
      if (++fired % kDispatchesPerDrain == 0) drain_service_socket();
      Access access;
      access.index = stats_.issued;
      bump(stats_.issued, m_issued_);
      access.started_at = now;
      access.service_us = static_cast<std::uint32_t>(
          pending.service_time / kMicrosecond);
      begin_access(access);
      pending = source_->next();
      next_arrival += pending.arrival_interval;
      now = net::monotonic_now();
    }

    fire_deadlines(now);

    // Wait for the earliest of: next arrival, any round/response deadline.
    const auto deadline = next_deadline(
        stats_.issued < options_.total_requests ? next_arrival : -1);
    SimDuration wait = 100 * kMillisecond;
    if (deadline) {
      wait = std::clamp<SimDuration>(*deadline - net::monotonic_now(), 0,
                                     wait);
    }
    for (const net::Ready& ready : poller_.wait(wait)) {
      if (!ready.readable && !ready.error) continue;
      if (ready.tag == kServiceTag) {
        drain_service_socket();
      } else if (ready.tag == kManagerTag) {
        drain_manager_socket();
      } else if (ready.tag == kBroadcastTag) {
        drain_broadcast_socket();
      } else {
        drain_poll_socket(static_cast<std::size_t>(ready.tag - kPollTagBase));
      }
    }
  }
}

void ClientNode::refresh_mapping(SimTime now) {
  ++stats_.mapping_refreshes;
  // Non-throwing fetch: a refresh that straddles a directory election (or
  // outage) must degrade to the stale-but-recent mapping we already hold,
  // not tear down the whole client.
  auto fetched = directory_client_->try_fetch(options_.directory_service,
                                              /*timeout=*/200 * kMillisecond);
  if (!fetched) {
    ++stats_.refresh_failures;
    // Directory outage: back off (with jitter) instead of hammering it —
    // doubled interval, capped at 8x the configured period.
    mapping_refresh_interval_ = std::min<SimDuration>(
        mapping_refresh_interval_ * 2, options_.mapping_refresh * 8);
  } else {
    const std::vector<ServiceEndpoint>& snapshot = *fetched;
    mapping_refresh_interval_ = options_.mapping_refresh;
    std::fill(endpoint_live_.begin(), endpoint_live_.end(), 0);
    for (const auto& entry : snapshot) {
      for (std::size_t i = 0; i < options_.servers.size(); ++i) {
        if (options_.servers[i].id == entry.server) {
          endpoint_live_[i] = 1;
          break;
        }
      }
    }
    // An empty snapshot means the directory lost *all* soft state (e.g. it
    // restarted); treat everyone as live rather than dispatching nowhere.
    bool any = false;
    for (const std::uint8_t live : endpoint_live_) any |= live != 0;
    if (!any) std::fill(endpoint_live_.begin(), endpoint_live_.end(), 1);
  }
  stats_.snapshot_retries = directory_client_->snapshot_retries();
  stats_.directory_failovers = directory_client_->failovers();
  stats_.directory_redirects = directory_client_->redirects_followed();
  const double jitter = rng_.uniform(0.75, 1.25);
  next_mapping_refresh_ =
      now + static_cast<SimDuration>(
                static_cast<double>(mapping_refresh_interval_) * jitter);
}

std::span<const ServerId> ClientNode::candidate_indices(SimTime now) {
  std::vector<ServerId>& live = candidate_scratch_;
  live.clear();
  for (std::size_t i = 0; i < options_.servers.size(); ++i) {
    if (endpoint_live_[i]) live.push_back(static_cast<ServerId>(i));
  }
  if (live.empty()) {
    for (std::size_t i = 0; i < options_.servers.size(); ++i) {
      live.push_back(static_cast<ServerId>(i));
    }
  }
  if (options_.blacklist_cooldown > 0) {
    const std::int64_t hits_before = blacklist_.hits();
    blacklist_.filter_in_place(live, now);
    bump(stats_.blacklist_hits, m_blacklist_hits_,
         blacklist_.hits() - hits_before);
  }
  return live;
}

void ClientNode::mark_failed(std::size_t server_index, SimTime now) {
  if (options_.blacklist_cooldown <= 0) return;
  if (++consecutive_timeouts_[server_index] >= options_.blacklist_after) {
    blacklist_.add(server_index, now + options_.blacklist_cooldown);
    bump(stats_.blacklist_insertions, m_blacklist_insertions_);
  }
}

void ClientNode::record_outcome(SimTime now, bool completed,
                                double response_ms) {
  if (options_.timeline_bucket <= 0) return;
  const auto bucket = static_cast<std::size_t>(
      std::max<SimTime>(now - run_started_at_, 0) / options_.timeline_bucket);
  if (stats_.timeline.size() <= bucket) stats_.timeline.resize(bucket + 1);
  if (completed) {
    ++stats_.timeline[bucket].completed;
    stats_.timeline[bucket].sum_response_ms += response_ms;
  } else {
    ++stats_.timeline[bucket].failed;
  }
}

void ClientNode::begin_access(const Access& access) {
  m_in_flight_.fetch_add(1, std::memory_order_relaxed);
  if (trace_.sampled(static_cast<std::uint64_t>(access.index))) {
    trace_.record(request_key(access.index),
                  telemetry::TracePoint::kClientEnqueue, /*node=*/-1,
                  access.started_at, access.service_us);
  }
  switch (options_.policy.kind) {
    case PolicyKind::kRandom: {
      const auto candidates = candidate_indices(access.started_at);
      dispatch(access, static_cast<std::size_t>(
                           pick_random(candidates, rng_)));
      break;
    }
    case PolicyKind::kRoundRobin: {
      const ServerId id = rr_.next(server_ids_);
      for (std::size_t i = 0; i < server_ids_.size(); ++i) {
        if (server_ids_[i] == id) {
          dispatch(access, i);
          break;
        }
      }
      break;
    }
    case PolicyKind::kPolling:
      start_poll_round(access);
      break;
    case PolicyKind::kIdeal: {
      const std::uint64_t seq = next_seq_++;
      net::Acquire acquire;
      acquire.seq = seq;
      if (!send_fixed(acquire,
                      [&](auto p) { return manager_socket_->send(p); })) {
        bump(stats_.send_failures, m_send_failures_);
        ++stats_.manager_timeouts;
        dispatch(access, rng_.uniform_int(options_.servers.size()));
        return;
      }
      ManagerRound round;
      round.seq = seq;
      round.access = access;
      round.deadline = access.started_at + options_.manager_timeout;
      manager_rounds_.push_back(round);
      break;
    }
    case PolicyKind::kBroadcast: {
      broadcast_table_->snapshot(load_scratch_);
      const ServerId index = pick_least_loaded(load_scratch_, rng_);
      if (options_.policy.optimistic_increment) {
        ServerLoad entry =
            broadcast_table_->load(static_cast<std::size_t>(index));
        ++entry.queue_length;
        broadcast_table_->store(static_cast<std::size_t>(index), entry);
      }
      dispatch(access, static_cast<std::size_t>(index));
      break;
    }
  }
}

void ClientNode::start_poll_round(const Access& access) {
  const std::uint64_t seq = next_seq_++;
  // Choose poll targets as indices into the endpoint table, restricted to
  // endpoints currently believed live (mapping + blacklist).
  core::PollRound& round = polls_.begin(
      seq, candidate_indices(access.started_at),
      static_cast<std::size_t>(options_.policy.poll_size), access.started_at,
      rng_);

  net::LoadInquiry inquiry;
  inquiry.seq = seq;
  const bool traced = trace_.sampled(static_cast<std::uint64_t>(access.index));
  if (traced) {
    // Propagate the trace context: the server answers a traced inquiry with
    // a kLoadReplied record under the same id, pinning t_reply on its clock.
    inquiry.trace_id = request_key(access.index);
    inquiry.origin_ns = access.started_at;
  }
  std::array<std::uint8_t, net::kMaxFixedMsgSize> buf;
  const std::size_t n = inquiry.encode_into(buf);
  const std::span<const std::uint8_t> payload(buf.data(), n);
  for (const ServerId target : round.targets()) {
    if (poll_sockets_[static_cast<std::size_t>(target)].send(payload)) {
      bump(stats_.polls_sent, m_polls_sent_);
    } else {
      bump(stats_.send_failures, m_send_failures_);
    }
  }
  if (traced) {
    trace_.record(request_key(access.index),
                  telemetry::TracePoint::kPollSent, /*node=*/-1,
                  access.started_at,
                  static_cast<std::int64_t>(round.targets().size()));
  }
  poll_rounds_.push_back({&round, access});
}

void ClientNode::finish_poll_round(std::size_t index) {
  core::PollRound& round = *poll_rounds_[index].round;
  const Access access = poll_rounds_[index].access;
  // Swap-remove before dispatch(), which may itself touch the round list.
  poll_rounds_[index] = poll_rounds_.back();
  poll_rounds_.pop_back();
  const SimTime now = net::monotonic_now();
  if (should_record(access)) {
    record(stats_.poll_time_ms, m_poll_time_ms_,
           to_ms(now - access.started_at));
  }
  // Audit context: the decision lands in the ring keyed by the same request
  // id as the trace records, so the post-run join can look up what actually
  // happened to it.
  DecisionContext ctx;
  ctx.request_id = request_key(access.index);
  ctx.now_ns = now;
  ctx.sink = decision_ring_.sampled(static_cast<std::uint64_t>(access.index))
                 ? decision_ring_.sink()
                 : nullptr;
  // Blind fallback pool: the current candidate set rather than the polled
  // targets — if the targets were since blacklisted or dropped from the
  // mapping, re-picking among them would just hit the same dead servers.
  // Built only when no reply arrived, the one case a blind pick can occur.
  std::span<const ServerId> fallback;
  if (round.replies().empty()) {
    const std::int64_t hits_before = blacklist_.hits();
    fallback = candidate_indices(now);
    ctx.blacklist_filtered = static_cast<std::uint8_t>(
        std::clamp<std::int64_t>(blacklist_.hits() - hits_before, 0, 255));
  }
  // Replies carry endpoint *indices* (see drain_poll_socket), so the
  // decision is directly usable.
  const core::PollDecision decision =
      polls_.decide(round, now, fallback, rng_, ctx);
  if (decision.blind) {
    bump(stats_.fallback_dispatches, m_fallback_dispatches_);
  } else {
    stats_.poll_replies_used += static_cast<std::int64_t>(decision.replies);
  }
  if (trace_.sampled(static_cast<std::uint64_t>(access.index))) {
    trace_.record(request_key(access.index),
                  telemetry::TracePoint::kServerPick,
                  static_cast<std::int32_t>(decision.server), now,
                  static_cast<std::int64_t>(decision.replies));
  }
  dispatch(access, static_cast<std::size_t>(decision.server));
}

void ClientNode::dispatch(const Access& access, std::size_t server_index,
                          bool manager_acquired) {
  const std::uint64_t request_id = request_key(access.index);
  net::ServiceRequest request;
  request.request_id = request_id;
  request.service_us = access.service_us;
  request.partition = 0;
  const auto dest = options_.servers[server_index].service_addr;
  if (trace_.sampled(static_cast<std::uint64_t>(access.index))) {
    const SimTime now = net::monotonic_now();
    // Propagated context: the server traces kServiceStart/kResponse under
    // the same id regardless of its own sampling period.
    request.trace_id = request_id;
    request.origin_ns = now;
    trace_.record(request_id, telemetry::TracePoint::kDispatch,
                  static_cast<std::int32_t>(server_index), now,
                  access.attempt);
  }
  if (!send_fixed(request,
                  [&](auto p) { return service_socket_.send_to(p, dest); })) {
    bump(stats_.send_failures, m_send_failures_);
    // Counts as a failed access.
    bump(stats_.response_timeouts, m_response_timeouts_);
    ++resolved_;
    m_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    record_outcome(net::monotonic_now(), /*completed=*/false, 0.0);
    if (manager_acquired) release_manager_slot(server_index);
    return;
  }
  Outstanding out;
  out.request_id = request_id;
  out.access = access;
  out.server_index = server_index;
  out.deadline = net::monotonic_now() + options_.response_timeout;
  out.manager_acquired = manager_acquired;
  outstanding_.push_back(out);
}

void ClientNode::drain_service_socket() {
  while (service_socket_.recv_batch(recv_batch_) > 0) {
    for (std::size_t d = 0; d < recv_batch_.size(); ++d) {
      net::ServiceResponse response;
      if (!net::ServiceResponse::try_decode(recv_batch_.payload(d),
                                            response)) {
        // The service socket doubles as the decision-scrape endpoint:
        // clients own no load socket, so DECISION_INQUIRY pulls land here.
        net::DecisionInquiry inquiry;
        if (net::DecisionInquiry::try_decode(recv_batch_.payload(d),
                                             inquiry)) {
          answer_decision_inquiry(inquiry.seq, inquiry.offset,
                                  recv_batch_.address(d));
        }
        continue;
      }
      std::size_t idx = outstanding_.size();
      for (std::size_t i = 0; i < outstanding_.size(); ++i) {
        if (outstanding_[i].request_id == response.request_id) {
          idx = i;
          break;
        }
      }
      if (idx == outstanding_.size()) continue;  // answered after timeout
      const Outstanding& out = outstanding_[idx];
      const SimTime now = net::monotonic_now();
      const double rt_ms = to_ms(now - out.access.started_at);
      if (should_record(out.access)) {
        record(stats_.response_ms, m_response_time_ms_, rt_ms);
        stats_.response_hist_ms.add(rt_ms);
        stats_.queue_at_arrival.add(response.queue_at_arrival);
        ++stats_.recorded;
      }
      if (trace_.sampled(static_cast<std::uint64_t>(out.access.index))) {
        trace_.record(request_key(out.access.index),
                      telemetry::TracePoint::kResponse,
                      static_cast<std::int32_t>(out.server_index), now,
                      response.queue_at_arrival);
      }
      record_outcome(now, /*completed=*/true, rt_ms);
      consecutive_timeouts_[out.server_index] = 0;
      bump(stats_.completed, m_completed_);
      ++resolved_;
      m_in_flight_.fetch_sub(1, std::memory_order_relaxed);
      if (out.manager_acquired) release_manager_slot(out.server_index);
      outstanding_[idx] = outstanding_.back();
      outstanding_.pop_back();
    }
  }
}

void ClientNode::answer_decision_inquiry(std::uint64_t seq,
                                         std::uint32_t offset,
                                         const net::Address& to) {
  // Cold path (allocates), mirroring the server's trace inquiry answer: the
  // ring is snapshotted per inquiry and returned one chunk at a time, so a
  // scraper walking offsets sees a consistent total only while the ring is
  // quiescent — fine for the post-run pull this serves.
  const std::vector<DecisionRecord> records = decision_ring_.snapshot();
  net::DecisionReply reply;
  reply.seq = seq;
  reply.node = options_.id;
  reply.server_ns = net::monotonic_now();
  reply.total = static_cast<std::uint32_t>(records.size());
  reply.offset = std::min(offset, reply.total);
  const std::size_t end = std::min<std::size_t>(
      records.size(), reply.offset + net::kDecisionReplyMaxRecords);
  reply.records.reserve(end - reply.offset);
  for (std::size_t i = reply.offset; i < end; ++i) {
    const DecisionRecord& rec = records[i];
    net::DecisionRecordWire wire;
    wire.request_id = rec.request_id;
    wire.at_ns = rec.at_ns;
    wire.chosen = rec.chosen;
    wire.polled_count = rec.polled_count;
    wire.flags = rec.blind_fallback ? 1 : 0;
    wire.blacklist_filtered = rec.blacklist_filtered;
    for (std::size_t p = 0;
         p < rec.polled_count && p < net::kDecisionWirePollMax; ++p) {
      wire.polled[p].server = rec.polled[p].server;
      wire.polled[p].queue_length = rec.polled[p].queue_length;
      wire.polled[p].age_ns = rec.polled[p].age_ns;
    }
    reply.records.push_back(wire);
  }
  std::vector<std::uint8_t> buf(reply.encoded_size());
  const std::size_t n = reply.encode_into(buf);
  if (n == 0 || !service_socket_.send_to({buf.data(), n}, to)) {
    bump(stats_.send_failures, m_send_failures_);
  }
}

void ClientNode::drain_manager_socket() {
  std::array<std::uint8_t, 64> buf{};
  while (auto size = manager_socket_->recv(buf)) {
    net::AcquireReply reply;
    if (!net::AcquireReply::try_decode(std::span(buf.data(), *size), reply)) {
      continue;
    }
    std::size_t idx = manager_rounds_.size();
    for (std::size_t i = 0; i < manager_rounds_.size(); ++i) {
      if (manager_rounds_[i].seq == reply.seq) {
        idx = i;
        break;
      }
    }
    if (idx == manager_rounds_.size()) continue;  // fallback already taken
    const Access access = manager_rounds_[idx].access;
    manager_rounds_[idx] = manager_rounds_.back();
    manager_rounds_.pop_back();
    // Map the manager's server id back to an endpoint index.
    std::size_t index = options_.servers.size();
    for (std::size_t i = 0; i < options_.servers.size(); ++i) {
      if (options_.servers[i].id == reply.server) {
        index = i;
        break;
      }
    }
    if (index == options_.servers.size()) {
      FINELB_LOG(kWarn, "client") << "manager chose unknown server "
                                  << reply.server;
      index = rng_.uniform_int(options_.servers.size());
    }
    if (should_record(access)) {
      record(stats_.poll_time_ms, m_poll_time_ms_,
             to_ms(net::monotonic_now() - access.started_at));
    }
    dispatch(access, index, /*manager_acquired=*/true);
  }
}

void ClientNode::drain_broadcast_socket() {
  std::array<std::uint8_t, 64> buf{};
  while (auto size = broadcast_socket_->recv(buf)) {
    net::LoadAnnounce announcement;
    if (!net::LoadAnnounce::try_decode(std::span(buf.data(), *size),
                                       announcement)) {
      continue;
    }
    for (std::size_t i = 0; i < options_.servers.size(); ++i) {
      if (options_.servers[i].id == announcement.server) {
        broadcast_table_->store(i, {static_cast<ServerId>(i),
                                    announcement.queue_length,
                                    net::monotonic_now()});
        ++stats_.broadcasts_received;
        break;
      }
    }
  }
}

void ClientNode::drain_poll_socket(std::size_t server_index) {
  while (poll_sockets_[server_index].recv_batch(recv_batch_) > 0) {
    for (std::size_t d = 0; d < recv_batch_.size(); ++d) {
      net::LoadReply reply;
      if (!net::LoadReply::try_decode(recv_batch_.payload(d), reply)) {
        continue;
      }
      std::size_t idx = poll_rounds_.size();
      for (std::size_t i = 0; i < poll_rounds_.size(); ++i) {
        if (poll_rounds_[i].round->id() == reply.seq) {
          idx = i;
          break;
        }
      }
      if (idx == poll_rounds_.size()) {
        // The reply arrived after the round was decided.
        bump(stats_.polls_discarded, m_polls_discarded_);
        // The owning round is gone, but the reply echoes its trace id, so a
        // traced request's late replies still land under the right key
        // (untraced rounds fall back to sequence-sampled discards).
        if (reply.trace_id != 0 ? trace_.active()
                                : trace_.sampled(reply.seq)) {
          trace_.record(reply.trace_id != 0 ? reply.trace_id : reply.seq,
                        telemetry::TracePoint::kPollDiscard,
                        static_cast<std::int32_t>(server_index),
                        net::monotonic_now(), reply.queue_length);
        }
        continue;
      }
      const PollWait& wait = poll_rounds_[idx];
      const SimTime now = net::monotonic_now();
      // Store the endpoint *index* in the server field so the least-loaded
      // pick can be used directly (ids and indices coincide in experiments,
      // but examples may use sparse ids). A repeated reply (duplicated in
      // the network) is dropped: it must not close the round early.
      if (wait.round->on_reply(static_cast<ServerId>(server_index),
                               reply.queue_length,
                               now) != core::ReplyStatus::kAccepted) {
        continue;
      }
      if (should_record(wait.access)) {
        record(stats_.poll_rtt_ms, m_poll_rtt_ms_,
               to_ms(now - wait.access.started_at));
      }
      if (trace_.sampled(static_cast<std::uint64_t>(wait.access.index))) {
        trace_.record(request_key(wait.access.index),
                      telemetry::TracePoint::kPollReply,
                      static_cast<std::int32_t>(server_index), now,
                      reply.queue_length);
      }
      if (wait.round->complete()) finish_poll_round(idx);
    }
  }
}

void ClientNode::fire_deadlines(SimTime now) {
  // All three scans swap-remove while iterating: on removal the back
  // element lands at the current index and is re-examined, so the index
  // only advances when the current entry survives.

  // Poll rounds past their deadline: decide with whatever arrived.
  std::int64_t finished = 0;
  for (std::size_t i = 0; i < poll_rounds_.size();) {
    if (poll_rounds_[i].round->deadline() <= now) {
      if (++finished % kDispatchesPerDrain == 0) drain_service_socket();
      bump(stats_.polls_timed_out, m_polls_timed_out_);
      finish_poll_round(i);  // swap-removes index i
    } else {
      ++i;
    }
  }
  // Manager rounds past their deadline: fall back to a random server.
  for (std::size_t i = 0; i < manager_rounds_.size();) {
    if (manager_rounds_[i].deadline <= now) {
      const Access access = manager_rounds_[i].access;
      manager_rounds_[i] = manager_rounds_.back();
      manager_rounds_.pop_back();
      ++stats_.manager_timeouts;
      dispatch(access, rng_.uniform_int(options_.servers.size()));
    } else {
      ++i;
    }
  }
  // Accesses the servers never answered. A manager-granted slot must be
  // handed back even though the access failed, or the IDEAL manager's
  // queue counts would drift upward forever.
  for (std::size_t i = 0; i < outstanding_.size();) {
    if (outstanding_[i].deadline <= now) {
      const std::size_t server_index = outstanding_[i].server_index;
      const bool manager_acquired = outstanding_[i].manager_acquired;
      Access access = outstanding_[i].access;
      outstanding_[i] = outstanding_.back();
      outstanding_.pop_back();
      if (manager_acquired) release_manager_slot(server_index);
      mark_failed(server_index, now);
      if (access.attempt < options_.max_access_retries) {
        // Re-dispatch to a fresh candidate (the failing server was just
        // blacklisted). started_at is kept, so a retried access's response
        // time honestly includes the timeout it waited through; the request
        // id is reused, so a late answer from the first attempt still
        // completes the access. The retry appends to outstanding_ with a
        // future deadline, so this scan skips it if it swaps into reach.
        ++access.attempt;
        ++stats_.access_retries;
        dispatch(access, static_cast<std::size_t>(
                             pick_random(candidate_indices(now), rng_)));
      } else {
        record_outcome(now, /*completed=*/false, 0.0);
        bump(stats_.response_timeouts, m_response_timeouts_);
        ++resolved_;
        m_in_flight_.fetch_sub(1, std::memory_order_relaxed);
      }
    } else {
      ++i;
    }
  }
}

void ClientNode::release_manager_slot(std::size_t server_index) {
  net::Release release;
  release.server = options_.servers[server_index].id;
  if (!send_fixed(release, [&](auto p) { return manager_socket_->send(p); })) {
    bump(stats_.send_failures, m_send_failures_);
  }
}

std::string ClientNode::stats_json() const {
  return telemetry::to_json(
      metrics_.snapshot("client." + std::to_string(options_.id)),
      trace_.snapshot());
}

std::optional<SimTime> ClientNode::next_deadline(SimTime next_arrival) const {
  std::optional<SimTime> best;
  const auto consider = [&best](SimTime t) {
    if (!best || t < *best) best = t;
  };
  if (next_arrival >= 0) consider(next_arrival);
  for (const PollWait& wait : poll_rounds_) consider(wait.round->deadline());
  for (const ManagerRound& round : manager_rounds_) consider(round.deadline);
  for (const Outstanding& out : outstanding_) consider(out.deadline);
  return best;
}

}  // namespace finelb::cluster
