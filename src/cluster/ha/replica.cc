#include "cluster/ha/replica.h"

#include <algorithm>
#include <array>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "net/clock.h"
#include "net/poller.h"

namespace finelb::cluster::ha {

namespace {

ElectionConfig election_config(const HaReplicaConfig& config) {
  ElectionConfig out;
  out.id = config.id;
  out.cluster_size = config.cluster_size;
  out.heartbeat_interval = config.heartbeat_interval;
  out.election_timeout_min = config.election_timeout_min;
  out.election_timeout_max = config.election_timeout_max;
  out.leader_lease = config.leader_lease;
  out.seed = config.seed;
  return out;
}

}  // namespace

HaDirectoryReplica::HaDirectoryReplica(const HaReplicaConfig& config)
    : config_(config),
      election_(election_config(config)),
      trace_(config.trace_capacity, config.trace_capacity > 0 ? 1u : 0u) {
  data_socket_.set_buffer_sizes(1 << 20);
  elections_started_ = registry_.counter("ha.elections_started");
  leadership_gains_ = registry_.counter("ha.leadership_gains");
  heartbeats_sent_ = registry_.counter("ha.heartbeats_sent");
  snapshots_served_ = registry_.counter("ha.snapshots_served");
  redirects_sent_ = registry_.counter("ha.redirects_sent");
  term_gauge_ = registry_.gauge("ha.term");
  is_leader_ = registry_.gauge("ha.is_leader");
}

HaDirectoryReplica::~HaDirectoryReplica() { stop(); }

void HaDirectoryReplica::connect_peers(std::vector<net::Address> control_addrs,
                                       std::vector<net::Address> data_addrs) {
  FINELB_CHECK(static_cast<std::int32_t>(control_addrs.size()) ==
                       config_.cluster_size &&
                   static_cast<std::int32_t>(data_addrs.size()) ==
                       config_.cluster_size,
               "replica peer list size must match cluster_size");
  control_addrs_ = std::move(control_addrs);
  data_addrs_ = std::move(data_addrs);
}

void HaDirectoryReplica::start() {
  FINELB_CHECK(config_.cluster_size == 1 || !control_addrs_.empty(),
               "connect_peers must run before start");
  FINELB_CHECK(!running_.exchange(true), "replica already started");
  stop_.reset();
  thread_ = std::thread([this] { run_loop(); });
}

void HaDirectoryReplica::stop() {
  if (!running_.exchange(false)) return;
  stop_.notify();
  if (thread_.joinable()) thread_.join();
}

void HaDirectoryReplica::attach_control_fault_injector(
    std::shared_ptr<fault::FaultInjector> injector) {
  FINELB_CHECK(!running(), "attach fault injectors before start()");
  control_socket_.attach_fault_injector(std::move(injector));
}

void HaDirectoryReplica::attach_data_fault_injector(
    std::shared_ptr<fault::FaultInjector> injector) {
  FINELB_CHECK(!running(), "attach fault injectors before start()");
  data_socket_.attach_fault_injector(std::move(injector));
}

void HaDirectoryReplica::send_control(std::int32_t to, const PeerMessage& msg) {
  std::array<std::uint8_t, 32> buf{};
  std::size_t n = 0;
  switch (msg.kind) {
    case PeerMessage::Kind::kVoteRequest: {
      net::VoteRequest wire;
      wire.term = msg.term;
      wire.candidate = msg.from;
      n = wire.encode_into(buf);
      break;
    }
    case PeerMessage::Kind::kVoteReply: {
      net::VoteReply wire;
      wire.term = msg.term;
      wire.voter = msg.from;
      wire.granted = msg.granted;
      n = wire.encode_into(buf);
      break;
    }
    case PeerMessage::Kind::kHeartbeat: {
      net::Heartbeat wire;
      wire.term = msg.term;
      wire.leader = msg.from;
      n = wire.encode_into(buf);
      heartbeats_sent_.inc();
      break;
    }
    case PeerMessage::Kind::kHeartbeatAck: {
      net::HeartbeatAck wire;
      wire.term = msg.term;
      wire.follower = msg.from;
      n = wire.encode_into(buf);
      break;
    }
  }
  if (n == 0) return;
  const std::span<const std::uint8_t> payload(buf.data(), n);
  control_socket_.send_to(payload,
                          control_addrs_[static_cast<std::size_t>(to)]);
}

void HaDirectoryReplica::perform_actions(const std::vector<Action>& actions) {
  for (const Action& action : actions) {
    if (action.to != -1) {
      send_control(action.to, action.msg);
      continue;
    }
    for (std::int32_t peer = 0; peer < config_.cluster_size; ++peer) {
      if (peer == config_.id) continue;
      send_control(peer, action.msg);
    }
  }
}

void HaDirectoryReplica::mirror_election_state(SimTime now) {
  const Role role = election_.role();
  role_.store(static_cast<int>(role), std::memory_order_release);
  term_.store(election_.term(), std::memory_order_release);
  leader_.store(election_.leader(), std::memory_order_release);
  term_gauge_.set(static_cast<std::int64_t>(election_.term()));
  is_leader_.set(role == Role::kLeader ? 1 : 0);
  const std::int64_t started = election_.elections_started();
  if (started != last_elections_started_) {
    elections_started_.add(started - last_elections_started_);
    last_elections_started_ = started;
  }
  if (role == Role::kLeader && last_role_ != Role::kLeader) {
    leadership_gains_.inc();
    // The term doubles as the request id so request-keyed trace merges
    // keep each election's instant distinct.
    if (config_.trace_capacity > 0) {
      trace_.record(election_.term(), telemetry::TracePoint::kLeaderElected,
                    config_.id, now,
                    static_cast<std::int64_t>(election_.term()));
    }
    FINELB_LOG(kInfo, "ha") << "replica " << config_.id
                            << " elected leader for term "
                            << election_.term();
  }
  last_role_ = role;
}

void HaDirectoryReplica::handle_data(std::span<const std::uint8_t> data,
                                     const net::Address& from, SimTime now) {
  switch (net::peek_type(data)) {
    case net::MsgType::kPublish: {
      net::Publish publish;
      if (!net::Publish::try_decode(data, publish)) {
        FINELB_LOG(kWarn, "ha") << "dropping malformed publish";
        break;
      }
      table_.apply(std::move(publish), now);
      break;
    }
    case net::MsgType::kSnapshotRequest: {
      net::SnapshotRequest request;
      if (!net::SnapshotRequest::try_decode(data, request)) {
        FINELB_LOG(kWarn, "ha") << "dropping malformed snapshot request";
        break;
      }
      if (election_.role() == Role::kLeader && election_.has_lease(now)) {
        net::SnapshotReply reply;
        reply.seq = request.seq;
        reply.entries = table_.live_entries(request.service, now);
        data_socket_.send_to(reply.encode(), from);
        snapshots_served_.inc();
        break;
      }
      // Not the lease-holding leader: point the client at whoever is (or
      // admit we don't know with leader_port 0 — the client waits out its
      // backoff slice and rotates).
      net::Redirect redirect;
      redirect.seq = request.seq;
      redirect.term = election_.term();
      redirect.leader = election_.leader();
      const std::int32_t leader = election_.leader();
      if (leader >= 0 && leader != config_.id && !data_addrs_.empty()) {
        redirect.leader_port =
            data_addrs_[static_cast<std::size_t>(leader)].port;
      }
      std::array<std::uint8_t, 32> buf{};
      const std::size_t n = redirect.encode_into(buf);
      if (n != 0) {
        data_socket_.send_to(std::span<const std::uint8_t>(buf.data(), n),
                             from);
      }
      redirects_sent_.inc();
      break;
    }
    default:
      FINELB_LOG(kWarn, "ha") << "unexpected message on data socket";
  }
}

void HaDirectoryReplica::handle_control(std::span<const std::uint8_t> data,
                                        SimTime now) {
  PeerMessage msg;
  switch (net::peek_type(data)) {
    case net::MsgType::kVoteRequest: {
      net::VoteRequest wire;
      if (!net::VoteRequest::try_decode(data, wire)) return;
      msg = {PeerMessage::Kind::kVoteRequest, wire.term, wire.candidate};
      break;
    }
    case net::MsgType::kVoteReply: {
      net::VoteReply wire;
      if (!net::VoteReply::try_decode(data, wire)) return;
      msg = {PeerMessage::Kind::kVoteReply, wire.term, wire.voter,
             wire.granted};
      break;
    }
    case net::MsgType::kHeartbeat: {
      net::Heartbeat wire;
      if (!net::Heartbeat::try_decode(data, wire)) return;
      msg = {PeerMessage::Kind::kHeartbeat, wire.term, wire.leader};
      break;
    }
    case net::MsgType::kHeartbeatAck: {
      net::HeartbeatAck wire;
      if (!net::HeartbeatAck::try_decode(data, wire)) return;
      msg = {PeerMessage::Kind::kHeartbeatAck, wire.term, wire.follower};
      break;
    }
    default:
      FINELB_LOG(kWarn, "ha") << "unexpected message on control socket";
      return;
  }
  actions_scratch_.clear();
  election_.receive(msg, now, actions_scratch_);
  perform_actions(actions_scratch_);
}

void HaDirectoryReplica::run_loop() {
  net::Poller poller;
  poller.add(data_socket_.fd(), 0);
  poller.add(control_socket_.fd(), 1);
  poller.add(stop_.fd(), 2);
  std::array<std::uint8_t, 2048> buf{};
  // Poll granularity bounds how late a timer (heartbeat, election
  // deadline) can fire; a quarter of the heartbeat interval keeps jitter
  // well under the randomized timeout spread. Shutdown does not wait for
  // it: stop() wakes the poll through stop_.
  const SimDuration poll_slice =
      std::max<SimDuration>(kMillisecond, config_.heartbeat_interval / 4);
  // Timer work (tick + state mirror) runs on its own cadence, not per
  // wakeup: a leader serving a hot fetch stream wakes for every request,
  // and paying tick/mirror plus a blind drain of the idle control socket
  // on each one adds measurable latency to the data path.
  SimTime next_timer = 0;
  while (running_.load(std::memory_order_relaxed)) {
    const auto events = poller.wait(poll_slice);
    const SimTime now = net::monotonic_now();
    bool control_ready = events.empty();  // timeout: probe control anyway
    for (const net::Ready& ev : events) {
      if (ev.tag == 2) continue;  // stop(): the loop condition exits
      if (ev.tag == 0) {
        while (auto dgram = data_socket_.recv_from(buf)) {
          const std::span<const std::uint8_t> data(buf.data(), dgram->size);
          if (data.empty()) continue;
          handle_data(data, dgram->from, now);
        }
      } else {
        control_ready = true;
      }
    }
    if (control_ready) {
      while (auto dgram = control_socket_.recv_from(buf)) {
        const std::span<const std::uint8_t> data(buf.data(), dgram->size);
        if (data.empty()) continue;
        handle_control(data, now);
      }
    }
    if (control_ready || now >= next_timer) {
      actions_scratch_.clear();
      election_.tick(net::monotonic_now(), actions_scratch_);
      perform_actions(actions_scratch_);
      mirror_election_state(net::monotonic_now());
      next_timer = now + poll_slice;
    }
  }
}

// --------------------------------------------------------------------------
// HaDirectoryCluster

HaDirectoryCluster::HaDirectoryCluster(std::int32_t replicas,
                                       const HaReplicaConfig& base,
                                       const HaClusterFaults& faults) {
  FINELB_CHECK(replicas >= 1, "cluster needs >= 1 replica");
  replicas_.reserve(static_cast<std::size_t>(replicas));
  for (std::int32_t i = 0; i < replicas; ++i) {
    HaReplicaConfig config = base;
    config.id = i;
    config.cluster_size = replicas;
    std::uint64_t state =
        base.seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(i);
    config.seed = splitmix64(state);
    replicas_.push_back(std::make_unique<HaDirectoryReplica>(config));
  }
  std::vector<net::Address> control_addrs;
  std::vector<net::Address> data_addrs;
  for (const auto& replica : replicas_) {
    control_addrs.push_back(replica->control_address());
    data_addrs.push_back(replica->data_address());
  }
  for (const auto& replica : replicas_) {
    replica->connect_peers(control_addrs, data_addrs);
    if (faults.control) {
      replica->attach_control_fault_injector(faults.control(replica->id()));
    }
    if (faults.data) {
      replica->attach_data_fault_injector(faults.data(replica->id()));
    }
    replica->start();
  }
}

HaDirectoryCluster::~HaDirectoryCluster() {
  for (const auto& replica : replicas_) replica->stop();
}

std::vector<net::Address> HaDirectoryCluster::data_addresses() const {
  std::vector<net::Address> out;
  out.reserve(replicas_.size());
  for (const auto& replica : replicas_) out.push_back(replica->data_address());
  return out;
}

std::int32_t HaDirectoryCluster::leader_index() const {
  std::int32_t found = -1;
  std::uint64_t top_term = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const auto& replica = *replicas_[i];
    if (!replica.running() || replica.role() != Role::kLeader) continue;
    if (found == -1 || replica.term() > top_term) {
      found = static_cast<std::int32_t>(i);
      top_term = replica.term();
    }
  }
  return found;
}

std::int32_t HaDirectoryCluster::wait_for_leader(SimDuration timeout) const {
  const SimTime deadline = net::monotonic_now() + timeout;
  for (;;) {
    const std::int32_t leader = leader_index();
    if (leader != -1) return leader;
    if (net::monotonic_now() >= deadline) return -1;
    net::sleep_for(5 * kMillisecond);
  }
}

std::int32_t HaDirectoryCluster::kill_leader() {
  const std::int32_t leader = leader_index();
  if (leader == -1) return -1;
  replicas_[static_cast<std::size_t>(leader)]->stop();
  return leader;
}

}  // namespace finelb::cluster::ha
