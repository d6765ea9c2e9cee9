#include "neptune/service_client.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "net/clock.h"

namespace finelb::neptune {

ServiceClient::ServiceClient(ServiceClientOptions options)
    : options_(std::move(options)),
      directory_(options_.directory),
      rng_(options_.seed),
      polls_(options_.policy, options_.max_poll_wait),
      availability_({.refresh_period = options_.mapping_refresh,
                     .blacklist_cooldown = options_.blacklist_cooldown,
                     .blacklist_after = 1}) {
  FINELB_CHECK(!options_.service_name.empty(), "service name required");
  FINELB_CHECK(options_.max_attempts >= 1, "need at least one attempt");
  FINELB_CHECK(options_.policy.kind == PolicyKind::kRandom ||
                   options_.policy.kind == PolicyKind::kRoundRobin ||
                   options_.policy.kind == PolicyKind::kPolling,
               "service client supports random, round-robin, and polling");
  poller_.add(socket_.fd(), 0);
  refresh_mapping();
}

const cluster::ServiceEndpoint& ServiceClient::endpoint_of(
    ServerId server) const {
  const auto it = std::find_if(
      snapshot_.begin(), snapshot_.end(),
      [server](const cluster::ServiceEndpoint& e) { return e.server == server; });
  FINELB_CHECK(it != snapshot_.end(), "chosen server is not in the mapping");
  return *it;
}

template <class Take>
bool ServiceClient::receive_until(SimTime deadline, Take&& take) {
  const std::span<std::uint8_t> buf = net::thread_scratch(64 * 1024);
  for (;;) {
    while (const auto dgram = socket_.recv_from(buf)) {
      if (take(std::span<const std::uint8_t>(buf.data(), dgram->size))) {
        return true;
      }
    }
    if (net::monotonic_now() >= deadline) return false;
    poller_.wait_until(deadline);
  }
}

void ServiceClient::refresh_mapping() {
  const SimTime now = net::monotonic_now();
  if (!availability_.refresh_due(now)) return;
  auto snapshot = directory_.try_fetch(options_.service_name);
  if (!snapshot) {
    // Directory unreachable: keep the stale table (stale beats empty).
    availability_.on_fetch_failed(now, rng_);
    return;
  }
  snapshot_ = std::move(*snapshot);
  replicas_.clear();
  std::vector<ServerId> live;
  for (const auto& endpoint : snapshot_) {
    replicas_[endpoint.partition].push_back(endpoint.server);
    live.push_back(endpoint.server);
  }
  availability_.on_fetch(live, now, rng_);
}

std::size_t ServiceClient::replicas(std::uint32_t partition) {
  refresh_mapping();
  const auto it = replicas_.find(partition);
  return it == replicas_.end() ? 0 : it->second.size();
}

ServerId ServiceClient::choose(std::span<const ServerId> replicas) {
  const std::span<const ServerId> candidates =
      availability_.filter(replicas, net::monotonic_now()).servers;
  if (candidates.size() == 1) return candidates.front();
  // The constructor admits only these three policies.
  if (options_.policy.kind == PolicyKind::kRandom) {
    return pick_random(candidates, rng_);
  }
  if (options_.policy.kind == PolicyKind::kRoundRobin) {
    return rr_.next(candidates);
  }
  // Inquiry i of this round carries sequence base + i, so a reply maps
  // straight back to its target and replies from earlier rounds fall
  // outside [base, base + k).
  const std::uint64_t base = next_id_;
  core::PollRound& round = polls_.begin(
      base, candidates, static_cast<std::size_t>(options_.policy.poll_size),
      net::monotonic_now(), rng_);
  const std::span<const ServerId> targets = round.targets();
  next_id_ += targets.size();
  std::array<std::uint8_t, net::kMaxFixedMsgSize> buf{};
  for (std::size_t i = 0; i < targets.size(); ++i) {
    net::LoadInquiry inquiry;
    inquiry.seq = base + i;
    const std::size_t n = inquiry.encode_into(buf);
    if (socket_.send_to({buf.data(), n}, endpoint_of(targets[i]).load_addr)) {
      ++stats_.polls_sent;
    }
  }
  // Past the deadline, outstanding slow polls are discarded.
  receive_until(round.deadline(), [&](std::span<const std::uint8_t> dgram) {
    net::LoadReply reply;
    if (net::LoadReply::try_decode(dgram, reply) &&
        reply.seq - base < targets.size()) {
      round.on_reply(targets[reply.seq - base], reply.queue_length,
                     net::monotonic_now());
    }
    return round.complete();
  });
  // Blind fallback pool: every usable replica, not just the polled ones.
  DecisionContext ctx;
  ctx.now_ns = net::monotonic_now();
  const core::PollDecision decision =
      polls_.decide(round, ctx.now_ns, candidates, rng_, ctx);
  if (decision.blind) ++stats_.fallback_dispatches;
  return decision.server;
}

CallResult ServiceClient::call(std::uint16_t method, std::uint32_t partition,
                               std::span<const std::uint8_t> args) {
  ++stats_.calls;
  const SimTime started = net::monotonic_now();
  CallResult result;

  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      // A retry re-pulls the table: the replica set may have changed.
      ++stats_.retries;
      availability_.force_refresh(net::monotonic_now());
    }
    refresh_mapping();
    const auto group = replicas_.find(partition);
    if (group == replicas_.end()) {
      // The retry's refresh waits out a failing directory's backoff; a short
      // jittered sleep keeps this loop from spinning hot meanwhile.
      net::sleep_for(static_cast<SimDuration>(
          static_cast<double>(10 * kMillisecond) * rng_.uniform(0.5, 1.5)));
      continue;
    }
    const ServerId server = choose(group->second);

    request_.request_id = next_id_++;
    request_.method = method;
    request_.partition = partition;
    request_.args.assign(args.begin(), args.end());
    const std::span<std::uint8_t> out =
        net::thread_scratch(request_.encoded_size());
    const std::size_t n = request_.encode_into(out);
    FINELB_CHECK(n > 0, "RPC args exceed the datagram limit");
    if (!socket_.send_to(out.subspan(0, n), endpoint_of(server).service_addr)) {
      continue;
    }

    net::ServiceResponse response;
    if (receive_until(net::monotonic_now() + options_.rpc_timeout,
                      [&](std::span<const std::uint8_t> dgram) {
                        return net::ServiceResponse::try_decode(dgram,
                                                                response) &&
                               response.request_id == request_.request_id;
                      })) {
      availability_.on_success(server);
      result.status = response.status;
      result.transport_ok = true;
      result.data = std::move(response.result);
      result.server = response.server;
      result.latency = net::monotonic_now() - started;
      return result;
    }
    // Timed out: blacklist the silent replica so the retry (and subsequent
    // calls) steer around it, then try again on a fresh choice.
    availability_.on_timeout(server, net::monotonic_now());
  }
  ++stats_.transport_failures;
  result.transport_ok = false;
  result.latency = net::monotonic_now() - started;
  return result;
}

}  // namespace finelb::neptune
