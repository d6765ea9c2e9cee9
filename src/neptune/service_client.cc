#include "neptune/service_client.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "net/clock.h"

namespace finelb::neptune {
namespace {

const cluster::ServiceEndpoint& endpoint_of(
    const std::vector<cluster::ServiceEndpoint>& group, ServerId server) {
  const auto it = std::find_if(
      group.begin(), group.end(),
      [server](const cluster::ServiceEndpoint& e) { return e.server == server; });
  FINELB_CHECK(it != group.end(), "chosen server is not in the group");
  return *it;
}

}  // namespace

ServiceClient::ServiceClient(ServiceClientOptions options)
    : options_(std::move(options)),
      directory_(options_.directory),
      rng_(options_.seed),
      polls_(options_.policy, options_.max_poll_wait) {
  FINELB_CHECK(!options_.service_name.empty(), "service name required");
  FINELB_CHECK(options_.max_attempts >= 1, "need at least one attempt");
  FINELB_CHECK(options_.policy.kind == PolicyKind::kRandom ||
                   options_.policy.kind == PolicyKind::kRoundRobin ||
                   options_.policy.kind == PolicyKind::kPolling,
               "service client supports random, round-robin, and polling");
  poller_.add(socket_.fd(), 0);
  refresh_mapping(/*force=*/true);
}

ServiceClientStats ServiceClient::stats() const {
  ServiceClientStats stats = stats_;
  stats.blacklist_insertions = blacklist_.insertions();
  stats.blacklist_hits = blacklist_.hits();
  return stats;
}

void ServiceClient::refresh_mapping(bool force) {
  const SimTime now = net::monotonic_now();
  if (!force && now - mapping_fetched_at_ < options_.mapping_refresh) return;
  // Backoff gate: after a failed fetch, even forced refreshes wait it out.
  // Every retry path funnels through here, so this is what bounds the
  // retry rate against a struggling directory.
  if (now < refresh_backoff_until_) return;
  const auto snapshot = directory_.try_fetch(options_.service_name);
  if (!snapshot) {
    // Directory unreachable: keep the stale table (stale beats empty) and
    // back off exponentially with jitter, capped at 8x the refresh period.
    ++stats_.refresh_failures;
    refresh_backoff_ =
        refresh_backoff_ > 0
            ? std::min<SimDuration>(refresh_backoff_ * 2,
                                    options_.mapping_refresh * 8)
            : std::max<SimDuration>(options_.mapping_refresh / 4,
                                    50 * kMillisecond);
    refresh_backoff_until_ =
        now + static_cast<SimDuration>(static_cast<double>(refresh_backoff_) *
                                       rng_.uniform(0.75, 1.25));
    return;
  }
  refresh_backoff_ = 0;
  refresh_backoff_until_ = 0;
  mapping_.clear();
  for (const auto& endpoint : *snapshot) {
    mapping_[endpoint.partition].push_back(endpoint);
  }
  mapping_fetched_at_ = now;
  ++stats_.mapping_refreshes;
}

std::size_t ServiceClient::replicas(std::uint32_t partition) {
  refresh_mapping(/*force=*/false);
  const auto it = mapping_.find(partition);
  return it == mapping_.end() ? 0 : it->second.size();
}

ServerId ServiceClient::choose(const Group& group) {
  candidates_.clear();
  for (const auto& endpoint : group) candidates_.push_back(endpoint.server);
  if (options_.blacklist_cooldown > 0) {
    blacklist_.filter_in_place(candidates_, net::monotonic_now());
  }
  if (candidates_.size() == 1) return candidates_.front();
  // The constructor admits only these three policies.
  if (options_.policy.kind == PolicyKind::kRandom) {
    return pick_random(candidates_, rng_);
  }
  if (options_.policy.kind == PolicyKind::kRoundRobin) {
    return rr_.next(candidates_);
  }
  return poll_least_loaded(group);
}

ServerId ServiceClient::poll_least_loaded(const Group& group) {
  // Inquiry i of this round carries sequence base + i, so a reply maps
  // straight back to its target and replies from earlier rounds fall
  // outside [base, base + k).
  const std::uint64_t base = next_id_;
  core::PollRound& round = polls_.begin(
      base, candidates_, static_cast<std::size_t>(options_.policy.poll_size),
      net::monotonic_now(), rng_);
  const std::span<const ServerId> targets = round.targets();
  next_id_ += targets.size();
  std::array<std::uint8_t, net::kMaxFixedMsgSize> buf{};
  for (std::size_t i = 0; i < targets.size(); ++i) {
    net::LoadInquiry inquiry;
    inquiry.seq = base + i;
    const std::size_t n = inquiry.encode_into(buf);
    if (socket_.send_to({buf.data(), n},
                        endpoint_of(group, targets[i]).load_addr)) {
      ++stats_.polls_sent;
    }
  }

  while (!round.complete()) {
    const SimDuration left = round.deadline() - net::monotonic_now();
    if (left <= 0) break;  // discard outstanding slow polls
    poller_.wait(left);
    while (auto dgram = socket_.recv_from(buf)) {
      net::LoadReply reply;
      if (!net::LoadReply::try_decode(std::span(buf.data(), dgram->size),
                                      reply) ||
          reply.seq - base >= targets.size()) {
        continue;  // stale reply or a late RPC response
      }
      round.on_reply(targets[reply.seq - base], reply.queue_length,
                     net::monotonic_now());
    }
  }
  // Blind fallback pool: every usable replica, not just the polled ones.
  DecisionContext ctx;
  ctx.now_ns = net::monotonic_now();
  const core::PollDecision decision =
      polls_.decide(round, ctx.now_ns, candidates_, rng_, ctx);
  if (decision.blind) ++stats_.fallback_dispatches;
  return decision.server;
}

bool ServiceClient::await_response(std::uint64_t request_id,
                                   CallResult& result) {
  const std::span<std::uint8_t> buf = net::thread_scratch(64 * 1024);
  const SimTime deadline = net::monotonic_now() + options_.rpc_timeout;
  net::ServiceResponse response;
  while (net::monotonic_now() < deadline) {
    poller_.wait(deadline - net::monotonic_now());
    while (auto dgram = socket_.recv_from(buf)) {
      if (!net::ServiceResponse::try_decode(std::span(buf.data(), dgram->size),
                                            response) ||
          response.request_id != request_id) {
        continue;  // stale response or a late poll reply
      }
      result.status = response.status;
      result.transport_ok = true;
      result.data = std::move(response.result);
      result.server = response.server;
      return true;
    }
  }
  return false;
}

CallResult ServiceClient::call(std::uint16_t method, std::uint32_t partition,
                               std::span<const std::uint8_t> args) {
  ++stats_.calls;
  const SimTime started = net::monotonic_now();
  CallResult result;

  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    // A retry re-pulls the table: the replica set may have changed.
    refresh_mapping(/*force=*/attempt > 0);
    const auto group_it = mapping_.find(partition);
    if (group_it == mapping_.end() || group_it->second.empty()) {
      refresh_mapping(/*force=*/true);
      // The forced refresh is gated by the failure backoff, so without a
      // pause this loop would spin hot while the partition has no live
      // replicas; a short jittered sleep bounds the retry rate instead.
      net::sleep_for(static_cast<SimDuration>(
          static_cast<double>(10 * kMillisecond) * rng_.uniform(0.5, 1.5)));
      continue;
    }
    const Group& group = group_it->second;
    const cluster::ServiceEndpoint& target = endpoint_of(group, choose(group));

    request_.request_id = next_id_++;
    request_.method = method;
    request_.partition = partition;
    request_.args.assign(args.begin(), args.end());
    const std::span<std::uint8_t> out =
        net::thread_scratch(request_.encoded_size());
    const std::size_t n = request_.encode_into(out);
    FINELB_CHECK(n > 0, "RPC args exceed the datagram limit");
    if (!socket_.send_to(out.subspan(0, n), target.service_addr)) continue;

    if (await_response(request_.request_id, result)) {
      result.latency = net::monotonic_now() - started;
      return result;
    }
    // Timed out: blacklist the silent replica so the retry (and subsequent
    // calls) steer around it, then try again on a fresh choice.
    if (options_.blacklist_cooldown > 0) {
      blacklist_.add(static_cast<std::size_t>(target.server),
                     net::monotonic_now() + options_.blacklist_cooldown);
    }
  }
  ++stats_.transport_failures;
  result.transport_ok = false;
  result.latency = net::monotonic_now() - started;
  return result;
}

}  // namespace finelb::neptune
