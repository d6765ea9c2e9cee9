#include "core/poll_round.h"

#include <algorithm>

#include "common/check.h"

namespace finelb::core {
namespace {
bool contains(const std::vector<ServerId>& set, ServerId id) {
  return std::find(set.begin(), set.end(), id) != set.end();
}
}  // namespace

ReplyStatus PollRound::on_reply(ServerId target, std::int32_t queue_length,
                                SimTime at) {
  if (decided_) return ReplyStatus::kLate;
  if (!contains(targets_, target) ||
      std::any_of(replies_.begin(), replies_.end(),
                  [target](const ServerLoad& r) { return r.server == target; })) {
    return ReplyStatus::kDuplicate;
  }
  replies_.push_back({target, queue_length, at});
  return ReplyStatus::kAccepted;
}

PollAgent::PollAgent(const PolicyConfig& policy, SimDuration backstop)
    : wait_(policy.discard_timeout > 0 ? policy.discard_timeout : backstop),
      memory_enabled_(policy.poll_memory) {
  FINELB_CHECK(backstop >= 0, "poll backstop must be non-negative");
}

PollRound& PollAgent::begin(std::uint64_t id,
                            std::span<const ServerId> candidates,
                            std::size_t d, SimTime now, Rng& rng) {
  if (free_.empty()) {
    rounds_.push_back(std::make_unique<PollRound>());
    free_.push_back(rounds_.back().get());
  }
  PollRound& round = *free_.back();
  free_.pop_back();
  round.id_ = id;
  round.deadline_ = wait_ > 0 ? now + wait_ : PollRound::kNoDeadline;
  round.decided_ = false;
  round.replies_.clear();
  choose_poll_set_into(candidates, d, rng, round.targets_);
  round.replies_.reserve(round.targets_.size() + 1);  // + memory candidate
  if (memory_enabled_) {
    round.candidates_.assign(candidates.begin(), candidates.end());
  }
  return round;
}

PollDecision PollAgent::decide(PollRound& round, SimTime now,
                               std::span<const ServerId> fallback_pool,
                               Rng& rng, const DecisionContext& ctx) {
  FINELB_CHECK(!round.decided_, "poll round decided twice");
  PollDecision decision;
  decision.replies = round.replies_.size();
  // The memory candidate is appended to the replies for the pick only.
  std::vector<ServerLoad>& weighed = round.replies_;
  const bool with_memory = memory_enabled_ &&
                           memory_.server != kInvalidServer &&
                           contains(round.candidates_, memory_.server);
  if (with_memory) weighed.push_back(memory_);
  if (weighed.empty()) {
    decision.blind = true;
    decision.server = pick_random_fallback(fallback_pool, rng, ctx);
    memory_ = {kInvalidServer, 0, 0};
  } else {
    decision.server = pick_least_loaded(weighed, rng, ctx);
    if (memory_enabled_) {
      const auto won = std::find_if(
          weighed.begin(), weighed.end(),
          [&](const ServerLoad& e) { return e.server == decision.server; });
      memory_ = {decision.server, won->queue_length + 1, now};
    }
  }
  if (with_memory) weighed.pop_back();
  round.decided_ = true;
  free_.push_back(&round);
  return decision;
}

}  // namespace finelb::core
