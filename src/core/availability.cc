#include "core/availability.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"

namespace finelb::core {

Availability::Availability(const AvailabilityConfig& config)
    : config_(config) {
  FINELB_CHECK(config_.refresh_period >= 0 &&
                   config_.blacklist_cooldown >= 0 &&
                   config_.blacklist_after >= 1,
               "invalid availability config");
}

void Availability::force_refresh(SimTime now) {
  if (failed_fetches_ == 0) next_refresh_ = std::min(next_refresh_, now);
}

void Availability::on_fetch(std::span<const ServerId> live, SimTime now,
                            Rng& rng) {
  std::fill(live_.begin(), live_.end(), 0);
  for (const ServerId key : live) {
    FINELB_CHECK(key >= 0, "server keys are non-negative");
    const auto k = static_cast<std::size_t>(key);
    if (k >= live_.size()) live_.resize(k + 1, 0);
    live_[k] = 1;
  }
  schedule(/*ok=*/true, now, rng);
}

void Availability::schedule(bool ok, SimTime now, Rng& rng) {
  ++counters_.mapping_refreshes;
  counters_.refresh_failures += ok ? 0 : 1;
  failed_fetches_ = ok ? 0 : failed_fetches_ + 1;
  const SimDuration wait = config_.refresh_period
                           << std::min(failed_fetches_, 3);
  next_refresh_ = now + static_cast<SimDuration>(static_cast<double>(wait) *
                                                 rng.uniform(0.75, 1.25));
}

void Availability::on_timeout(ServerId key, SimTime now) {
  if (config_.blacklist_cooldown == 0) return;
  FINELB_CHECK(key >= 0, "server keys are non-negative");
  const auto k = static_cast<std::size_t>(key);
  if (k >= strikes_.size()) strikes_.resize(k + 1);
  Strikes& s = strikes_[k];
  if (++s.timeouts < config_.blacklist_after) return;
  s.blacklisted_until =
      std::max(s.blacklisted_until, now + config_.blacklist_cooldown);
  ++counters_.blacklist_insertions;
}

void Availability::on_success(ServerId key) {
  const auto k = static_cast<std::size_t>(key);
  if (k < strikes_.size()) strikes_[k].timeouts = 0;
}

CandidateView Availability::filter(std::span<const ServerId> pool,
                                   SimTime now) {
  view_.clear();
  std::copy_if(pool.begin(), pool.end(), std::back_inserter(view_),
               [&](ServerId key) {
                 const auto k = static_cast<std::size_t>(key);
                 return k < live_.size() && live_[k] != 0;
               });
  if (view_.empty()) view_.assign(pool.begin(), pool.end());
  if (config_.blacklist_cooldown == 0) return {view_, 0};
  const auto out = [&](ServerId key) {
    const auto k = static_cast<std::size_t>(key);
    return k < strikes_.size() && strikes_[k].blacklisted_until > now;
  };
  const auto filtered =
      static_cast<std::size_t>(std::count_if(view_.begin(), view_.end(), out));
  if (filtered == 0 || filtered == view_.size()) return {view_, 0};
  std::erase_if(view_, out);
  counters_.blacklist_hits += static_cast<std::int64_t>(filtered);
  return {view_, filtered};
}

}  // namespace finelb::core
