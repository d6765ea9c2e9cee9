#include "telemetry/decision.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>

#include "common/check.h"
#include "common/seqlock.h"

namespace finelb::telemetry {

DecisionRing::DecisionRing(std::size_t capacity, std::uint32_t sample_period)
    : capacity_(capacity), period_(sample_period) {
  FINELB_CHECK(capacity > 0, "decision ring capacity must be positive");
  if constexpr (kRingEnabled) {
    if (period_ != 0) slots_ = std::make_unique<Slot[]>(capacity_);
  }
}

void DecisionRing::record_decision(const DecisionRecord& record) {
  if constexpr (!kRingEnabled) {
    (void)record;
    return;
  }
  if (slots_ == nullptr) return;
  const std::uint64_t claim = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[claim % capacity_];
  // Fence-free seqlock write, identical to TraceRing::record: odd marker
  // first, release on every payload store, even seal last.
  if (!begin_ring_slot_write(slot.seq, claim)) return;
  slot.request_id.store(record.request_id, std::memory_order_release);
  slot.at_ns.store(record.at_ns, std::memory_order_release);
  const std::uint64_t meta =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(record.chosen))) |
      (static_cast<std::uint64_t>(record.polled_count) << 32) |
      (static_cast<std::uint64_t>(record.blind_fallback ? 1 : 0) << 40) |
      (static_cast<std::uint64_t>(record.blacklist_filtered) << 48);
  slot.meta.store(meta, std::memory_order_release);
  for (std::size_t i = 0; i < kDecisionPollMax; ++i) {
    const PolledLoad& p = record.polled[i];
    slot.polled_id_qlen[i].store(
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.server)) |
            (static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(p.queue_length))
             << 32),
        std::memory_order_release);
    slot.polled_age_ns[i].store(p.age_ns, std::memory_order_release);
  }
  slot.seq.store(2 * claim + 2, std::memory_order_release);
}

std::vector<DecisionRecord> DecisionRing::snapshot() const {
  std::vector<DecisionRecord> out;
  if constexpr (!kRingEnabled) return out;
  if (slots_ == nullptr) return out;
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t begin = head > capacity_ ? head - capacity_ : 0;
  out.reserve(static_cast<std::size_t>(head - begin));
  for (std::uint64_t claim = begin; claim < head; ++claim) {
    const Slot& slot = slots_[claim % capacity_];
    const std::uint64_t sealed = 2 * claim + 2;
    if (slot.seq.load(std::memory_order_acquire) != sealed) continue;
    DecisionRecord rec;
    rec.request_id = slot.request_id.load(std::memory_order_acquire);
    rec.at_ns = slot.at_ns.load(std::memory_order_acquire);
    const std::uint64_t meta = slot.meta.load(std::memory_order_acquire);
    rec.chosen = static_cast<ServerId>(
        static_cast<std::uint32_t>(meta & 0xffffffffull));
    rec.polled_count =
        std::min<std::uint8_t>(static_cast<std::uint8_t>(meta >> 32),
                               static_cast<std::uint8_t>(kDecisionPollMax));
    rec.blind_fallback = ((meta >> 40) & 1) != 0;
    rec.blacklist_filtered = static_cast<std::uint8_t>(meta >> 48);
    for (std::size_t i = 0; i < kDecisionPollMax; ++i) {
      const std::uint64_t packed =
          slot.polled_id_qlen[i].load(std::memory_order_acquire);
      rec.polled[i].server = static_cast<ServerId>(
          static_cast<std::uint32_t>(packed & 0xffffffffull));
      rec.polled[i].queue_length =
          static_cast<std::int32_t>(static_cast<std::uint32_t>(packed >> 32));
      rec.polled[i].age_ns =
          slot.polled_age_ns[i].load(std::memory_order_acquire);
    }
    if (slot.seq.load(std::memory_order_relaxed) != sealed) continue;
    out.push_back(rec);
  }
  return out;
}

void append_decision_metrics(MetricsSnapshot& snapshot,
                             const DecisionQualitySummary& summary) {
  snapshot.counters.emplace_back("decisions_total", summary.decisions);
  snapshot.counters.emplace_back("decision_mistakes_total", summary.mistakes);
  snapshot.counters.emplace_back("decision_blind_fallbacks",
                                 summary.blind_fallbacks);
  snapshot.counters.emplace_back("decision_regret_total",
                                 summary.regret_total);
  snapshot.values.emplace_back("decision_mistake_rate",
                               summary.mistake_rate());
  snapshot.values.emplace_back("decision_regret_mean", summary.mean_regret());
}

std::string decision_quality_to_json(const DecisionQualitySummary& summary) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"decisions\":%" PRId64 ",\"mistakes\":%" PRId64
                ",\"blind_fallbacks\":%" PRId64 ",\"regret_total\":%" PRId64
                ",\"mistake_rate\":%.6g,\"mean_regret\":%.6g}",
                summary.decisions, summary.mistakes, summary.blind_fallbacks,
                summary.regret_total, summary.mistake_rate(),
                summary.mean_regret());
  return buf;
}

DecisionQualitySummary reconstruct_decision_quality(
    const std::vector<DecisionRecord>& decisions,
    const std::vector<MergedRecord>& merged) {
  // One pass over the merged timeline: request id -> the chosen server's
  // realized queue depth at dispatch arrival (kResponse detail). The trace
  // and decision rings key records identically, so the join is a hash
  // lookup.
  std::unordered_map<std::uint64_t, std::int64_t> arrival_qlen;
  arrival_qlen.reserve(merged.size() / 4 + 1);
  for (const MergedRecord& m : merged) {
    if (m.record.point == TracePoint::kResponse) {
      arrival_qlen.emplace(m.record.request_id, m.record.detail);
    }
  }
  DecisionQualitySummary summary;
  for (const DecisionRecord& d : decisions) {
    const auto it = arrival_qlen.find(d.request_id);
    if (it == arrival_qlen.end()) continue;  // untraced or lost response
    const std::int64_t realized = it->second;
    std::int64_t promised = 0;
    if (!d.blind_fallback && d.polled_count > 0) {
      promised = d.polled[0].queue_length;
      for (std::uint8_t i = 1; i < d.polled_count; ++i) {
        promised = std::min<std::int64_t>(promised,
                                          d.polled[i].queue_length);
      }
    }
    const std::int64_t regret = std::max<std::int64_t>(0, realized - promised);
    ++summary.decisions;
    if (d.blind_fallback) ++summary.blind_fallbacks;
    if (regret > 0) ++summary.mistakes;
    summary.regret_total += regret;
  }
  return summary;
}

}  // namespace finelb::telemetry
