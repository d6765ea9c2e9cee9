#include "telemetry/trace.h"

#include <algorithm>

#include "common/check.h"
#include "common/seqlock.h"

namespace finelb::telemetry {

const char* trace_point_name(TracePoint point) {
  switch (point) {
    case TracePoint::kClientEnqueue: return "client_enqueue";
    case TracePoint::kPollSent: return "poll_sent";
    case TracePoint::kPollReply: return "poll_reply";
    case TracePoint::kPollDiscard: return "poll_discard";
    case TracePoint::kServerPick: return "server_pick";
    case TracePoint::kDispatch: return "dispatch";
    case TracePoint::kServiceStart: return "service_start";
    case TracePoint::kResponse: return "response";
    case TracePoint::kLoadReplied: return "load_replied";
    case TracePoint::kLeaderElected: return "leader_elected";
  }
  return "unknown";
}

TraceRing::TraceRing(std::size_t capacity, std::uint32_t sample_period)
    : capacity_(capacity), period_(sample_period) {
  FINELB_CHECK(capacity > 0, "trace ring capacity must be positive");
  if constexpr (kTraceEnabled) {
    if (period_ != 0) slots_ = std::make_unique<Slot[]>(capacity_);
  }
}

void TraceRing::record(std::uint64_t request_id, TracePoint point,
                       std::int32_t node, std::int64_t at_ns,
                       std::int64_t detail) {
  if constexpr (!kTraceEnabled) {
    (void)request_id, (void)point, (void)node, (void)at_ns, (void)detail;
    return;
  }
  if (slots_ == nullptr) return;  // tracing disabled at construction
  const std::uint64_t claim = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[claim % capacity_];
  // Seqlock write protocol, fence-free like common/seqlock.h (GCC's TSan
  // does not model atomic_thread_fence): mark the slot in-progress (odd
  // seq) before touching the payload, seal it (even seq) after. Release
  // on every payload store keeps the odd-marker store from sinking below
  // it, so a reader that observes any of this generation's payload also
  // observes at least the in-progress marker on its re-check.
  if (!begin_ring_slot_write(slot.seq, claim)) return;
  slot.request_id.store(request_id, std::memory_order_release);
  slot.meta.store(static_cast<std::uint64_t>(point) |
                      (static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(node))
                       << 8),
                  std::memory_order_release);
  slot.at_ns.store(at_ns, std::memory_order_release);
  slot.detail.store(detail, std::memory_order_release);
  slot.seq.store(2 * claim + 2, std::memory_order_release);
}

std::vector<TraceRecord> TraceRing::snapshot() const {
  std::vector<TraceRecord> out;
  if constexpr (!kTraceEnabled) return out;
  if (slots_ == nullptr) return out;
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t begin = head > capacity_ ? head - capacity_ : 0;
  out.reserve(static_cast<std::size_t>(head - begin));
  for (std::uint64_t claim = begin; claim < head; ++claim) {
    const Slot& slot = slots_[claim % capacity_];
    const std::uint64_t sealed = 2 * claim + 2;
    if (slot.seq.load(std::memory_order_acquire) != sealed) {
      continue;  // not yet sealed, or already overwritten by a newer claim
    }
    TraceRecord rec;
    // Acquire on every payload load keeps the re-check below from hoisting
    // above it; reading any later generation's payload (a release store
    // ordered after that writer's odd marker) then forces the re-check to
    // see the odd marker and drop the record instead of returning it torn.
    rec.request_id = slot.request_id.load(std::memory_order_acquire);
    const std::uint64_t meta = slot.meta.load(std::memory_order_acquire);
    rec.point = static_cast<TracePoint>(meta & 0xff);
    rec.node = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(meta >> 8));
    rec.at_ns = slot.at_ns.load(std::memory_order_acquire);
    rec.detail = slot.detail.load(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != sealed) continue;
    out.push_back(rec);
  }
  return out;
}

}  // namespace finelb::telemetry
