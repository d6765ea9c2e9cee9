// The random-polling rule (paper §2.3, §3.2, Table 2) as one I/O-free state
// machine, driven by the simulator, cluster::ClientNode and the Neptune
// ServiceClient alike. A driver owns only its I/O and clock: it sends the
// inquiries to round.targets(), feeds replies to on_reply(), fires the
// round's deadline, and names the pool a blind decision falls back to.
// Both picks go through the recorded calls of core/selection.h.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "core/load_index.h"
#include "core/policy.h"
#include "core/selection.h"

namespace finelb::core {

enum class ReplyStatus {
  kAccepted,   // first reply from a polled target of an undecided round
  kDuplicate,  // the target already answered (or was never polled): ignored
  kLate,       // the round is already decided: a discarded poll
};

struct PollDecision {
  ServerId server = kInvalidServer;
  bool blind = false;       // nothing to weigh: random over the fallback pool
  std::size_t replies = 0;  // replies weighed (the memory candidate aside)
};

/// One poll round, owned and recycled by its PollAgent: a reference stays
/// valid for the agent's lifetime, but once decided the round may be
/// reopened under another id.
class PollRound {
 public:
  static constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();

  std::uint64_t id() const { return id_; }
  /// Start + discard timeout, else + the agent's backstop; kNoDeadline
  /// when both are zero.
  SimTime deadline() const { return deadline_; }
  bool has_deadline() const { return deadline_ != kNoDeadline; }
  std::span<const ServerId> targets() const { return targets_; }
  std::span<const ServerLoad> replies() const { return replies_; }
  bool decided() const { return decided_; }
  /// Every target has answered.
  bool complete() const { return replies_.size() == targets_.size(); }

  /// `at` is when the load was observed: the reply's age reference.
  ReplyStatus on_reply(ServerId target, std::int32_t queue_length, SimTime at);

 private:
  friend class PollAgent;

  std::uint64_t id_ = 0;
  SimTime deadline_ = kNoDeadline;
  bool decided_ = true;
  std::vector<ServerId> targets_;
  std::vector<ServerLoad> replies_;
  std::vector<ServerId> candidates_;  // kept only for poll_memory
};

/// One client's polling agent: the policy's deadline and memory rules and
/// a pool of rounds whose vectors keep their capacity, so the steady state
/// never allocates. Not thread-safe: one per client, like its Rng.
class PollAgent {
 public:
  PollAgent() = default;
  /// `backstop` bounds a round when the discard timeout is off (UDP can
  /// drop every reply); 0 leaves such rounds unbounded.
  PollAgent(const PolicyConfig& policy, SimDuration backstop);

  /// Opens round `id`: min(d, |candidates|) distinct targets drawn by
  /// choose_poll_set_into, and the deadline.
  PollRound& begin(std::uint64_t id, std::span<const ServerId> candidates,
                   std::size_t d, SimTime now, Rng& rng);

  /// Least loaded among the replies and the memory candidate, else a blind
  /// pick over `fallback_pool` (read only then; must be non-empty then).
  /// Applies poll_memory and retires the round.
  PollDecision decide(PollRound& round, SimTime now,
                      std::span<const ServerId> fallback_pool, Rng& rng,
                      const DecisionContext& ctx);

 private:
  SimDuration wait_ = 0;
  bool memory_enabled_ = false;
  /// Mitzenmacher's memory: the last winner at its observed load plus the
  /// access sent to it. It joins a pick only while its server is one of
  /// the round's candidates; a blind pick clears it.
  ServerLoad memory_{kInvalidServer, 0, 0};
  std::vector<std::unique_ptr<PollRound>> rounds_;
  std::vector<PollRound*> free_;
};

}  // namespace finelb::core
