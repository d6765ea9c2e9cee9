// Health plane: a small rule engine evaluated on scrape (DESIGN.md §13).
//
// Rules read MetricsSnapshots — the same documents a stats pull and
// stats_snapshot already produce — so the engine adds no
// instrumentation of its own and runs wherever snapshots land (the scrape
// driver, run_prototype's post-run report, or a test). Counter-based rules
// (blacklist spikes, election churn) fire on the *delta* between
// consecutive evaluations of the same node, which is what makes them
// spike detectors rather than lifetime-total alarms; gauge/value rules
// (queue depth, decision mistake rate) fire on the instantaneous reading.
//
// Firing alerts export two ways: alerts_to_json for the cluster document
// and alerts_to_prometheus (`finelb_alert_firing{rule=...,node=...} 1`) for
// the text exposition endpoint — so the same fault shows up on both the
// JSON and the Prometheus path (pinned by alerts_test).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/metrics.h"

namespace finelb::telemetry {

/// Rule thresholds; any rule can be disabled by setting its threshold <= 0
/// (or > 1 for the mistake rate).
struct AlertThresholds {
  /// queue_overload: a node's queue_depth gauge at or above this.
  std::int64_t queue_depth = 64;
  /// queue_growth: queue_depth grew by at least this much since the last
  /// evaluation of the same node (overload building even below the
  /// absolute ceiling).
  std::int64_t queue_growth = 32;
  /// blacklist_spike: blacklist_insertions delta since the last evaluation.
  std::int64_t blacklist_spike = 3;
  /// election_churn: ha.leadership_gains delta since the last evaluation —
  /// a healthy replica set elects once; repeated gains mean flapping.
  std::int64_t election_churn = 2;
  /// decision_mistakes: decision_mistake_rate value at or above this.
  double mistake_rate = 0.5;
};

struct Alert {
  std::string rule;   // "queue_overload", "queue_growth", "blacklist_spike",
                      // "election_churn", "decision_mistakes"
  std::string node;   // snapshot's node label
  double value = 0.0;
  double threshold = 0.0;
  std::string message;
};

/// Stateful evaluator: keeps the previous counter readings per node so
/// delta rules see rates, not lifetime totals. Not thread-safe — one engine
/// per scraping loop, like the scrape sockets it sits next to.
class AlertEngine {
 public:
  explicit AlertEngine(AlertThresholds thresholds = {});

  /// Evaluates every rule against one node's snapshot; returns the alerts
  /// that fired. The first evaluation of a node seeds its delta baseline
  /// (delta rules cannot fire on it).
  std::vector<Alert> evaluate(const MetricsSnapshot& snapshot);

  /// Evaluates a whole scraped node set, concatenating per-node firings.
  std::vector<Alert> evaluate_cluster(
      const std::vector<MetricsSnapshot>& nodes);

  const AlertThresholds& thresholds() const { return thresholds_; }

 private:
  struct NodeState {
    std::string node;
    std::int64_t queue_depth = 0;
    std::int64_t blacklist_insertions = 0;
    std::int64_t leadership_gains = 0;
    bool seen = false;
  };

  NodeState& state_for(const std::string& node);

  AlertThresholds thresholds_;
  std::vector<NodeState> states_;
};

/// {"alerts":[{"rule":...,"node":...,"value":...,"threshold":...,
///             "message":...},...]}
std::string alerts_to_json(const std::vector<Alert>& alerts);

/// Prometheus exposition of the firing set: one
/// `finelb_alert_firing{rule="...",node="..."} 1` sample per alert, with
/// the gauge TYPE line emitted once (an empty set emits just the TYPE
/// header, i.e. "no alerts firing").
std::string alerts_to_prometheus(const std::vector<Alert>& alerts);

}  // namespace finelb::telemetry
