// Cross-commit golden for seeded simulator output.
//
// Every other determinism check (DecisionAuditingDoesNotPerturbTheRun, the
// parallel-vs-serial sweep, perfbench's sim.digest_identical) compares two
// runs of the same build. This one pins four seeded runs to digests
// recorded once, so a refactor of the simulator or of the decision core
// that changes a single RNG draw, event order or decision fails here. A
// digest covers the whole SimResult plus every DecisionRecord the run
// emits through the audit choke point.
//
// The constants must only change with a deliberate change of the model's
// behaviour; record the new values from the failure message then.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "core/selection.h"
#include "sim/config.h"
#include "workload/catalog.h"

namespace finelb::sim {
namespace {

/// FNV-1a over explicitly fed values (never raw structs: padding bytes
/// would make the digest depend on the compiler).
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(std::int32_t v) { add(static_cast<std::int64_t>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Keeps every decision record in arrival order.
class CaptureSink : public DecisionSink {
 public:
  void record_decision(const DecisionRecord& record) override {
    records.push_back(record);
  }
  std::vector<DecisionRecord> records;
};

void add_accumulator(Digest& d, const Accumulator& a) {
  d.add(a.count());
  d.add(a.mean());
  d.add(a.variance());
  d.add(a.min());
  d.add(a.max());
}

std::uint64_t result_digest(const SimResult& r) {
  Digest d;
  add_accumulator(d, r.response_ms);
  d.add(r.response_hist_ms.count());
  for (const double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    d.add(r.response_hist_ms.quantile(q));
  }
  d.add(r.response_hist_ms.recorded_min());
  d.add(r.response_hist_ms.recorded_max());
  add_accumulator(d, r.poll_time_ms);
  d.add(r.utilization);
  add_accumulator(d, r.queue_on_arrival);
  for (const std::int64_t served : r.per_server_served) d.add(served);
  for (const std::int64_t v :
       {r.polls_sent, r.polls_discarded, r.broadcasts_sent, r.failed,
        r.drops_injected, r.poll_fallbacks, r.messages, r.completed,
        r.decisions, r.decision_mistakes, r.decision_blind_fallbacks,
        r.decision_regret_total}) {
    d.add(v);
  }
  return d.value();
}

std::uint64_t decisions_digest(const std::vector<DecisionRecord>& records) {
  Digest d;
  d.add(static_cast<std::uint64_t>(records.size()));
  for (const DecisionRecord& rec : records) {
    d.add(rec.request_id);
    d.add(rec.at_ns);
    d.add(rec.chosen);
    d.add(static_cast<std::uint64_t>(rec.polled_count));
    d.add(static_cast<std::uint64_t>(rec.blind_fallback));
    d.add(static_cast<std::uint64_t>(rec.blacklist_filtered));
    for (const PolledLoad& p : rec.polled) {
      d.add(p.server);
      d.add(p.queue_length);
      d.add(p.age_ns);
    }
  }
  return d.value();
}

const Workload& fine_grain() {
  static const Workload w = make_fine_grain(4096, 7);
  return w;
}

SimConfig golden_config(PolicyConfig policy) {
  SimConfig config;
  config.servers = 16;
  config.clients = 6;
  config.policy = policy;
  config.load = 0.9;
  config.total_requests = 20'000;
  config.warmup_requests = 2'000;
  config.seed = 11;
  return config;
}

struct Golden {
  std::uint64_t result;
  std::uint64_t decisions;
  std::size_t records;
};

SimResult expect_golden(SimConfig config, const Golden& golden) {
  CaptureSink sink;
  config.decision_sink = &sink;
  const SimResult r = run_cluster_sim(config, fine_grain());
  EXPECT_EQ(sink.records.size(), golden.records);
  EXPECT_EQ(result_digest(r), golden.result)
      << std::hex << "result digest 0x" << result_digest(r);
  EXPECT_EQ(decisions_digest(sink.records), golden.decisions)
      << std::hex << "decisions digest 0x" << decisions_digest(sink.records);
  return r;
}

TEST(SimGoldenTest, PollingThreeNoDiscard) {
  // The Fig. 4 / sim_poll3_fine model: every round waits for all replies.
  const SimResult r = expect_golden(golden_config(PolicyConfig::polling(3)),
                                    {0xa18d87ad8cc61515ULL,
                                     0x8e8acfd8c85f4bd8ULL, 20'000});
  EXPECT_EQ(r.polls_discarded, 0);
}

TEST(SimGoldenTest, PollingThreeDiscardUnderLossAndCrashes) {
  // A 1 ms discard, 5% loss on every leg, two crashes (one restarting) and
  // replies slowed by queue depth (the paper's §3.2 profile) drive the
  // deadline, late-reply and blind-fallback legs of the round.
  SimConfig config = golden_config(PolicyConfig::polling(3, from_ms(1)));
  config.network.poll_reply_cpu = from_us(100);
  config.network.poll_reply_scales_with_queue = true;
  config.faults.msg_loss_prob = 0.05;
  config.faults.crashes = {{3, from_ms(2'000), from_ms(6'000)},
                           {9, from_ms(4'000), -1}};
  const SimResult r = expect_golden(
      config, {0x25ea772cbdc0e06dULL, 0x42a1aa22048a8dd3ULL, 20'000});
  // The run must reach every leg it is meant to pin.
  EXPECT_GT(r.polls_discarded, 0);
  EXPECT_GT(r.poll_fallbacks, 0);
  EXPECT_GT(r.failed, 0);
}

TEST(SimGoldenTest, PollingTwoWithMemory) {
  PolicyConfig policy = PolicyConfig::polling(2);
  policy.poll_memory = true;
  expect_golden(golden_config(policy),
                {0x053e6c6a770b47b4ULL, 0xf1674abb4b9f58daULL, 20'000});
}

TEST(SimGoldenTest, BroadcastControl) {
  // Broadcast records no decisions; it pins the shared engine/server model.
  expect_golden(golden_config(PolicyConfig::broadcast(from_ms(100))),
                {0xb5ad5388f823a9bfULL, 0xa8c7f832281a39c5ULL, 0});
}

}  // namespace
}  // namespace finelb::sim
