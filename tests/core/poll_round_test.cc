#include "core/poll_round.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace finelb::core {
namespace {

std::vector<ServerId> ids(int n) {
  std::vector<ServerId> out(n);
  for (int i = 0; i < n; ++i) out[i] = i;
  return out;
}

/// Keeps every decision record in arrival order.
class CaptureSink : public DecisionSink {
 public:
  void record_decision(const DecisionRecord& record) override {
    records.push_back(record);
  }
  std::vector<DecisionRecord> records;
};

bool contains(std::span<const ServerId> set, ServerId id) {
  return std::find(set.begin(), set.end(), id) != set.end();
}

TEST(PollRoundTest, DeadlineIsTheDiscardTimeoutElseTheBackstop) {
  Rng rng(1);
  const auto all = ids(8);
  PollAgent discard(PolicyConfig::polling(3, from_ms(1)), from_ms(50));
  EXPECT_EQ(discard.begin(1, all, 3, 1000, rng).deadline(),
            1000 + from_ms(1));
  PollAgent backstop(PolicyConfig::polling(3), from_ms(50));
  EXPECT_EQ(backstop.begin(1, all, 3, 1000, rng).deadline(),
            1000 + from_ms(50));
  PollAgent unbounded(PolicyConfig::polling(3), 0);
  EXPECT_FALSE(unbounded.begin(1, all, 3, 1000, rng).has_deadline());
}

TEST(PollRoundTest, BeginDrawsThePollSetLikeChooseInto) {
  const auto all = ids(16);
  Rng a(9);
  Rng b(9);
  PollAgent agent(PolicyConfig::polling(3), 0);
  const PollRound& round = agent.begin(4, all, 3, 0, a);
  std::vector<ServerId> expected;
  choose_poll_set_into(all, 3, b, expected);
  EXPECT_EQ(std::vector<ServerId>(round.targets().begin(),
                                  round.targets().end()),
            expected);
  EXPECT_EQ(a(), b());  // same draws, same order
  EXPECT_EQ(round.id(), 4u);
  EXPECT_FALSE(round.decided());
}

TEST(PollRoundTest, AllRepliesInThenDecide) {
  Rng rng(2);
  PollAgent agent(PolicyConfig::polling(3), from_ms(50));
  PollRound& round = agent.begin(7, ids(8), 3, 0, rng);
  const auto targets = round.targets();
  ASSERT_EQ(targets.size(), 3u);
  const std::int32_t loads[] = {5, 1, 9};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(round.complete());
    EXPECT_EQ(round.on_reply(targets[i], loads[i], 100),
              ReplyStatus::kAccepted);
  }
  EXPECT_TRUE(round.complete());

  CaptureSink sink;
  DecisionContext ctx;
  ctx.request_id = 7;
  ctx.now_ns = 300;
  ctx.sink = &sink;
  const ServerId winner = targets[1];
  const PollDecision d = agent.decide(round, 300, {}, rng, ctx);
  EXPECT_EQ(d.server, winner);
  EXPECT_FALSE(d.blind);
  EXPECT_EQ(d.replies, 3u);
  EXPECT_TRUE(round.decided());
  ASSERT_EQ(sink.records.size(), 1u);
  EXPECT_EQ(sink.records[0].chosen, winner);
  EXPECT_EQ(sink.records[0].polled_count, 3);
  EXPECT_EQ(sink.records[0].polled[0].age_ns, 200);
  EXPECT_FALSE(sink.records[0].blind_fallback);
}

TEST(PollRoundTest, DeadlineWithPartialRepliesPicksAmongThem) {
  Rng rng(3);
  PollAgent agent(PolicyConfig::polling(3, from_ms(1)), 0);
  PollRound& round = agent.begin(1, ids(8), 3, 0, rng);
  const ServerId answered = round.targets()[2];
  EXPECT_EQ(round.on_reply(answered, 40, 10), ReplyStatus::kAccepted);
  EXPECT_FALSE(round.complete());
  // The driver fires the deadline: decide with the one reply that came.
  const PollDecision d = agent.decide(round, round.deadline(), {}, rng, {});
  EXPECT_EQ(d.server, answered);
  EXPECT_FALSE(d.blind);
  EXPECT_EQ(d.replies, 1u);
}

TEST(PollRoundTest, DeadlineWithNoRepliesFallsBackOverTheCallersPool) {
  PollAgent agent(PolicyConfig::polling(2, from_ms(1)), 0);
  const std::vector<ServerId> pool = {20, 21, 22};
  CaptureSink sink;
  DecisionContext ctx;
  ctx.sink = &sink;
  ctx.blacklist_filtered = 2;
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    PollRound& round =
        agent.begin(static_cast<std::uint64_t>(i), ids(8), 2, 0, rng);
    const PollDecision d = agent.decide(round, round.deadline(), pool, rng,
                                        ctx);
    EXPECT_TRUE(d.blind);
    EXPECT_EQ(d.replies, 0u);
    EXPECT_TRUE(contains(pool, d.server)) << "picked outside the pool";
  }
  ASSERT_EQ(sink.records.size(), 50u);
  for (const DecisionRecord& rec : sink.records) {
    EXPECT_TRUE(rec.blind_fallback);
    EXPECT_EQ(rec.polled_count, 0);
    EXPECT_EQ(rec.blacklist_filtered, 2);
  }
  // The blind leg must be the recorded one: same draw as the bare pick.
  Rng a(5);
  Rng b(5);
  PollRound& round = agent.begin(99, ids(8), 2, 0, a);
  std::vector<ServerId> ignored;
  choose_poll_set_into(ids(8), 2, b, ignored);
  EXPECT_EQ(agent.decide(round, 0, pool, a, {}).server, pick_random(pool, b));
}

TEST(PollRoundTest, BlindDecisionWithoutPoolThrows) {
  Rng rng(6);
  PollAgent agent(PolicyConfig::polling(2, from_ms(1)), 0);
  PollRound& round = agent.begin(1, ids(4), 2, 0, rng);
  EXPECT_THROW(agent.decide(round, 0, {}, rng, {}), InvariantError);
}

TEST(PollRoundTest, LateReplyAfterTheDecisionIsADiscard) {
  Rng rng(7);
  PollAgent agent(PolicyConfig::polling(2, from_ms(1)), 0);
  PollRound& round = agent.begin(1, ids(4), 2, 0, rng);
  const ServerId first = round.targets()[0];
  const ServerId second = round.targets()[1];
  ASSERT_EQ(round.on_reply(first, 3, 5), ReplyStatus::kAccepted);
  agent.decide(round, round.deadline(), {}, rng, {});
  EXPECT_EQ(round.on_reply(second, 0, from_ms(2)), ReplyStatus::kLate);
  EXPECT_EQ(round.replies().size(), 1u);
  EXPECT_THROW(agent.decide(round, 0, {}, rng, {}), InvariantError);
}

TEST(PollRoundTest, DuplicateReplyIsIgnored) {
  Rng rng(8);
  PollAgent agent(PolicyConfig::polling(3), from_ms(50));
  PollRound& round = agent.begin(1, ids(8), 3, 0, rng);
  const auto targets = round.targets();
  EXPECT_EQ(round.on_reply(targets[0], 4, 1), ReplyStatus::kAccepted);
  EXPECT_EQ(round.on_reply(targets[0], 0, 2), ReplyStatus::kDuplicate);
  EXPECT_EQ(round.on_reply(targets[1], 4, 3), ReplyStatus::kAccepted);
  // Two distinct servers answered: a repeat must not close the round.
  EXPECT_FALSE(round.complete());
  // A server outside the poll set is ignored the same way.
  ServerId stranger = 0;
  while (contains(targets, stranger)) ++stranger;
  EXPECT_EQ(round.on_reply(stranger, 0, 4), ReplyStatus::kDuplicate);
  EXPECT_EQ(round.replies().size(), 2u);
  EXPECT_EQ(round.replies()[0].queue_length, 4);  // the first copy counts
  EXPECT_EQ(round.on_reply(targets[2], 4, 5), ReplyStatus::kAccepted);
  EXPECT_TRUE(round.complete());
}

TEST(PollRoundTest, MemoryCandidateJoinsThePick) {
  PolicyConfig policy = PolicyConfig::polling(1);
  policy.poll_memory = true;
  PollAgent agent(policy, from_ms(50));
  Rng rng(9);
  const auto all = ids(8);

  // Round 1: the single reply wins and becomes the memory, charged with
  // the access just sent to it (load 0 + 1).
  PollRound& first = agent.begin(1, all, 1, 0, rng);
  const ServerId remembered = first.targets()[0];
  ASSERT_EQ(first.on_reply(remembered, 0, 10), ReplyStatus::kAccepted);
  EXPECT_EQ(agent.decide(first, 20, {}, rng, {}).server, remembered);

  // Round 2: a heavier reply loses to the memory candidate, which the
  // record lists after the replies.
  PollRound& second = agent.begin(2, all, 1, 30, rng);
  const ServerId polled = second.targets()[0];
  ASSERT_EQ(second.on_reply(polled, 5, 40), ReplyStatus::kAccepted);
  CaptureSink sink;
  DecisionContext ctx;
  ctx.now_ns = 50;
  ctx.sink = &sink;
  const PollDecision d = agent.decide(second, 50, {}, rng, ctx);
  EXPECT_EQ(d.replies, 1u);
  ASSERT_EQ(sink.records.size(), 1u);
  const DecisionRecord& rec = sink.records[0];
  ASSERT_EQ(rec.polled_count, 2);
  EXPECT_EQ(rec.polled[1].server, remembered);
  EXPECT_EQ(rec.polled[1].queue_length, 1);
  EXPECT_EQ(rec.polled[1].age_ns, 30);  // remembered at decision time 20
  EXPECT_EQ(d.server, remembered);
  EXPECT_EQ(second.replies().size(), 1u) << "memory must not stick";

  // With no reply the memory alone decides: not a blind pick.
  PollRound& third = agent.begin(3, all, 1, 60, rng);
  const PollDecision alone = agent.decide(third, 70, {}, rng, {});
  EXPECT_FALSE(alone.blind);
  EXPECT_EQ(alone.server, d.server);

  // The memory joins only while its server is a candidate of the round.
  std::vector<ServerId> others;
  for (const ServerId id : all) {
    if (id != alone.server) others.push_back(id);
  }
  PollRound& fourth = agent.begin(4, others, 1, 80, rng);
  const std::vector<ServerId> pool = {others[0]};
  const PollDecision excluded = agent.decide(fourth, 90, pool, rng, {});
  EXPECT_TRUE(excluded.blind);
  EXPECT_EQ(excluded.server, others[0]);

  // A blind pick forgets the memory.
  PollRound& fifth = agent.begin(5, all, 1, 100, rng);
  EXPECT_TRUE(agent.decide(fifth, 110, pool, rng, {}).blind);
}

TEST(PollRoundTest, WithoutMemoryNoReplyMeansBlind) {
  PollAgent agent(PolicyConfig::polling(1), from_ms(50));
  Rng rng(10);
  PollRound& first = agent.begin(1, ids(4), 1, 0, rng);
  ASSERT_EQ(first.on_reply(first.targets()[0], 0, 1),
            ReplyStatus::kAccepted);
  agent.decide(first, 2, {}, rng, {});
  const std::vector<ServerId> pool = {3};
  PollRound& second = agent.begin(2, ids(4), 1, 3, rng);
  EXPECT_TRUE(agent.decide(second, 4, pool, rng, {}).blind);
}

TEST(PollRoundTest, RetiredRoundsAreReused) {
  Rng rng(11);
  PollAgent agent(PolicyConfig::polling(3), from_ms(50));
  PollRound& a = agent.begin(1, ids(8), 3, 0, rng);
  PollRound& b = agent.begin(2, ids(8), 3, 0, rng);
  EXPECT_NE(&a, &b);  // concurrent rounds are distinct
  for (const ServerId t : a.targets()) a.on_reply(t, 1, 1);
  agent.decide(a, 2, {}, rng, {});
  PollRound& c = agent.begin(3, ids(8), 3, 5, rng);
  EXPECT_EQ(&c, &a);  // the retired round comes back...
  EXPECT_EQ(c.id(), 3u);
  EXPECT_FALSE(c.decided());
  EXPECT_TRUE(c.replies().empty());  // ...empty, under its new id
  EXPECT_EQ(c.deadline(), 5 + from_ms(50));
}

}  // namespace
}  // namespace finelb::core
