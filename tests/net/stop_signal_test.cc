#include "net/stop_signal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>

#include "net/clock.h"
#include "net/poller.h"
#include "net/socket.h"

namespace finelb::net {
namespace {

// Generous enough for sanitizer builds on a loaded host; the point is
// "woken by the signal", not "woken fast".
constexpr SimDuration kWakeBound = 2 * kSecond;

TEST(StopSignalTest, NotifyBeforeWaitReturnsAtOnce) {
  StopSignal signal;
  signal.notify();
  const SimTime start = monotonic_now();
  EXPECT_TRUE(signal.sleep_until(start + 60 * kSecond));
  Poller poller;
  poller.add(signal.fd(), 7);
  for (int i = 0; i < 3; ++i) {
    // Stays readable: every later wait returns at once too.
    const auto ready = poller.wait(-1);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0].tag, 7u);
    EXPECT_TRUE(ready[0].readable);
  }
  EXPECT_LT(monotonic_now() - start, kWakeBound);

  signal.notify();  // idempotent
  EXPECT_TRUE(signal.sleep_until(start));
}

TEST(StopSignalTest, WakesThreadBlockedInPollerWait) {
  StopSignal signal;
  UdpSocket idle;  // never receives anything
  std::atomic<bool> woke{false};
  std::atomic<SimTime> woke_at{0};
  std::thread waiter([&] {
    Poller poller;
    poller.add(idle.fd(), 0);
    poller.add(signal.fd(), 1);
    const auto ready = poller.wait(-1);
    woke_at.store(monotonic_now());
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0].tag, 1u);
    woke.store(true);
  });
  sleep_for(30 * kMillisecond);
  EXPECT_FALSE(woke.load()) << "the waiter must block until notify()";
  const SimTime notified_at = monotonic_now();
  signal.notify();
  waiter.join();
  EXPECT_TRUE(woke.load());
  EXPECT_LT(woke_at.load() - notified_at, kWakeBound);
}

TEST(StopSignalTest, TimedSleepReturnsFalseAtItsDeadline) {
  StopSignal signal;
  const SimTime start = monotonic_now();
  const SimTime deadline = start + 20 * kMillisecond;
  EXPECT_FALSE(signal.sleep_until(deadline));
  EXPECT_GE(monotonic_now(), deadline);
  // A deadline already past returns at once, still unsignalled.
  EXPECT_FALSE(signal.sleep_until(start));
}

TEST(StopSignalTest, TimedSleepReturnsTrueOnNotify) {
  StopSignal signal;
  const SimTime start = monotonic_now();  // before the notifier can run
  std::thread notifier([&] {
    sleep_for(20 * kMillisecond);
    signal.notify();
  });
  EXPECT_TRUE(signal.sleep_until(start + 60 * kSecond));
  const SimDuration slept = monotonic_now() - start;
  notifier.join();
  EXPECT_GE(slept, 20 * kMillisecond);
  EXPECT_LT(slept, kWakeBound);
}

TEST(StopSignalTest, ResetRearmsTheSignal) {
  StopSignal signal;
  signal.notify();
  signal.reset();
  EXPECT_FALSE(signal.sleep_until(monotonic_now() + 5 * kMillisecond));
  signal.notify();
  EXPECT_TRUE(signal.sleep_until(monotonic_now() + 60 * kSecond));
}

TEST(PollerTest, WaitUntilHonoursAbsoluteDeadlines) {
  UdpSocket idle;
  Poller poller;
  poller.add(idle.fd(), 0);
  const SimTime start = monotonic_now();
  EXPECT_TRUE(poller.wait_until(start - kSecond).empty());  // already past
  EXPECT_TRUE(poller.wait_until(start + 10 * kMillisecond).empty());
  EXPECT_GE(monotonic_now(), start + 10 * kMillisecond);

  // nullopt blocks until an fd is ready.
  StopSignal signal;
  poller.add(signal.fd(), 1);
  std::thread notifier([&] {
    sleep_for(10 * kMillisecond);
    signal.notify();
  });
  const auto ready = poller.wait_until(std::nullopt);
  notifier.join();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].tag, 1u);
}

}  // namespace
}  // namespace finelb::net
