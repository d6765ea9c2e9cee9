#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace finelb::telemetry {
namespace {

std::int64_t counter_value(const MetricsSnapshot& snap,
                           const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return -1;
}

const HistogramSnapshot* find_histogram(const MetricsSnapshot& snap,
                                        const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

TEST(RegistryTest, CounterGaugeHistogramRoundTrip) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  Registry registry;
  Counter c = registry.counter("requests_served");
  Gauge g = registry.gauge("queue_depth");
  Histogram h = registry.histogram("service_time_ms");
  c.add(3);
  c.inc();
  g.set(7);
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));

  const MetricsSnapshot snap = registry.snapshot("node");
  EXPECT_EQ(snap.node, "node");
  EXPECT_EQ(counter_value(snap, "requests_served"), 4);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 7);
  const HistogramSnapshot* hist = find_histogram(snap, "service_time_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 100);
  EXPECT_NEAR(hist->mean, 50.5, 1e-9);  // sum is exact, not bucketized
  EXPECT_NEAR(hist->p50, 50.0, 50.0 * 0.07);
  EXPECT_NEAR(hist->p99, 99.0, 99.0 * 0.07);
  EXPECT_GT(hist->max, 99.0);
  EXPECT_LE(hist->min, 1.0);
  EXPECT_FALSE(hist->buckets.empty());
  std::int64_t bucket_total = 0;
  for (const auto& [value, count] : hist->buckets) bucket_total += count;
  EXPECT_EQ(bucket_total, hist->count);
}

TEST(RegistryTest, SameNameReturnsSameCell) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  Registry registry;
  registry.counter("x").inc();
  registry.counter("x").inc();
  registry.histogram("h").record(1.0);
  registry.histogram("h").record(2.0);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(counter_value(snap, "x"), 2);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 2);
}

TEST(RegistryTest, ProbeGaugeEvaluatedAtSnapshot) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  Registry registry;
  std::atomic<std::int64_t> qlen{0};
  registry.probe("queue_depth", [&] { return qlen.load(); });
  qlen.store(42);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "queue_depth");
  EXPECT_EQ(snap.gauges[0].second, 42);
}

TEST(RegistryTest, DefaultConstructedHandlesAreInertNoOps) {
  Counter c;
  Gauge g;
  Histogram h;
  c.inc();
  g.set(5);
  h.record(1.0);  // must not crash
}

TEST(RegistryTest, DisabledBuildYieldsEmptySnapshots) {
  if (kEnabled) GTEST_SKIP() << "covered by the FINELB_TELEMETRY=OFF build";
  Registry registry;
  registry.counter("x").inc();
  registry.histogram("h").record(1.0);
  const MetricsSnapshot snap = registry.snapshot("node");
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

// Heavy concurrent increments with a scraper running throughout: every
// snapshot must be internally consistent. Writers only ever add 2 at a time,
// so any odd counter value — or a histogram whose bucket sum disagrees with
// its count — would prove a torn read. Run under TSan via `-L runtime`.
TEST(RegistryConcurrencyTest, ScrapeDuringHeavyWritesNeverTearsCounters) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  Registry registry;
  constexpr int kWriters = 4;
  constexpr int kIters = 50000;
  std::atomic<bool> stop{false};
  // Writers start once the scraper has taken its first snapshot, so the
  // scrapes overlap the writes however the threads are scheduled.
  std::atomic<bool> scraping{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, &scraping] {
      Counter c = registry.counter("paired");
      Histogram h = registry.histogram("latency_ms");
      while (!scraping.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kIters; ++i) {
        c.add(2);
        h.record(0.5 + static_cast<double>(i % 100));
      }
    });
  }

  std::int64_t last_count = 0;
  std::int64_t last_counter = 0;
  int scrapes = 0;
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsSnapshot snap = registry.snapshot();
      ++scrapes;
      const std::int64_t paired = counter_value(snap, "paired");
      if (paired >= 0) {
        EXPECT_EQ(paired % 2, 0) << "torn counter";
        EXPECT_GE(paired, last_counter) << "counter went backwards";
        last_counter = paired;
      }
      if (const HistogramSnapshot* h = find_histogram(snap, "latency_ms")) {
        std::int64_t bucket_total = 0;
        for (const auto& [value, count] : h->buckets) bucket_total += count;
        EXPECT_EQ(bucket_total, h->count)
            << "count and buckets must agree mid-write";
        EXPECT_GE(h->count, last_count) << "histogram went backwards";
        last_count = h->count;
      }
      scraping.store(true, std::memory_order_release);
    }
  });

  for (auto& t : writers) t.join();
  stop.store(true);
  scraper.join();
  EXPECT_GT(scrapes, 0);

  const MetricsSnapshot final_snap = registry.snapshot();
  EXPECT_EQ(counter_value(final_snap, "paired"), 2LL * kWriters * kIters);
  const HistogramSnapshot* h = find_histogram(final_snap, "latency_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<std::int64_t>(kWriters) * kIters);
  EXPECT_GT(h->mean, 0.0);
}

// Creating metrics while other threads record and scrape: registration takes
// the registry mutex, recording does not — they must still compose safely.
TEST(RegistryConcurrencyTest, ConcurrentRegistrationAndRecording) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  Registry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < 200; ++i) {
        Counter c = registry.counter("shared");
        c.inc();
        Histogram h =
            registry.histogram(t % 2 == 0 ? "hist_even" : "hist_odd");
        h.record(static_cast<double>(i));
        if (i % 10 == 0) (void)registry.snapshot();
      }
    });
  }
  for (auto& t : threads) t.join();
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(counter_value(snap, "shared"), 4 * 200);
}

}  // namespace
}  // namespace finelb::telemetry
