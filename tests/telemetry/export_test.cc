#include "telemetry/export.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace finelb::telemetry {
namespace {

MetricsSnapshot sample_snapshot() {
  MetricsSnapshot snap;
  snap.node = "server.3";
  snap.counters = {{"requests_served", 120}, {"polls_discarded", 4}};
  snap.gauges = {{"queue_depth", 2}};
  snap.values = {{"utilization", 0.731}};
  HistogramSnapshot hist;
  hist.name = "service_time_ms";
  hist.count = 120;
  hist.mean = 5.2;
  hist.p50 = 4.9;
  hist.p95 = 9.4;
  hist.p99 = 12.7;
  hist.min = 1.0;
  hist.max = 16.0;
  hist.buckets = {{4.9, 80}, {9.4, 40}};
  snap.histograms.push_back(hist);
  return snap;
}

TEST(ExportTest, JsonContainsEveryMetricFamily) {
  const std::string json = to_json(sample_snapshot());
  EXPECT_NE(json.find("\"node\":\"server.3\""), std::string::npos);
  EXPECT_NE(json.find("\"requests_served\":120"), std::string::npos);
  EXPECT_NE(json.find("\"polls_discarded\":4"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\":2"), std::string::npos);
  EXPECT_NE(json.find("\"utilization\":0.731"), std::string::npos);
  EXPECT_NE(json.find("\"service_time_ms\":{\"count\":120"),
            std::string::npos);
  EXPECT_NE(json.find("\"p99\":12.7"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[[4.9,80],[9.4,40]]"), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ExportTest, JsonEscapesNodeNames) {
  MetricsSnapshot snap;
  snap.node = "we\"ird\\node\n";
  const std::string json = to_json(snap);
  EXPECT_NE(json.find("we\\\"ird\\\\node\\n"), std::string::npos);
}

TEST(ExportTest, JsonWithTraceAppendsRecords) {
  std::vector<TraceRecord> trace;
  TraceRecord rec;
  rec.request_id = 42;
  rec.point = TracePoint::kPollDiscard;
  rec.node = 3;
  rec.at_ns = 123456;
  rec.detail = 9;
  trace.push_back(rec);
  const std::string json = to_json(sample_snapshot(), trace);
  EXPECT_NE(json.find("\"trace\":[{\"request\":42,\"point\":"
                      "\"poll_discard\",\"node\":3,\"t_ns\":123456,"
                      "\"detail\":9}]"),
            std::string::npos);
}

TEST(ExportTest, TextMentionsEveryMetric) {
  const std::string text = to_text(sample_snapshot());
  EXPECT_NE(text.find("server.3"), std::string::npos);
  EXPECT_NE(text.find("requests_served"), std::string::npos);
  EXPECT_NE(text.find("queue_depth"), std::string::npos);
  EXPECT_NE(text.find("service_time_ms"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
}

TEST(ExportTest, ClusterJsonMergesNodeDocuments) {
  const std::string cluster = cluster_to_json(
      {to_json(sample_snapshot()), "{\"node\":\"client.0\"}"});
  EXPECT_EQ(cluster.rfind("{\"nodes\":[", 0), 0u);
  EXPECT_NE(cluster.find("\"node\":\"server.3\""), std::string::npos);
  EXPECT_NE(cluster.find("\"node\":\"client.0\""), std::string::npos);
  EXPECT_EQ(cluster.back(), '}');
}

TEST(ExportTest, DumpRequestFlagIsConsumedOnce) {
  (void)consume_dump_request();  // drain any prior state
  EXPECT_FALSE(consume_dump_request());
  trigger_stats_dump();
  EXPECT_TRUE(consume_dump_request());
  EXPECT_FALSE(consume_dump_request());
}

TEST(ExportTest, Sigusr1DeliverySetsDumpFlag) {
  // End-to-end through real signal delivery: the installed handler must do
  // nothing but set the flag (async-signal-safety audit rides on the
  // static_assert + comment in export.cc; this pins the behavior).
  install_sigusr1_dump_handler();
  (void)consume_dump_request();
  EXPECT_FALSE(consume_dump_request());
  ASSERT_EQ(std::raise(SIGUSR1), 0);
  EXPECT_TRUE(consume_dump_request());
  EXPECT_FALSE(consume_dump_request());

  // A second delivery works too — the disposition persists (sigaction, not
  // one-shot signal()).
  ASSERT_EQ(std::raise(SIGUSR1), 0);
  EXPECT_TRUE(consume_dump_request());
}

TEST(ExportTest, StderrReporterDumpsOnRequest) {
  std::atomic<int> collects{0};
  {
    StderrReporter reporter([&] { return (++collects, std::string()); },
                            /*period=*/0);
    trigger_stats_dump();
    for (int i = 0; i < 100 && collects.load() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_GE(collects.load(), 1);
}

TEST(ExportTest, StderrReporterPeriodicDumps) {
  std::atomic<int> collects{0};
  {
    StderrReporter reporter([&] { return (++collects, std::string()); },
                            /*period=*/30 * kMillisecond);
    for (int i = 0; i < 100 && collects.load() < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_GE(collects.load(), 2);
}

// The reporter sleeps until its next period, a dump request or stop(), so
// stop() does not wait for a period to end.
TEST(ExportTest, StderrReporterStopsPromptly) {
  std::vector<std::unique_ptr<StderrReporter>> reporters;
  for (int i = 0; i < 16; ++i) {
    reporters.push_back(std::make_unique<StderrReporter>(
        [] { return std::string(); }, /*period=*/10 * kSecond));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const auto start = std::chrono::steady_clock::now();
  for (auto& reporter : reporters) reporter->stop();
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_LT(took, std::chrono::milliseconds(50))
      << std::chrono::duration<double, std::milli>(took).count()
      << " ms for 16 stops";
}

}  // namespace
}  // namespace finelb::telemetry
