// The availability directory's read path, run by the layer probes of the
// traced run (not a benchmark workload; see harness.h). Callers run
// DirectoryClient::try_fetch closed-loop against a 3-replica
// HaDirectoryCluster holding 16 endpoints, which a publisher keeps alive
// with soft-state Publish refreshes at the prototype's 250 ms default.
// Every fetch carries the 16-entry SnapshotReply through net,
// cluster/directory and cluster/ha — a path the other workloads touch only
// at set-up.
//
// Two phases of up to kMaxWindows windows, each window on a freshly brought-up
// replica set; every metric combines a phase's windows with over_windows():
//   light  — one closed-loop caller;
//   loaded — kLoadedCallers closed-loop callers, one thread each.
// throughput_per_s is the CPU-bound fetch rate of the loaded phase: nproc *
// fetches / process CPU seconds.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "cluster/directory.h"
#include "cluster/ha/replica.h"
#include "net/message.h"
#include "net/socket.h"
#include "probes.h"

namespace perfbench {
namespace {

constexpr int kEntries = 16;
constexpr std::int32_t kReplicas = 3;
/// Loaded callers: with the leader's serving thread that keeps 3 of the
/// host's 4 CPUs busy, so callers and leader do not queue for a CPU.
constexpr int kLoadedCallers = 2;
/// Windows per phase, each on a freshly brought-up replica set. Thread
/// placement differs per bring-up and moves the fetch latency between two
/// levels (about 10 and 20 us on a 4-vCPU host); with this many windows the
/// median lands on the common level. Short runs use fewer windows of at
/// least kMinWindowSeconds.
constexpr int kMaxWindows = 16;
constexpr double kMinWindowSeconds = 0.6;
constexpr const char* kService = "perfbench";
constexpr finelb::SimDuration kPublishInterval = finelb::kSecond / 4;
constexpr std::uint32_t kPublishTtlMs = 2000;
constexpr finelb::SimDuration kFetchTimeout = finelb::kSecond;
constexpr int kWarmupFetches = 200;

/// Soft-state publisher: re-announces kEntries endpoints to every replica
/// each kPublishInterval, as kEntries ServerNodes would.
class Publisher {
 public:
  explicit Publisher(std::vector<finelb::net::Address> replicas)
      : replicas_(std::move(replicas)), thread_([this] { loop(); }) {}
  ~Publisher() {
    running_.store(false);
    thread_.join();
  }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

 private:
  void publish_all() {
    for (int i = 0; i < kEntries; ++i) {
      finelb::net::Publish p;
      p.service = kService;
      p.server = i;
      p.service_port = static_cast<std::uint16_t>(40000 + i);
      p.load_port = static_cast<std::uint16_t>(41000 + i);
      p.ttl_ms = kPublishTtlMs;
      std::array<std::uint8_t, 256> buf{};
      const std::size_t n = p.encode_into(buf);
      for (const auto& replica : replicas_) socket_.send_to({buf.data(), n}, replica);
    }
  }
  void loop() {
    while (running_.load()) {
      publish_all();
      const std::int64_t until = now_ns() + kPublishInterval;
      while (running_.load() && now_ns() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }

  std::vector<finelb::net::Address> replicas_;
  finelb::net::UdpSocket socket_;
  std::atomic<bool> running_{true};
  std::thread thread_;  // last: starts after the members it uses
};

struct Plane {
  std::unique_ptr<finelb::cluster::ha::HaDirectoryCluster> cluster;
  std::unique_ptr<Publisher> publisher;
  double setup_s = 0.0;
};

Plane bring_up(std::uint64_t seed) {
  ScopedSpan span("cluster/ha/bring_up");
  const std::int64_t t0 = now_ns();
  Plane plane;
  finelb::cluster::ha::HaReplicaConfig config;
  config.seed = seed;
  plane.cluster =
      std::make_unique<finelb::cluster::ha::HaDirectoryCluster>(kReplicas, config);
  if (plane.cluster->wait_for_leader() < 0) {
    throw std::runtime_error("replicated directory never elected a leader");
  }
  plane.publisher = std::make_unique<Publisher>(plane.cluster->data_addresses());
  finelb::cluster::DirectoryClient probe(plane.cluster->data_addresses(), seed + 1);
  const auto entries = probe.wait_for_servers(kService, kEntries);
  if (entries.size() != static_cast<std::size_t>(kEntries)) {
    throw std::runtime_error("directory never listed every endpoint");
  }
  plane.setup_s = seconds_between(t0, now_ns());
  return plane;
}

struct Caller {
  std::vector<double> latency_us;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t retries = 0;
  std::int64_t failovers = 0;
  std::int64_t redirects = 0;
};

/// Closed loop: fetch, check, repeat until `seconds` have passed. Warm-up
/// fetches settle the client on the leader and are not counted.
void run_caller(const Plane& plane, std::uint64_t seed, double seconds,
                Caller& out) {
  finelb::cluster::DirectoryClient client(plane.cluster->data_addresses(), seed);
  for (int i = 0; i < kWarmupFetches; ++i) (void)client.try_fetch(kService, kFetchTimeout);
  const std::int64_t retries0 = client.snapshot_retries();
  const std::int64_t failovers0 = client.failovers();
  const std::int64_t redirects0 = client.redirects_followed();
  out.latency_us.reserve(200'000);
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < end) {
    // Every 16th fetch gets a span: enough to see it, small enough to write.
    const std::int32_t span = out.attempted % 16 == 0
                                  ? tracer().begin("cluster/DirectoryClient::try_fetch")
                                  : -1;
    const std::int64_t t0 = now_ns();
    const auto fetched = client.try_fetch(kService, kFetchTimeout);
    const std::int64_t t1 = now_ns();
    tracer().end(span);
    ++out.attempted;
    if (!fetched || fetched->size() != static_cast<std::size_t>(kEntries)) {
      ++out.failed;
      continue;
    }
    out.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  out.retries = client.snapshot_retries() - retries0;
  out.failovers = client.failovers() - failovers0;
  out.redirects = client.redirects_followed() - redirects0;
}

/// One window: a fresh replica set, `callers` closed-loop callers for
/// `seconds`, their results merged.
struct Window {
  Caller merged;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double process_cpu_s = 0.0;

  double p(double q) const {
    std::vector<double> samples = merged.latency_us;
    return quantile(samples, q);
  }
  /// Fetches/s the host's CPUs carry at this window's cost: nproc *
  /// fetches / process CPU seconds.
  double cpu_capacity() const {
    return static_cast<double>(std::thread::hardware_concurrency()) *
           static_cast<double>(merged.latency_us.size()) / process_cpu_s;
  }
  double fetches_per_s() const {
    return static_cast<double>(merged.latency_us.size()) / wall_s;
  }
  double mean_us() const { return mean(merged.latency_us); }
};

Window run_window(std::uint64_t seed, int callers, double seconds) {
  Plane plane = bring_up(seed);
  Window window;
  window.setup_s = plane.setup_s;
  std::vector<Caller> results(static_cast<std::size_t>(callers));
  const std::int64_t t0 = now_ns();
  const double cpu0 = process_cpu_s();
  std::vector<std::thread> threads;
  for (int i = 0; i < callers; ++i) {
    threads.emplace_back([&, i] {
      run_caller(plane, seed + 10 + static_cast<std::uint64_t>(i), seconds,
                 results[static_cast<std::size_t>(i)]);
    });
  }
  for (auto& t : threads) t.join();
  window.wall_s = seconds_between(t0, now_ns());
  window.process_cpu_s = process_cpu_s() - cpu0;
  Caller& m = window.merged;
  for (const Caller& c : results) {
    m.latency_us.insert(m.latency_us.end(), c.latency_us.begin(), c.latency_us.end());
    m.attempted += c.attempted;
    m.failed += c.failed;
    m.retries += c.retries;
    m.failovers += c.failovers;
    m.redirects += c.redirects;
  }
  return window;
}

template <class Stat>
double over(const std::vector<Window>& windows, Stat stat) {
  std::vector<double> values;
  for (const Window& w : windows) values.push_back(stat(w));
  return over_windows(std::move(values));
}

}  // namespace

void run_control_plane_fetch(const Options& options, Report& report) {
  const int windows = std::clamp(
      static_cast<int>(0.5 * options.seconds / kMinWindowSeconds), 2, kMaxWindows);
  const double window_s = 0.5 * options.seconds / windows;
  const std::int64_t first_start = now_ns();
  std::vector<Window> light;
  std::vector<Window> loaded;
  {
    ScopedSpan span("bench/light_phase");
    for (int i = 0; i < windows; ++i) {
      light.push_back(run_window(options.seed + 100 * static_cast<std::uint64_t>(i),
                                 1, window_s));
    }
  }
  {
    ScopedSpan span("bench/loaded_phase");
    for (int i = 0; i < windows; ++i) {
      loaded.push_back(run_window(options.seed + 100 * static_cast<std::uint64_t>(i) + 50,
                                  kLoadedCallers, window_s));
    }
  }
  // The first set-up also covers process start.
  light.front().setup_s += seconds_between(g_process_start_ns, first_start);

  std::vector<double> setup_s;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t retries = 0;
  std::int64_t failovers = 0;
  std::int64_t redirects = 0;
  for (const auto* phase : {&light, &loaded}) {
    for (const Window& w : *phase) {
      setup_s.push_back(w.setup_s);
      attempted += w.merged.attempted;
      failed += w.merged.failed;
      retries += w.merged.retries;
      failovers += w.merged.failovers;
      redirects += w.merged.redirects;
    }
  }
  report.check(failed == 0 && attempted > 0,
               "control.every_fetch_returned_all_endpoints",
               std::to_string(failed) + " of " + std::to_string(attempted) +
                   " fetches failed or were short");
  report.add_operations(attempted, failed);

  const auto p50 = [](const Window& w) { return w.p(0.5); };
  const auto p90 = [](const Window& w) { return w.p(0.9); };
  report.metric("setup_s", median(setup_s), "s");
  report.metric("throughput_per_s",
                over(loaded, [](const Window& w) { return w.cpu_capacity(); }), "1/s");
  report.info("control.fetches_per_wall_s",
              over(loaded, [](const Window& w) { return w.fetches_per_s(); }));
  report.metric("latency_mean_us",
                over(loaded, [](const Window& w) { return w.mean_us(); }), "us");
  report.metric("latency_p50_us.light", over(light, p50), "us");
  report.metric("latency_p90_us.light", over(light, p90), "us");
  report.metric("latency_p50_us.loaded", over(loaded, p50), "us");
  report.metric("latency_p90_us.loaded", over(loaded, p90), "us");
  report.info("control.fetches", static_cast<double>(attempted));

  if (options.trace) {
    const auto p99 = [](const Window& w) { return w.p(0.99); };
    report.layer("bench.latency_p99_us.light", over(light, p99), "us");
    report.layer("bench.latency_p99_us.loaded", over(loaded, p99), "us");
    report.layer("ha.snapshot_retries", static_cast<double>(retries), "count");
    report.layer("ha.failovers", static_cast<double>(failovers), "count");
    report.layer("ha.redirects", static_cast<double>(redirects), "count");
  }
}

}  // namespace perfbench
