// Layer probes for the traced run. Each probe times calls into one layer's
// public functions, from outside, with inputs derived from the run's seed.
// The workload's own run fills the per-layer metrics it can measure
// directly (the sim workload its sim.* numbers, the dispatch workload its
// cluster.* numbers, ...); run_layer_probes() fills the rest with short
// stand-alone runs, so every traced run reports the same metric names.
#include "probes.h"

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "cluster/blocking_queue.h"
#include "cluster/directory.h"
#include "common/rng.h"
#include "core/policy.h"
#include "core/selection.h"
#include "net/message.h"
#include "net/poller.h"
#include "net/socket.h"
#include "sim/engine.h"
#include "stats/accumulator.h"
#include "stats/log_buckets.h"
#include "workload/catalog.h"

namespace perfbench {

using finelb::SimDuration;
using finelb::kMicrosecond;
using finelb::kSecond;

double hist_quantile(const finelb::LatencyHistogram& hist, double q) {
  const std::int64_t n = hist.count();
  if (n == 0) return 0.0;
  const finelb::LogBucketing scheme;  // LatencyHistogram's default geometry
  const std::size_t b = scheme.index(hist.quantile(q));
  if (b == 0) return 0.0;
  // fraction_above(x) counts the buckets strictly above x's bucket.
  const double total = static_cast<double>(n);
  const double at_or_above = hist.fraction_above(scheme.representative(b - 1)) * total;
  const double above = hist.fraction_above(scheme.representative(b)) * total;
  const double in_bucket = at_or_above - above;
  const double below = total - at_or_above;
  const double rank = std::ceil(q * total);
  if (in_bucket <= 0.0) return scheme.representative(b);
  const double position = std::clamp((rank - below - 0.5) / in_bucket, 0.0, 1.0);
  return scheme.lower(b) + position * (scheme.upper(b) - scheme.lower(b));
}

finelb::sim::SimConfig sim_config(double load, std::int64_t accesses,
                                  std::uint64_t seed) {
  finelb::sim::SimConfig config;
  config.servers = 16;
  config.clients = 6;
  config.policy = finelb::PolicyConfig::polling(3);
  config.load = load;
  config.total_requests = accesses;
  config.warmup_requests = accesses / 10;
  config.seed = seed;
  return config;
}

// --- sim, workload, core, stats -------------------------------------------------

namespace {

/// Replays an event stream on a bare Engine: kPending self-rescheduling
/// events whose delays mix the cluster model's two time scales, message
/// legs (129-145 us) and Fine-Grain service completions (~22 ms). Delays
/// are drawn before the clock starts, so only schedule_at/run is timed.
double engine_ns_per_event(std::int64_t events, std::uint64_t seed,
                           double messages_per_access) {
  constexpr std::size_t kDelays = 4096;
  finelb::Rng rng(seed);
  const double service_share = 1.0 / (messages_per_access + 1.0);
  std::vector<SimDuration> delays(kDelays);
  for (SimDuration& d : delays) {
    d = rng.bernoulli(service_share)
            ? static_cast<SimDuration>(rng.exponential(22.2e6))
            : finelb::from_us(rng.uniform(129.0, 145.0));
  }
  struct Replay {
    finelb::sim::Engine engine;
    const std::vector<SimDuration>* delays = nullptr;
    std::int64_t remaining = 0;
    void fire() {
      if (--remaining <= 0) return;
      const SimDuration delay =
          (*delays)[static_cast<std::size_t>(remaining) & (kDelays - 1)];
      engine.schedule_after(delay, [this] { fire(); });
    }
  };
  constexpr int kPending = 64;
  Replay replay;
  replay.delays = &delays;
  replay.remaining = events;
  for (int i = 0; i < kPending; ++i) {
    replay.engine.schedule_at(delays[static_cast<std::size_t>(i)],
                              [&replay] { replay.fire(); });
  }
  ScopedSpan span("sim/Engine::run");
  const std::int64_t t0 = now_ns();
  replay.engine.run();
  const double ns = static_cast<double>(now_ns() - t0);
  return ns / static_cast<double>(std::max<std::uint64_t>(
                  replay.engine.events_processed(), 1));
}

}  // namespace

void report_sim_layers(const finelb::sim::SimResult& result, double run_s,
                       std::int64_t accesses, const finelb::Workload& workload,
                       std::uint64_t seed, Report& report) {
  const double completed = static_cast<double>(std::max<std::int64_t>(result.completed, 1));
  const double messages_per_access = static_cast<double>(result.messages) / completed;
  // Per access: one arrival, one service completion, one delivery per
  // message leg.
  const double events_per_access = messages_per_access + 2.0;
  const double engine_ns = engine_ns_per_event(
      static_cast<std::int64_t>(events_per_access * 200'000), seed,
      messages_per_access);

  finelb::Rng rng(seed);
  double next_ns = 0.0;
  {
    ScopedSpan span("workload/RequestSource::next");
    auto source = workload.make_source(workload.arrival_scale_for_load(0.9, 16), seed);
    next_ns = ns_per_call(
        [&](std::int64_t n) {
          std::int64_t sink = 0;
          for (std::int64_t i = 0; i < n; ++i) sink += source->next().service_time;
          keep(sink);
        },
        4096, 0.05);
  }

  std::vector<finelb::ServerId> candidates(16);
  for (int i = 0; i < 16; ++i) candidates[static_cast<std::size_t>(i)] = i;
  std::vector<finelb::ServerId> poll_set;
  poll_set.reserve(3);
  double poll_set_ns = 0.0;
  {
    ScopedSpan span("core/choose_poll_set_into");
    poll_set_ns = ns_per_call(
        [&](std::int64_t n) {
          for (std::int64_t i = 0; i < n; ++i) {
            finelb::choose_poll_set_into(candidates, 3, rng, poll_set);
          }
        },
        4096, 0.05);
  }

  std::vector<std::array<finelb::ServerLoad, 3>> polled(1024);
  for (auto& set : polled) {
    for (std::size_t k = 0; k < set.size(); ++k) {
      set[k].server = static_cast<finelb::ServerId>(rng.uniform_int(16));
      set[k].queue_length = static_cast<std::int32_t>(rng.uniform_int(6));
    }
  }
  double pick_ns = 0.0;
  {
    ScopedSpan span("core/pick_least_loaded");
    pick_ns = ns_per_call(
        [&](std::int64_t n) {
          std::int64_t sink = 0;
          for (std::int64_t i = 0; i < n; ++i) {
            sink += finelb::pick_least_loaded(polled[static_cast<std::size_t>(i) & 1023], rng);
          }
          keep(sink);
        },
        4096, 0.05);
  }

  std::vector<double> values(4096);
  for (double& v : values) v = rng.lognormal(3.0, 0.6);
  finelb::LatencyHistogram hist;
  finelb::Accumulator acc;
  double hist_ns = 0.0;
  {
    ScopedSpan span("stats/LatencyHistogram::add");
    hist_ns = ns_per_call(
        [&](std::int64_t n) {
          for (std::int64_t i = 0; i < n; ++i) {
            const double v = values[static_cast<std::size_t>(i) & 4095];
            hist.add(v);
            acc.add(v);
          }
        },
        4096, 0.05);
  }

  const double run_ns_per_access = run_s * 1e9 / static_cast<double>(accesses);
  report.layer("sim.run_s_per_maccess", run_s * 1e6 / static_cast<double>(accesses), "s");
  report.layer("sim.engine_ns_per_event", engine_ns, "ns");
  report.layer("sim.events_per_access", events_per_access, "count");
  report.layer("sim.residual_ns_per_access",
               run_ns_per_access - events_per_access * engine_ns - next_ns -
                   poll_set_ns - pick_ns - hist_ns,
               "ns");
  report.layer("sim.decision_mistake_rate", result.decision_mistake_rate(), "ratio");
  report.layer("sim.queue_on_arrival_mean", result.queue_on_arrival.mean(), "count");
  report.layer("sim.messages_per_access", messages_per_access, "count");
  report.layer("workload.next_ns", next_ns, "ns");
  report.layer("core.poll_set_ns", poll_set_ns, "ns");
  report.layer("core.pick_ns", pick_ns, "ns");
  report.layer("stats.hist_add_ns", hist_ns, "ns");
}

// --- lifecycle split of merged runtime traces -------------------------------------

void report_lifecycle(const std::vector<finelb::telemetry::NodeTrace>& traces,
                      Report& report) {
  using finelb::telemetry::TracePoint;
  struct Access {
    std::int64_t enqueue = -1, pick = -1, dispatch = -1;
    std::int64_t service_start = -1, server_response = -1, client_response = -1;
    std::int64_t queue_wait = -1;
  };
  std::map<std::uint64_t, Access> accesses;
  const auto merged = finelb::telemetry::merge_traces(traces);
  tracer().keep_lifecycle(finelb::telemetry::to_chrome_trace_json(merged, traces));
  for (const auto& m : merged) {
    const bool client =
        traces[static_cast<std::size_t>(m.source)].source.rfind("client", 0) == 0;
    Access& a = accesses[m.record.request_id];
    const std::int64_t t = m.record.at_ns;
    switch (m.record.point) {
      case TracePoint::kClientEnqueue: a.enqueue = t; break;
      case TracePoint::kServerPick: a.pick = t; break;
      case TracePoint::kDispatch: a.dispatch = t; break;
      case TracePoint::kServiceStart:
        a.service_start = t;
        a.queue_wait = m.record.detail;
        break;
      case TracePoint::kResponse:
        (client ? a.client_response : a.server_response) = t;
        break;
      default: break;
    }
  }
  std::vector<double> poll, pick, hop_in, service, hop_out, wait;
  for (const auto& [id, a] : accesses) {
    if (a.enqueue < 0 || a.pick < 0 || a.dispatch < 0 || a.service_start < 0 ||
        a.server_response < 0 || a.client_response < 0) {
      continue;
    }
    poll.push_back(static_cast<double>(a.pick - a.enqueue) / 1e3);
    pick.push_back(static_cast<double>(a.dispatch - a.pick) / 1e3);
    hop_in.push_back(static_cast<double>(a.service_start - a.dispatch) / 1e3);
    service.push_back(static_cast<double>(a.server_response - a.service_start) / 1e3);
    hop_out.push_back(static_cast<double>(a.client_response - a.server_response) / 1e3);
    wait.push_back(static_cast<double>(a.queue_wait) / 1e3);
  }
  report.layer("lifecycle.traced_accesses", static_cast<double>(poll.size()), "count");
  report.layer("lifecycle.poll_round_p50_us", median(poll), "us");
  report.layer("lifecycle.pick_to_dispatch_p50_us", median(pick), "us");
  report.layer("lifecycle.dispatch_to_service_start_p50_us", median(hop_in), "us");
  report.layer("lifecycle.service_p50_us", median(service), "us");
  report.layer("lifecycle.response_hop_p50_us", median(hop_out), "us");
  report.layer("cluster.server_queue_wait_p50_us", median(wait), "us");
  report.layer("cluster.server_service_p50_us", median(service), "us");
}

// --- net and cluster probes ----------------------------------------------------------

namespace {

constexpr int kRounds = 1000;
/// Gap between probe rounds, so each round finds its threads asleep, as a
/// light-rate access does.
constexpr auto kGap = std::chrono::microseconds(200);

struct Percentiles {
  double p50 = 0.0;
  double p99 = 0.0;
};

Percentiles percentiles(std::vector<double> samples) {
  Percentiles p;
  p.p99 = quantile(samples, 0.99);
  p.p50 = quantile(samples, 0.5);
  return p;
}

template <class Msg>
void round_trip(const Msg& msg, std::array<std::uint8_t, finelb::net::kMaxFixedMsgSize>& buf,
                Msg& out) {
  const std::size_t n = msg.encode_into(buf);
  if (!Msg::try_decode({buf.data(), n}, out)) std::abort();
}

/// Encode + decode of the 8 datagrams one polling(3) access puts on the
/// wire: 3 LoadInquiry, 3 LoadReply, ServiceRequest, ServiceResponse.
double codec_ns_per_access(std::uint64_t seed) {
  finelb::Rng rng(seed);
  finelb::net::LoadInquiry inquiry;
  finelb::net::LoadReply reply;
  finelb::net::ServiceRequest request;
  finelb::net::ServiceResponse response;
  finelb::net::LoadInquiry inquiry_out;
  finelb::net::LoadReply reply_out;
  finelb::net::ServiceRequest request_out;
  finelb::net::ServiceResponse response_out;
  std::array<std::uint8_t, finelb::net::kMaxFixedMsgSize> buf{};
  ScopedSpan span("net/codec_access");
  return ns_per_call(
      [&](std::int64_t n) {
        for (std::int64_t i = 0; i < n; ++i) {
          const std::uint64_t seq = rng();
          for (int k = 0; k < 3; ++k) {
            inquiry.seq = seq + static_cast<std::uint64_t>(k);
            round_trip(inquiry, buf, inquiry_out);
            reply.seq = inquiry_out.seq;
            reply.queue_length = static_cast<std::int32_t>(seq & 7);
            round_trip(reply, buf, reply_out);
          }
          request.request_id = seq;
          round_trip(request, buf, request_out);
          response.request_id = request_out.request_id;
          response.queue_at_arrival = reply_out.queue_length;
          round_trip(response, buf, response_out);
        }
      },
      512, 0.1);
}

double codec_ns_snapshot() {
  finelb::net::SnapshotReply reply;
  for (int i = 0; i < 16; ++i) {
    finelb::net::Publish p;
    p.service = "perfbench";
    p.server = i;
    p.service_port = static_cast<std::uint16_t>(40000 + i);
    p.load_port = static_cast<std::uint16_t>(41000 + i);
    p.ttl_ms = 2000;
    reply.entries.push_back(p);
  }
  std::vector<std::uint8_t> buf(reply.encoded_size());
  finelb::net::SnapshotReply out;
  ScopedSpan span("net/codec_snapshot");
  return ns_per_call(
      [&](std::int64_t n) {
        for (std::int64_t i = 0; i < n; ++i) {
          reply.seq = static_cast<std::uint64_t>(i);
          const std::size_t len = reply.encode_into(buf);
          if (!finelb::net::SnapshotReply::try_decode({buf.data(), len}, out)) std::abort();
        }
      },
      256, 0.1);
}

/// Two-thread UdpSocket ping-pong: an echo thread blocked in Poller::wait.
Percentiles udp_rtt() {
  finelb::net::UdpSocket echo;
  finelb::net::UdpSocket client;
  client.connect(echo.local_address());
  std::atomic<bool> running{true};
  std::thread echo_thread([&] {
    finelb::net::Poller poller;
    poller.add(echo.fd(), 0);
    std::array<std::uint8_t, 64> buf{};
    while (running.load()) {
      (void)poller.wait(10 * finelb::kMillisecond);
      while (auto d = echo.recv_from(buf)) echo.send_to({buf.data(), d->size}, d->from);
    }
  });
  finelb::net::Poller poller;
  poller.add(client.fd(), 0);
  std::array<std::uint8_t, 64> buf{};
  const std::array<std::uint8_t, 32> payload{};
  std::vector<double> rtt;
  {
    ScopedSpan span("net/udp_ping_pong", true);
    for (int i = 0; i < kRounds; ++i) {
      const std::int64_t t0 = now_ns();
      client.send(payload);
      while (!client.recv(buf)) (void)poller.wait(kSecond);
      rtt.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      std::this_thread::sleep_for(kGap);
    }
  }
  running.store(false);
  echo_thread.join();
  return percentiles(std::move(rtt));
}

/// Poller::wait wake-up: another thread sends a datagram stamped with its
/// send time; the waiter records how long after that it returned.
double poller_wake_p50_us() {
  finelb::net::UdpSocket receiver;
  finelb::net::UdpSocket sender;
  const auto dest = receiver.local_address();
  std::thread send_thread([&] {
    for (int i = 0; i < kRounds; ++i) {
      std::this_thread::sleep_for(kGap);
      const std::int64_t t = now_ns();
      std::array<std::uint8_t, sizeof t> payload{};
      std::memcpy(payload.data(), &t, sizeof t);
      sender.send_to(payload, dest);
    }
  });
  finelb::net::Poller poller;
  poller.add(receiver.fd(), 0);
  std::array<std::uint8_t, 64> buf{};
  std::vector<double> wake;
  {
    ScopedSpan span("net/Poller::wait", true);
    while (static_cast<int>(wake.size()) < kRounds) {
      (void)poller.wait(kSecond);
      const std::int64_t woke = now_ns();
      while (auto d = receiver.recv_from(buf)) {
        std::int64_t sent = 0;
        std::memcpy(&sent, buf.data(), sizeof sent);
        wake.push_back(static_cast<double>(woke - sent) / 1e3);
      }
    }
  }
  send_thread.join();
  return median(std::move(wake));
}

/// How far past a 200 us timeout an idle Poller::wait returns (timer slack).
double poller_timer_late_p50_us() {
  finelb::net::UdpSocket idle;
  finelb::net::Poller poller;
  poller.add(idle.fd(), 0);
  constexpr SimDuration kTimeout = 200 * kMicrosecond;
  std::vector<double> late;
  ScopedSpan span("net/Poller::wait_timeout", true);
  for (int i = 0; i < kRounds / 2; ++i) {
    const std::int64_t t0 = now_ns();
    (void)poller.wait(kTimeout);
    late.push_back(static_cast<double>(now_ns() - t0 - kTimeout) / 1e3);
  }
  return median(std::move(late));
}

/// BlockingQueue::push to a worker blocked in pop(): push -> pop return.
Percentiles queue_handoff() {
  finelb::cluster::BlockingQueue<std::int64_t> queue;
  std::vector<double> handoff;
  handoff.reserve(kRounds);
  std::thread worker([&] {
    while (auto stamp = queue.pop()) {
      handoff.push_back(static_cast<double>(now_ns() - *stamp) / 1e3);
    }
  });
  {
    ScopedSpan span("cluster/BlockingQueue::push");
    for (int i = 0; i < kRounds; ++i) {
      std::this_thread::sleep_for(kGap);
      queue.push(now_ns());
    }
  }
  queue.close();
  worker.join();
  return percentiles(std::move(handoff));
}

struct ServerRtts {
  Percentiles load;
  Percentiles service;
};

/// LoadInquiry -> LoadReply against a live ServerNode's load socket, and a
/// zero-service ServiceRequest -> ServiceResponse against its service socket.
ServerRtts server_rtts(std::uint64_t seed) {
  finelb::cluster::ServerOptions options;
  options.inject_busy_reply_delay = false;
  options.seed = seed;
  finelb::cluster::ServerNode server(options);
  server.start();
  finelb::net::UdpSocket load;
  load.connect(server.load_address());
  finelb::net::UdpSocket service;
  finelb::net::Poller load_poller;
  load_poller.add(load.fd(), 0);
  finelb::net::Poller service_poller;
  service_poller.add(service.fd(), 0);
  std::array<std::uint8_t, finelb::net::kMaxFixedMsgSize> out{};
  std::array<std::uint8_t, 256> in{};
  std::vector<double> load_us;
  std::vector<double> service_us;
  {
    ScopedSpan span("cluster/ServerNode_load_rtt", true);
    for (int i = 0; i < kRounds; ++i) {
      finelb::net::LoadInquiry inquiry;
      inquiry.seq = static_cast<std::uint64_t>(i) + 1;
      const std::size_t n = inquiry.encode_into(out);
      const std::int64_t t0 = now_ns();
      load.send({out.data(), n});
      while (!load.recv(in)) (void)load_poller.wait(kSecond);
      load_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      std::this_thread::sleep_for(kGap);
    }
  }
  {
    ScopedSpan span("cluster/ServerNode_service_rtt", true);
    for (int i = 0; i < kRounds; ++i) {
      finelb::net::ServiceRequest request;
      request.request_id = static_cast<std::uint64_t>(i) + 1;
      request.service_us = 0;
      const std::size_t n = request.encode_into(out);
      const std::int64_t t0 = now_ns();
      service.send_to({out.data(), n}, server.service_address());
      while (!service.recv_from(in)) (void)service_poller.wait(kSecond);
      service_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      std::this_thread::sleep_for(kGap);
    }
  }
  server.stop();
  return {percentiles(std::move(load_us)), percentiles(std::move(service_us))};
}

/// DirectoryClient::try_fetch against one DirectoryServer holding 16
/// entries: the fetch without replication.
double directory_fetch_single_p50_us() {
  finelb::cluster::DirectoryServer directory;
  directory.start();
  finelb::net::UdpSocket publisher;
  for (int i = 0; i < 16; ++i) {
    finelb::net::Publish p;
    p.service = "perfbench";
    p.server = i;
    p.service_port = static_cast<std::uint16_t>(40000 + i);
    p.load_port = static_cast<std::uint16_t>(41000 + i);
    p.ttl_ms = 60'000;
    publisher.send_to(p.encode(), directory.address());
  }
  finelb::cluster::DirectoryClient client(directory.address());
  (void)client.wait_for_servers("perfbench", 16);
  for (int i = 0; i < 200; ++i) (void)client.try_fetch("perfbench");
  std::vector<double> fetch;
  {
    ScopedSpan span("cluster/DirectoryServer_fetch", true);
    for (int i = 0; i < 2 * kRounds; ++i) {
      const std::int64_t t0 = now_ns();
      const auto entries = client.try_fetch("perfbench");
      if (!entries || entries->size() != 16) std::abort();
      fetch.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
  directory.stop();
  return median(std::move(fetch));
}

}  // namespace

void run_layer_probes(const Options& options, Report& report) {
  ScopedSpan probes_span("bench/layer_probes");
  const std::uint64_t seed = options.seed;

  // Fallbacks for the layers this workload does not run itself.
  if (!report.has_layer("sim.run_s_per_maccess")) {
    constexpr std::int64_t kAccesses = 200'000;
    const finelb::Workload workload = finelb::make_fine_grain(kFineTraceLen, seed);
    const double t0 = thread_cpu_s();
    finelb::sim::SimResult result;
    {
      ScopedSpan span("sim/run_cluster_sim");
      result = finelb::sim::run_cluster_sim(sim_config(0.9, kAccesses, seed), workload);
    }
    report_sim_layers(result, thread_cpu_s() - t0, kAccesses, workload, seed,
                      report);
  }
  if (!report.has_layer("workload.synthesis_s")) {
    ScopedSpan span("workload/make_fine_grain");
    const std::int64_t t0 = now_ns();
    (void)finelb::make_fine_grain(kFineTraceLen, seed);
    report.layer("workload.synthesis_s", seconds_between(t0, now_ns()), "s");
  }
  // The cluster layers come from a light dispatch phase: the workload's own
  // when it is the dispatch workload, else a short stand-alone one.
  double light_p50_us = report.metric_value("latency_p50_us.light");
  if (options.workload != "dispatch_zero_service") {
    DispatchSpec spec;
    spec.accesses = 3000;
    spec.seed = seed;
    spec.trace_period = 8;
    const DispatchPhase light = run_dispatch_phase(spec);
    check_dispatch_phase(light, "probe", report);
    report_dispatch_layers(light, report);
    report_lifecycle(light.traces, report);
    light_p50_us = hist_quantile(light.client.response_hist_ms, 0.5) * 1e3;
    report.layer("cluster.allocs_per_access", dispatch_allocs_per_access(seed),
                 "count");
    report.layer("bench.capacity_per_s", measured_capacity(seed, report), "1/s");
  }
  {
    Options control = options;
    control.seconds = 2.0;
    Report probe;
    run_control_plane_fetch(control, probe);
    report.check(probe.correct(), "control.probe_fetches_returned_all_endpoints");
    report.layer("ha.fetch_p50_us.light", probe.metric_value("latency_p50_us.light"),
                 "us");
    report.layer("ha.fetch_p50_us.loaded", probe.metric_value("latency_p50_us.loaded"),
                 "us");
    for (const char* name : {"ha.snapshot_retries", "ha.failovers", "ha.redirects"}) {
      report.layer(name, probe.layer_value(name), "count");
    }
  }

  report.layer("net.codec_ns_per_access", codec_ns_per_access(seed), "ns");
  report.layer("net.codec_ns_snapshot", codec_ns_snapshot(), "ns");
  const Percentiles rtt = udp_rtt();
  report.layer("net.udp_rtt_p50_us", rtt.p50, "us");
  report.layer("net.udp_rtt_p99_us", rtt.p99, "us");
  report.layer("net.poller_wake_p50_us", poller_wake_p50_us(), "us");
  report.layer("net.poller_timer_late_p50_us", poller_timer_late_p50_us(), "us");
  const Percentiles handoff = queue_handoff();
  report.layer("cluster.queue_handoff_p50_us", handoff.p50, "us");
  report.layer("cluster.queue_handoff_p99_us", handoff.p99, "us");
  const ServerRtts server = server_rtts(seed);
  report.layer("cluster.load_rtt_p50_us", server.load.p50, "us");
  report.layer("cluster.load_rtt_p99_us", server.load.p99, "us");
  report.layer("cluster.service_rtt_p50_us", server.service.p50, "us");
  report.layer("cluster.service_rtt_p99_us", server.service.p99, "us");
  report.layer("cluster.client_share_p50_us",
               light_p50_us - server.load.p50 - server.service.p50, "us");
  report.layer("directory.fetch_single_p50_us", directory_fetch_single_p50_us(), "us");
}

}  // namespace perfbench
