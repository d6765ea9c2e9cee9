// sim_poll3_fine: the discrete-event simulator on the paper's Figure 4
// model (16 servers, 6 streams, polling(3), Fine-Grain trace), single
// threaded and seeded. No sockets and no threads: all time is in the sim,
// workload, core and stats layers.
//
// Each repetition runs the 90%-load model (kLoadedAccesses) and the
// 50%-load model (kLightAccesses) from the same seed; repetitions continue
// until the time budget is spent. The simulator is deterministic, so every
// repetition must produce a bit-identical result digest.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "probes.h"
#include "workload/catalog.h"

namespace perfbench {
namespace {

constexpr std::int64_t kLoadedAccesses = 1'000'000;
constexpr std::int64_t kLightAccesses = 500'000;
constexpr double kLoaded = 0.9;
constexpr double kLight = 0.5;
/// Trace synthesis takes a few milliseconds; nine samples keep its median
/// steady against page-fault and scheduler noise.
constexpr int kSetups = 9;
constexpr int kMaxReps = 60;

/// FNV-1a over every field of a SimResult that a model change would move.
class Digest {
 public:
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  template <class T>
  void add(const T& v) {
    add(&v, sizeof v);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest(const finelb::sim::SimResult& r) {
  Digest d;
  d.add(r.response_ms.count());
  d.add(r.response_ms.mean());
  d.add(r.response_ms.variance());
  d.add(r.response_hist_ms.p50());
  d.add(r.response_hist_ms.p99());
  d.add(r.poll_time_ms.mean());
  d.add(r.utilization);
  d.add(r.queue_on_arrival.mean());
  for (const std::int64_t served : r.per_server_served) d.add(served);
  d.add(r.polls_sent);
  d.add(r.polls_discarded);
  d.add(r.messages);
  d.add(r.completed);
  d.add(r.failed);
  d.add(r.decisions);
  d.add(r.decision_mistakes);
  d.add(r.decision_regret_total);
  return d.value();
}

struct Run {
  finelb::sim::SimResult result;
  /// CPU seconds of the (single) simulating thread.
  double seconds = 0.0;
};

Run simulate(double load, std::int64_t accesses, std::uint64_t seed,
             const finelb::Workload& workload) {
  const finelb::sim::SimConfig config = sim_config(load, accesses, seed);
  ScopedSpan span("sim/run_cluster_sim");
  const double t0 = thread_cpu_s();
  Run run;
  run.result = finelb::sim::run_cluster_sim(config, workload);
  run.seconds = thread_cpu_s() - t0;
  return run;
}

}  // namespace

void run_sim_poll3_fine(const Options& options, Report& report) {
  // Set-up: Fine-Grain trace synthesis, the only work before the first
  // simulated access, timed kSetups times. The first sample also covers
  // process start.
  std::vector<double> setup_s;
  std::vector<double> synthesis_s;
  std::unique_ptr<finelb::Workload> workload;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = i == 0 ? g_process_start_ns : now_ns();
    const std::int64_t s0 = now_ns();
    {
      ScopedSpan span("workload/make_fine_grain");
      workload = std::make_unique<finelb::Workload>(
          finelb::make_fine_grain(kFineTraceLen, options.seed));
    }
    const std::int64_t t1 = now_ns();
    setup_s.push_back(seconds_between(t0, t1));
    synthesis_s.push_back(seconds_between(s0, t1));
  }

  std::vector<double> throughput;
  std::vector<double> loaded_s;
  Run first_loaded;
  Run first_light;
  std::uint64_t loaded_digest = 0;
  std::uint64_t light_digest = 0;
  bool identical = true;
  std::int64_t failed = 0;
  int reps = 0;
  const std::int64_t start = now_ns();
  while (reps < 2 ||
         (reps < kMaxReps && seconds_between(start, now_ns()) < options.seconds)) {
    Run loaded = simulate(kLoaded, kLoadedAccesses, options.seed, *workload);
    Run light = simulate(kLight, kLightAccesses, options.seed, *workload);
    throughput.push_back(static_cast<double>(kLoadedAccesses + kLightAccesses) /
                         (loaded.seconds + light.seconds));
    loaded_s.push_back(loaded.seconds);
    failed += loaded.result.failed + light.result.failed;
    if (reps == 0) {
      loaded_digest = digest(loaded.result);
      light_digest = digest(light.result);
      first_loaded = std::move(loaded);
      first_light = std::move(light);
    } else {
      identical = identical && digest(loaded.result) == loaded_digest &&
                  digest(light.result) == light_digest;
    }
    ++reps;
  }

  const finelb::sim::SimResult& hi = first_loaded.result;
  const finelb::sim::SimResult& lo = first_light.result;
  report.check(identical, "sim.digest_identical",
               std::to_string(reps) + " repetitions");
  char detail[128];
  std::snprintf(detail, sizeof detail, "loaded %.4f of %.2f, light %.4f of %.2f",
                hi.utilization, kLoaded, lo.utilization, kLight);
  report.check(std::fabs(hi.utilization - kLoaded) <= 0.01 &&
                   std::fabs(lo.utilization - kLight) <= 0.01,
               "sim.utilization_matches_offered", detail);
  report.check(hi.completed > 0 && lo.completed > 0 && failed == 0,
               "sim.all_accesses_completed");
  report.add_operations(reps * (kLoadedAccesses + kLightAccesses), failed);

  report.metric("setup_s", median(setup_s), "s");
  // Per CPU second of the simulating thread, so time the host gave to other
  // tenants does not count against the simulator; and the fastest
  // repetition, because every repetition does the same work (the digests
  // match) and interference from other tenants only ever slows one down.
  report.metric("throughput_per_s",
                *std::max_element(throughput.begin(), throughput.end()), "1/s");
  // Latencies are the simulated response times (poll + transit + queueing
  // + service) the model predicts, in simulated microseconds.
  report.metric("latency_mean_us", hi.response_ms.mean() * 1e3, "us");
  report.metric("latency_p50_us.loaded",
                hist_quantile(hi.response_hist_ms, 0.50) * 1e3, "us");
  report.metric("latency_p90_us.loaded",
                hist_quantile(hi.response_hist_ms, 0.90) * 1e3, "us");
  report.metric("latency_p50_us.light",
                hist_quantile(lo.response_hist_ms, 0.50) * 1e3, "us");
  report.metric("latency_p90_us.light",
                hist_quantile(lo.response_hist_ms, 0.90) * 1e3, "us");
  report.info("sim.repetitions", reps);
  report.info("sim.accesses_per_repetition", kLoadedAccesses + kLightAccesses);

  if (options.trace) {
    report.layer("bench.latency_p99_us.light",
                 hist_quantile(lo.response_hist_ms, 0.99) * 1e3, "us");
    report.layer("bench.latency_p99_us.loaded",
                 hist_quantile(hi.response_hist_ms, 0.99) * 1e3, "us");
    report.layer("workload.synthesis_s", median(synthesis_s), "s");
    report_sim_layers(hi, median(loaded_s), kLoadedAccesses, *workload,
                      options.seed, report);
  }
}

}  // namespace perfbench
