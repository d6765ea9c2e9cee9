// Micro-benchmarks for the simulation and core hot paths (google-benchmark),
// plus the simulation half of the perf-trajectory harness.
//
//   micro_sim                      # full google-benchmark suite
//   micro_sim --json=BENCH_sim.json [--smoke]
//
// With --json (or --smoke) the binary skips google-benchmark and runs the
// trajectory measurements instead: steady-state engine throughput
// (events/sec at a fixed outstanding-event plateau — the engine's operating
// mode inside a sweep) and the sequential-vs-parallel wall clock of a small
// fig-style sweep, asserting the parallel results are bit-identical. The
// JSON lands at the given path so successive commits can be compared;
// --smoke shrinks the workload to ctest scale (label: bench-smoke).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/selection.h"
#include "sim/config.h"
#include "sim/engine.h"
#include "stats/accumulator.h"
#include "stats/histogram.h"
#include "workload/catalog.h"

namespace finelb {
namespace {

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_RngNext);

void BM_RngExponential(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.exponential(0.05));
  }
}
BENCHMARK(BM_RngExponential);

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    sim::Engine engine;
    std::int64_t sum = 0;
    for (int i = 0; i < batch; ++i) {
      engine.schedule_at(static_cast<SimTime>(rng.uniform_int(1'000'000)),
                         [&sum] { ++sum; });
    }
    engine.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1024)->Arg(16384);

/// Drives one long-lived engine in waves: schedule `wave` events spread
/// over a wide horizon, drain them, repeat. After the first wave the slot
/// pool, rung storage, and vector capacity are all warm, so this measures
/// the steady-state schedule+fire cost a long sweep pays per event —
/// BM_EngineScheduleRun, by contrast, pays cold-start allocation and
/// scatter for every fresh engine.
class SteadyStatePump {
 public:
  explicit SteadyStatePump(sim::Engine& engine, int wave = 1024)
      : engine_(engine), wave_(wave) {}

  /// Schedules and fires at least `budget` events; returns the count.
  std::int64_t pump(std::int64_t budget) {
    std::int64_t fired = 0;
    while (fired < budget) {
      const SimTime base = engine_.now();
      for (int i = 0; i < wave_; ++i) {
        engine_.schedule_at(
            base + static_cast<SimTime>(rng_.uniform_int(1'000'000)),
            [this] { ++sink_; });
      }
      engine_.run();
      fired += wave_;
    }
    return fired;
  }

  std::int64_t sink() const { return sink_; }

 private:
  sim::Engine& engine_;
  int wave_;
  Rng rng_{1};
  std::int64_t sink_ = 0;
};

void BM_EngineSteadyState(benchmark::State& state) {
  const auto wave = static_cast<int>(state.range(0));
  sim::Engine engine;
  SteadyStatePump pump(engine, wave);
  pump.pump(wave * 4);  // warm the pool and the rung
  std::int64_t fired = 0;
  for (auto _ : state) {
    fired += pump.pump(wave);
  }
  benchmark::DoNotOptimize(pump.sink());
  state.SetItemsProcessed(fired);
}
BENCHMARK(BM_EngineSteadyState)->Arg(1024)->Arg(4096);

void BM_PickLeastLoaded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<ServerLoad> loads(n);
  for (std::size_t i = 0; i < n; ++i) {
    loads[i] = {static_cast<ServerId>(i),
                static_cast<std::int32_t>(rng.uniform_int(8)), 0};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pick_least_loaded(loads, rng));
  }
}
BENCHMARK(BM_PickLeastLoaded)->Arg(2)->Arg(8)->Arg(16);

void BM_ChoosePollSet(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<ServerId> servers(16);
  for (int i = 0; i < 16; ++i) servers[static_cast<std::size_t>(i)] = i;
  std::vector<ServerId> poll_set;
  for (auto _ : state) {
    choose_poll_set_into(servers, d, rng, poll_set);
    benchmark::DoNotOptimize(poll_set.data());
  }
}
BENCHMARK(BM_ChoosePollSet)->Arg(2)->Arg(3)->Arg(8);

void BM_HistogramAdd(benchmark::State& state) {
  LatencyHistogram hist;
  Rng rng(1);
  for (auto _ : state) {
    hist.add(rng.exponential(22.2));
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramAdd);

void BM_AccumulatorAdd(benchmark::State& state) {
  Accumulator acc;
  Rng rng(1);
  for (auto _ : state) {
    acc.add(rng.uniform01());
  }
  benchmark::DoNotOptimize(acc.mean());
}
BENCHMARK(BM_AccumulatorAdd);

void BM_WorkloadSourceNext(benchmark::State& state) {
  const Workload workload = make_fine_grain(10'000, 1);
  auto source = workload.make_source(1.0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(source->next());
  }
}
BENCHMARK(BM_WorkloadSourceNext);

void BM_FullSimulationThroughput(benchmark::State& state) {
  const Workload workload = make_poisson_exp(0.050);
  for (auto _ : state) {
    sim::SimConfig config;
    config.policy = PolicyConfig::polling(2);
    config.load = 0.9;
    config.total_requests = 20'000;
    config.warmup_requests = 2'000;
    benchmark::DoNotOptimize(
        run_cluster_sim(config, workload).mean_response_ms());
  }
  state.SetItemsProcessed(state.iterations() * 20'000);
}
BENCHMARK(BM_FullSimulationThroughput)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Perf-trajectory harness (--json / --smoke).

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Best-of-`reps` steady-state engine throughput. Wall-clock noise on a
/// shared box only ever slows a run down, so the max rate is the estimate.
double measure_engine_events_per_sec(std::int64_t events_per_rep, int reps,
                                     std::vector<double>* rates) {
  sim::Engine engine;
  SteadyStatePump pump(engine, 1024);
  pump.pump(events_per_rep / 4);  // warm the pool and the rung
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const std::int64_t fired = pump.pump(events_per_rep);
    const double rate = static_cast<double>(fired) / seconds_since(start);
    rates->push_back(rate);
    best = std::max(best, rate);
  }
  return best;
}

struct SweepTiming {
  int points = 0;
  std::int64_t requests = 0;
  unsigned threads = 0;
  double sequential_s = 0.0;
  double parallel_s = 0.0;
  bool bit_identical = false;
};

/// Times a fig-style sweep grid sequentially and through the thread pool,
/// and checks the two result vectors match exactly.
SweepTiming measure_sweep(std::int64_t requests) {
  const Workload workload = make_poisson_exp(0.050);
  const std::vector<double> loads = {0.5, 0.7, 0.8, 0.9};
  const std::vector<PolicyConfig> policies = {PolicyConfig::random(),
                                              PolicyConfig::polling(3)};
  const auto sweep = [&](bench::SweepRunner<double> runner) {
    std::uint64_t row = 0;
    for (const double load : loads) {
      const std::uint64_t run_seed = bench::derive_seed(99, row++);
      for (const PolicyConfig& policy : policies) {
        runner.submit([&workload, policy, load, requests, run_seed] {
          sim::SimConfig config;
          config.policy = policy;
          config.load = load;
          config.total_requests = requests;
          config.warmup_requests = requests / 10;
          config.seed = run_seed;
          return run_cluster_sim(config, workload).mean_response_ms();
        });
      }
    }
    return runner.run();
  };

  SweepTiming t;
  t.points = static_cast<int>(loads.size() * policies.size());
  t.requests = requests;
  t.threads = bench::sweep_threads();
  auto start = std::chrono::steady_clock::now();
  const std::vector<double> sequential =
      sweep(bench::SweepRunner<double>::serial());
  t.sequential_s = seconds_since(start);
  start = std::chrono::steady_clock::now();
  const std::vector<double> parallel = sweep(bench::SweepRunner<double>());
  t.parallel_s = seconds_since(start);
  t.bit_identical = sequential == parallel;
  return t;
}

int run_trajectory(const std::string& json_path, bool smoke) {
  const std::int64_t engine_events = smoke ? 1'000'000 : 20'000'000;
  const int reps = 3;
  std::vector<double> rates;
  const double events_per_sec =
      measure_engine_events_per_sec(engine_events, reps, &rates);
  const SweepTiming sweep = measure_sweep(smoke ? 5'000 : 60'000);

  std::printf("engine steady-state: %.0f events/sec (best of %d x %lld)\n",
              events_per_sec, reps, static_cast<long long>(engine_events));
  std::printf(
      "sweep: %d points x %lld requests, %.3fs sequential / %.3fs on %u "
      "threads, bit_identical=%s\n",
      sweep.points, static_cast<long long>(sweep.requests),
      sweep.sequential_s, sweep.parallel_s, sweep.threads,
      sweep.bit_identical ? "true" : "false");

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"sim\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(out, "  \"engine\": {\n");
    std::fprintf(out, "    \"wave\": 1024,\n");
    std::fprintf(out, "    \"events_per_rep\": %lld,\n",
                 static_cast<long long>(engine_events));
    std::fprintf(out, "    \"events_per_sec\": %.0f,\n", events_per_sec);
    std::fprintf(out, "    \"rates\": [");
    for (std::size_t i = 0; i < rates.size(); ++i) {
      std::fprintf(out, "%s%.0f", i == 0 ? "" : ", ", rates[i]);
    }
    std::fprintf(out, "]\n  },\n");
    std::fprintf(out, "  \"sweep\": {\n");
    std::fprintf(out, "    \"points\": %d,\n", sweep.points);
    std::fprintf(out, "    \"requests_per_point\": %lld,\n",
                 static_cast<long long>(sweep.requests));
    std::fprintf(out, "    \"threads\": %u,\n", sweep.threads);
    std::fprintf(out, "    \"sequential_wall_s\": %.4f,\n",
                 sweep.sequential_s);
    std::fprintf(out, "    \"parallel_wall_s\": %.4f,\n", sweep.parallel_s);
    std::fprintf(out, "    \"bit_identical\": %s\n",
                 sweep.bit_identical ? "true" : "false");
    std::fprintf(out, "  }\n}\n");
    std::fclose(out);
  }
  // The smoke run doubles as a regression gate: a broken parallel sweep
  // (results out of order or seeded off thread identity) fails here.
  return sweep.bit_identical ? 0 : 1;
}

}  // namespace
}  // namespace finelb

int main(int argc, char** argv) {
  // Manual parsing here (not common/flags) because unrecognized args pass
  // through to google-benchmark; --log-level still overrides FINELB_LOG.
  finelb::init_log_level();
  std::string json_path;
  bool smoke = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--log-level=", 12) == 0) {
      finelb::set_log_level(finelb::parse_log_level(argv[i] + 12));
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty() || smoke) {
    return finelb::run_trajectory(json_path, smoke);
  }
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
