// Trace a live cluster: the smallest end-to-end use of the distributed
// tracing layer (DESIGN.md §11).
//
// Runs a real 8-server / 2-client prototype cluster on loopback with every
// 4th access traced, pulls each server's trace ring over the wire (trace
// pulls on the one PullInquiry channel, clock-synced), merges the rings
// into one causally-ordered timeline, and
//   1. prints the measured staleness |Q(t_reply) - Q(t_dispatch)| next to
//      the Equation 1 bound 2*rho/(1 - rho^2),
//   2. writes a Chrome trace-event JSON you can open at
//      https://ui.perfetto.dev to follow a single request across processes:
//      enqueue -> poll fan-out -> server pick -> dispatch -> service ->
//      response.
//
// Exits 1 when a server's trace ring could not be pulled.
//
// Build & run:  ./build/examples/trace_cluster [--trace_json=trace.json]
#include <cstdio>
#include <string>

#include "cluster/experiment.h"
#include "common/flags.h"
#include "common/log.h"
#include "stats/queueing.h"
#include "telemetry/merge.h"
#include "workload/catalog.h"

int main(int argc, char** argv) {
  using namespace finelb;
  const Flags flags = Flags::parse(argc, argv);
  init_log_level(flags);
  const std::string trace_json =
      flags.get_string("trace_json", "trace.json");
  const double load = flags.get_double("load", 0.7);

  cluster::PrototypeConfig config;
  config.servers = 8;
  config.clients = 2;
  config.policy = PolicyConfig::polling(3);
  config.load = load;
  config.total_requests = 2'000;
  config.use_directory = false;
  config.inject_busy_reply_delay = false;
  config.trace_sample_period = 4;  // every 4th access leaves a trace
  config.collect_traces = true;    // pull + clock-align rings after the run

  const Workload workload = make_poisson_exp(0.005);  // 5 ms mean service
  cluster::PrototypeResult result = cluster::run_prototype(config, workload);

  if (result.trace_scrape_failures > 0) {
    std::fprintf(stderr, "%d server trace pulls went unanswered\n",
                 result.trace_scrape_failures);
    return 1;
  }

  const auto merged = telemetry::merge_traces(result.node_traces);
  std::printf("%zu merged trace records from %zu nodes (%lld accesses)\n",
              merged.size(), result.node_traces.size(),
              static_cast<long long>(result.clients.completed));
  std::printf("staleness: %s\n",
              telemetry::staleness_to_json(result.staleness).c_str());
  std::printf("Equation 1 bound at %.0f%% load: %.3f (measured mean %.3f)\n",
              load * 100, queueing::stale_index_inaccuracy_bound(load),
              result.staleness.mean_abs_diff);

  if (std::FILE* f = std::fopen(trace_json.c_str(), "w")) {
    const std::string doc =
        telemetry::to_chrome_trace_json(merged, result.node_traces);
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("open %s in https://ui.perfetto.dev\n", trace_json.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", trace_json.c_str());
    return 1;
  }
  return 0;
}
