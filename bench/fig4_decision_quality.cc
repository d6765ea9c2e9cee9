// Decision-quality observatory: Figure 4 re-examined per decision.
//
// Figure 4 reports response time vs poll size; this harness reports *why*
// those curves bend, by auditing every dispatch decision. The simulator is
// omniscient, so each polling decision is scored exactly against the true
// least-loaded live server at the decision instant: the mistake rate (how
// often the balancer picked a worse queue) and the mean regret (how much
// extra queue depth the access suffered) — swept over poll size x load x
// staleness, where staleness is injected as extra poll one-way latency so
// the reports the client acts on are that much older.
//
// The prototype half runs the same poll-size sweep live and reconstructs
// the measured analogue: every audited decision (client decision ring,
// chunked decision pulls for live scrapes) joins with the merged
// clock-aligned traces, comparing the chosen server's realized queue depth
// (its kResponse record) against the best reported depth in the polled set.
// Both halves print the same summary fields (the metric names the stats
// documents share, telemetry::append_decision_metrics).
//
// The last prototype point's merged timeline exports as Perfetto JSON and
// flat CSV, so one can follow a regretted decision end to end.
//
//   fig4_decision_quality [--poll_sizes=1,2,3,8] [--loads=0.5,0.7,0.9]
//                         [--stale_us=0,500,2000] [--servers=16]
//                         [--requests=40000] [--proto_requests=6000]
//                         [--proto_load=0.7] [--trace_period=4] [--seed=1]
//                         [--json=PATH] [--trace_json=PATH]
//                         [--trace_csv=PATH]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/experiment.h"
#include "common/flags.h"
#include "common/log.h"
#include "sim/config.h"
#include "telemetry/decision.h"
#include "telemetry/merge.h"
#include "workload/catalog.h"

using namespace finelb;

namespace {

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  init_log_level(flags);
  const auto poll_sizes = flags.get_int_list("poll_sizes", {1, 2, 3, 8});
  const auto loads = flags.get_double_list("loads", {0.5, 0.7, 0.9});
  const auto stale_us = flags.get_int_list("stale_us", {0, 500, 2000});
  const int servers = static_cast<int>(flags.get_int("servers", 16));
  const std::int64_t requests = flags.get_int("requests", 40'000);
  const std::int64_t proto_requests = flags.get_int("proto_requests", 6'000);
  const double proto_load = flags.get_double("proto_load", 0.7);
  const auto trace_period =
      static_cast<std::uint32_t>(flags.get_int("trace_period", 4));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string json_path = flags.get_string("json", "");
  const std::string trace_json = flags.get_string("trace_json", "");
  const std::string trace_csv = flags.get_string("trace_csv", "");

  const Workload workload = make_poisson_exp(0.005);  // 5 ms mean service

  bench::print_header(
      "Figure 4 decision quality: exact (sim) and measured (prototype)",
      std::to_string(servers) + " servers, Poisson/Exp 5 ms; regret = extra "
                                "queue depth vs the omniscient choice");

  // --- simulation: exact regret over poll size x load x staleness -----------
  std::printf("\nsimulation (exact, %lld requests/point):\n",
              static_cast<long long>(requests));
  bench::Table table(11);
  table.row({"poll", "load", "stale us", "decisions", "mistakes",
             "mistake%", "regret/dec", "blind"});
  std::string json = "{\"sim\":[";
  bool first = true;
  std::uint64_t run = 0;
  for (const std::int64_t poll : poll_sizes) {
    for (const double load : loads) {
      for (const std::int64_t extra_us : stale_us) {
        sim::SimConfig config;
        config.servers = servers;
        config.policy = PolicyConfig::polling(static_cast<int>(poll));
        config.load = load;
        config.total_requests = requests;
        config.warmup_requests = requests / 10;
        config.network.poll_oneway += from_us(extra_us);
        config.seed = bench::derive_seed(seed, run++);
        // The audit ring proves the choke point records in-sim exactly as
        // the prototype client does; quality numbers come from the exact
        // omniscient accounting in SimResult.
        telemetry::DecisionRing ring(4096, /*sample_period=*/1);
        config.decision_sink = ring.sink();
        const sim::SimResult result = sim::run_cluster_sim(config, workload);

        telemetry::DecisionQualitySummary q;
        q.decisions = result.decisions;
        q.mistakes = result.decision_mistakes;
        q.blind_fallbacks = result.decision_blind_fallbacks;
        q.regret_total = result.decision_regret_total;
        table.row({std::to_string(poll), bench::Table::pct(load, 0),
                   std::to_string(extra_us), std::to_string(q.decisions),
                   std::to_string(q.mistakes),
                   bench::Table::pct(q.mistake_rate(), 1),
                   bench::Table::num(q.mean_regret(), 3),
                   std::to_string(q.blind_fallbacks)});
        if (!first) json += ',';
        first = false;
        json += "{\"poll_size\":" + std::to_string(poll) +
                ",\"load\":" + bench::Table::num(load, 2) +
                ",\"stale_us\":" + std::to_string(extra_us) +
                ",\"quality\":" + telemetry::decision_quality_to_json(q) + "}";
      }
    }
  }
  json += "],\"proto\":[";

  // --- prototype: measured regret via the trace join ------------------------
  std::printf(
      "\nprototype (measured, %lld accesses/point at %s load; every "
      "%uth access audited+traced):\n",
      static_cast<long long>(proto_requests),
      bench::Table::pct(proto_load, 0).c_str(), trace_period);
  bench::Table proto_table(11);
  proto_table.row({"poll", "audited", "joined", "mistakes", "mistake%",
                   "regret/dec", "blind"});
  std::vector<telemetry::NodeTrace> last_traces;
  first = true;
  for (std::size_t i = 0; i < poll_sizes.size(); ++i) {
    cluster::PrototypeConfig config;
    config.servers = servers;
    config.clients = 2;
    config.policy = PolicyConfig::polling(static_cast<int>(poll_sizes[i]));
    config.load = proto_load;
    config.total_requests = proto_requests;
    config.use_directory = false;
    config.inject_busy_reply_delay = false;
    config.trace_sample_period = trace_period;
    config.decision_sample_period = trace_period;
    config.collect_traces = true;
    config.collect_decisions = true;
    config.seed = bench::derive_seed(seed, 1000 + i);
    cluster::PrototypeResult result = cluster::run_prototype(config, workload);
    const telemetry::DecisionQualitySummary& q = result.decision_quality;
    proto_table.row({std::to_string(poll_sizes[i]),
                     std::to_string(result.decision_records),
                     std::to_string(q.decisions), std::to_string(q.mistakes),
                     bench::Table::pct(q.mistake_rate(), 1),
                     bench::Table::num(q.mean_regret(), 3),
                     std::to_string(q.blind_fallbacks)});
    if (!first) json += ',';
    first = false;
    json += "{\"poll_size\":" + std::to_string(poll_sizes[i]) +
            ",\"load\":" + bench::Table::num(proto_load, 2) +
            ",\"audited\":" + std::to_string(result.decision_records) +
            ",\"quality\":" + telemetry::decision_quality_to_json(q) + "}";
    if (i + 1 == poll_sizes.size()) last_traces = std::move(result.node_traces);
  }
  json += "]}";

  std::printf(
      "\nReading: the sim scores every decision against the true least-loaded\n"
      "server (possible only with omniscience); the prototype scores audited\n"
      "decisions against the best *reported* queue via the trace join, so its\n"
      "regret is what the balancer could have known. Mistakes rise with load\n"
      "and staleness, and shrink as poll size covers more of the cluster.\n");

  if (!last_traces.empty()) {
    const auto merged = telemetry::merge_traces(last_traces);
    if (!trace_json.empty() &&
        write_file(trace_json,
                   telemetry::to_chrome_trace_json(merged, last_traces))) {
      std::printf("Perfetto trace written to %s\n", trace_json.c_str());
    }
    if (!trace_csv.empty() &&
        write_file(trace_csv, telemetry::to_csv(merged, last_traces))) {
      std::printf("trace CSV written to %s\n", trace_csv.c_str());
    }
  }
  if (!json_path.empty() && write_file(json_path, json + "\n")) {
    std::printf("decision-quality JSON written to %s\n", json_path.c_str());
  }
  return 0;
}
