// finelb benchmark binary. Normally started by perfbench/run.py:
//
//   finelb_perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --out-dir <dir>
//
// Runs one workload, checks its outputs, and prints the report as one JSON
// line on stdout (progress and a readable summary go to stderr). With
// --trace 1 it also records spans around every runtime call, runs the
// layer probes, and writes <out-dir>/<workload>.spans.json (the
// benchmark's spans), <out-dir>/<workload>.lifecycle.json (the runtime's
// merged lifecycle trace), both Chrome trace-event JSON, and
// <out-dir>/<workload>.layers.txt.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common/log.h"
#include "harness.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: finelb_perfbench --workload <sim_poll3_fine|"
               "dispatch_zero_service|paper_fine_grain> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::g_process_start_ns = perfbench::now_ns();
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0.0) return usage();
  finelb::set_log_level(finelb::LogLevel::kWarn);

  using Runner = void (*)(const perfbench::Options&, perfbench::Report&);
  Runner runner = nullptr;
  if (options.workload == "sim_poll3_fine") {
    runner = perfbench::run_sim_poll3_fine;
  } else if (options.workload == "dispatch_zero_service") {
    runner = perfbench::run_dispatch_zero_service;
  } else if (options.workload == "paper_fine_grain") {
    runner = perfbench::run_paper_fine_grain;
  } else {
    return usage();
  }

  if (options.trace) perfbench::tracer().enable();
  perfbench::Report report;
  try {
    runner(options, report);
    if (options.trace) {
      perfbench::run_layer_probes(options, report);
      const std::string base = options.out_dir + "/" + options.workload;
      report.check(
          perfbench::write_file(base + ".spans.json",
                                perfbench::tracer().chrome_json()),
          "trace.spans_written", base + ".spans.json");
      report.check(perfbench::write_file(base + ".lifecycle.json",
                                         perfbench::tracer().lifecycle()),
                   "trace.lifecycle_written", base + ".lifecycle.json");
      const std::string table = perfbench::tracer().layer_table();
      report.check(perfbench::write_file(base + ".layers.txt", table),
                   "trace.layer_table_written", base + ".layers.txt");
      std::fprintf(stderr, "%s", table.c_str());
    }
  } catch (const std::exception& e) {
    report.check(false, "exception", e.what());
  }
  report.print_summary();
  std::printf("%s\n", report.to_json(options).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
