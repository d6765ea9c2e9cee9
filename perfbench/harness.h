// Shared plumbing for the finelb benchmark: options, timing, sample
// statistics, the result document, and the span recorder behind the traced
// run.
//
// Every workload fills one Report: end-to-end metrics (measured with
// tracing off, compared across commits), per-layer metrics (traced run
// only), output checks, and attempted/failed operation counts. main.cc
// prints the report as one JSON line; perfbench/run.py turns that line
// into the benchmark's result.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for trace files (Chrome JSON, layer table); created by
  /// run.py inside the build directory.
  std::string out_dir = ".";
};

// --- time -------------------------------------------------------------------

/// Monotonic nanoseconds (same clock as net::monotonic_now()).
std::int64_t now_ns();
double seconds_between(std::int64_t start_ns, std::int64_t end_ns);

/// Nanoseconds since main() entered (set once by main.cc).
extern std::int64_t g_process_start_ns;

/// CPU seconds consumed so far by the calling thread / the whole process.
/// On a shared host they leave out the time other tenants held the CPU,
/// which wall-clock rates cannot.
double thread_cpu_s();
double process_cpu_s();

/// Host-wide CPU time counters from /proc/stat, to tell how much of an
/// interval the hypervisor gave the guest's CPUs to other tenants.
struct CpuTicks {
  std::int64_t steal = 0;
  std::int64_t total = 0;
};
CpuTicks cpu_ticks();
/// Share of all CPU time between two samples that was stolen (0 when the
/// counters are unavailable).
double steal_share(const CpuTicks& before, const CpuTicks& after);

// --- sample statistics --------------------------------------------------------

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
double quantile(std::vector<double>& samples, double q);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

/// Combines one statistic over a phase's windows into the reported value:
/// their median. A host stall, or an unlucky thread placement at a window's
/// bring-up, moves a minority of windows and not the median.
double over_windows(std::vector<double> values);

/// Stores `value` where the optimizer cannot see it, so a timed loop whose
/// result feeds it is not removed.
void keep(std::int64_t value);

/// Runs `body` in batches (at least 5, at most 2000) until `min_seconds`
/// of wall time have passed and returns the median per-call nanoseconds
/// over the batches. `body(n)` must perform n calls.
template <class Body>
double ns_per_call(Body&& body, std::int64_t batch, double min_seconds) {
  std::vector<double> per_call;
  const std::int64_t start = now_ns();
  while (per_call.size() < 5 ||
         seconds_between(start, now_ns()) < min_seconds) {
    const std::int64_t t0 = now_ns();
    body(batch);
    const std::int64_t t1 = now_ns();
    per_call.push_back(static_cast<double>(t1 - t0) /
                       static_cast<double>(batch));
    if (per_call.size() >= 2000) break;
  }
  return median(std::move(per_call));
}

// --- result document ----------------------------------------------------------

class Report {
 public:
  /// End-to-end metric (reported by every workload; see BENCHMARK.json).
  void metric(const std::string& name, double value, const std::string& unit);
  /// Per-layer metric (traced run only). The first value reported under a
  /// name wins, so a workload's own measurement takes precedence over the
  /// stand-alone probe that fills the same name for other workloads.
  void layer(const std::string& name, double value, const std::string& unit);
  /// Records an output check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& name, const std::string& detail = "");
  /// Free-form context printed with the result (sizes, rates, reps).
  void info(const std::string& key, double value);

  void add_operations(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool has_layer(const std::string& name) const {
    return layers_.count(name) != 0;
  }
  /// Reported values (0 when absent).
  double metric_value(const std::string& name) const;
  double layer_value(const std::string& name) const;

  bool correct() const;
  /// The whole report as one JSON object on one line.
  std::string to_json(const Options& options) const;
  /// Human-readable summary (stderr).
  void print_summary() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  struct Check {
    bool ok = false;
    std::string name;
    std::string detail;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, Value> layers_;
  std::map<std::string, double> info_;
  std::vector<Check> checks_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// --- spans --------------------------------------------------------------------
//
// Spans are recorded only from the benchmark's own files, around calls into
// the runtime's public entry points. Names are "layer/what" string
// literals; the layer is the runtime module the call enters (sim, workload,
// core, stats, net, cluster, cluster/ha, telemetry) or "bench" for the
// harness itself. Spans stay in memory and are written once at exit.

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint32_t thread = 0;
    bool wait = false;     // time blocked (socket, queue, sleep), not CPU
    bool instant = false;  // point event (start_ns == end_ns)
    std::int64_t arg = 0;
  };

  void enable() { enabled_ = true; }

  /// Opens a span on the calling thread; returns its id (-1 when disabled).
  std::int32_t begin(const char* name, bool wait = false);
  void end(std::int32_t id);
  void instant(const char* name, std::int64_t at_ns, std::int64_t arg = 0);

  /// Chrome trace-event JSON, the format telemetry::to_chrome_trace_json
  /// writes, so both files open in Perfetto side by side.
  std::string chrome_json() const;
  /// Per-layer count / busy / wait / self time table (text).
  std::string layer_table() const;

  /// The runtime's own lifecycle trace (telemetry::to_chrome_trace_json of
  /// merged client/server rings), kept to be written at exit. The first
  /// one recorded wins.
  void keep_lifecycle(std::string chrome_json) {
    std::lock_guard<std::mutex> lock(mu_);
    if (lifecycle_json_.empty()) lifecycle_json_ = std::move(chrome_json);
  }
  std::string lifecycle() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lifecycle_json_;
  }

 private:
  bool enabled_ = false;
  std::atomic<std::int64_t> instants_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::string lifecycle_json_;
};

Tracer& tracer();

/// RAII span; free when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, bool wait = false)
      : id_(tracer().begin(name, wait)) {}
  ~ScopedSpan() { tracer().end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t id_;
};

// --- allocation counting (alloc_hook.cc) --------------------------------------

/// Heap allocations made by the whole process so far.
std::int64_t allocations();

// --- workloads ----------------------------------------------------------------

void run_sim_poll3_fine(const Options& options, Report& report);
void run_dispatch_zero_service(const Options& options, Report& report);
void run_paper_fine_grain(const Options& options, Report& report);
/// Closed-loop fetches from a replicated directory. Not a benchmark
/// workload: its microsecond wall-clock latencies swing 50% and more run to
/// run while other tenants steal CPU. The layer probes run it briefly for
/// the ha.* metrics.
void run_control_plane_fetch(const Options& options, Report& report);

/// Layer probes for the traced run (probes.cc). Each fills the per-layer
/// metrics it owns unless the workload already reported them from its own
/// run, so every traced run reports the same metric names.
void run_layer_probes(const Options& options, Report& report);

/// Writes `body` to `path`; returns false on failure.
bool write_file(const std::string& path, const std::string& body);

}  // namespace perfbench
