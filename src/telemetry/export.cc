#include "telemetry/export.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>

#include "common/check.h"
#include "net/clock.h"
#include "net/poller.h"

namespace finelb::telemetry {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

template <typename T, typename AppendValue>
void append_map(std::string& out, const char* key,
                const std::vector<std::pair<std::string, T>>& entries,
                AppendValue&& append_value) {
  out += '"';
  out += key;
  out += "\":{";
  bool first = true;
  for (const auto& [name, value] : entries) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_escaped(out, name);
    out += "\":";
    append_value(out, value);
  }
  out += '}';
}

void append_histogram(std::string& out, const HistogramSnapshot& h) {
  out += '"';
  append_escaped(out, h.name);
  out += "\":{\"count\":";
  append_int(out, h.count);
  out += ",\"mean\":";
  append_double(out, h.mean);
  out += ",\"p50\":";
  append_double(out, h.p50);
  out += ",\"p95\":";
  append_double(out, h.p95);
  out += ",\"p99\":";
  append_double(out, h.p99);
  out += ",\"min\":";
  append_double(out, h.min);
  out += ",\"max\":";
  append_double(out, h.max);
  out += ",\"buckets\":[";
  bool first = true;
  for (const auto& [value, count] : h.buckets) {
    if (!first) out += ',';
    first = false;
    out += '[';
    append_double(out, value);
    out += ',';
    append_int(out, count);
    out += ']';
  }
  out += "]}";
}

void append_snapshot_body(std::string& out, const MetricsSnapshot& snap) {
  out += "\"node\":\"";
  append_escaped(out, snap.node);
  out += "\",";
  append_map(out, "counters", snap.counters,
             [](std::string& o, std::int64_t v) { append_int(o, v); });
  out += ',';
  append_map(out, "gauges", snap.gauges,
             [](std::string& o, std::int64_t v) { append_int(o, v); });
  out += ',';
  append_map(out, "values", snap.values,
             [](std::string& o, double v) { append_double(o, v); });
  out += ",\"histograms\":{";
  bool first = true;
  for (const auto& h : snap.histograms) {
    if (!first) out += ',';
    first = false;
    append_histogram(out, h);
  }
  out += '}';
}

void append_trace(std::string& out, const std::vector<TraceRecord>& trace) {
  out += "\"trace\":[";
  bool first = true;
  for (const auto& rec : trace) {
    if (!first) out += ',';
    first = false;
    out += "{\"request\":";
    append_int(out, static_cast<std::int64_t>(rec.request_id));
    out += ",\"point\":\"";
    out += trace_point_name(rec.point);
    out += "\",\"node\":";
    append_int(out, rec.node);
    out += ",\"t_ns\":";
    append_int(out, rec.at_ns);
    out += ",\"detail\":";
    append_int(out, rec.detail);
    out += '}';
  }
  out += ']';
}

}  // namespace

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(512);
  out += '{';
  append_snapshot_body(out, snapshot);
  out += '}';
  return out;
}

std::string to_json(const MetricsSnapshot& snapshot,
                    const std::vector<TraceRecord>& trace) {
  std::string out;
  out.reserve(1024);
  out += '{';
  append_snapshot_body(out, snapshot);
  out += ',';
  append_trace(out, trace);
  out += '}';
  return out;
}

std::string to_text(const MetricsSnapshot& snapshot) {
  std::string out;
  out += "=== ";
  out += snapshot.node.empty() ? "(unnamed node)" : snapshot.node;
  out += " ===\n";
  char line[256];
  for (const auto& [name, value] : snapshot.counters) {
    std::snprintf(line, sizeof(line), "  %-28s %12" PRId64 "\n", name.c_str(),
                  value);
    out += line;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::snprintf(line, sizeof(line), "  %-28s %12" PRId64 " (gauge)\n",
                  name.c_str(), value);
    out += line;
  }
  for (const auto& [name, value] : snapshot.values) {
    std::snprintf(line, sizeof(line), "  %-28s %12.4g\n", name.c_str(),
                  value);
    out += line;
  }
  for (const auto& h : snapshot.histograms) {
    std::snprintf(line, sizeof(line),
                  "  %-28s count=%" PRId64
                  " mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g\n",
                  h.name.c_str(), h.count, h.mean, h.p50, h.p95, h.p99,
                  h.max);
    out += line;
  }
  return out;
}

namespace {

// --- Prometheus text exposition ---------------------------------------------

void append_prom_name(std::string& out, std::string_view name) {
  out += "finelb_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
}

/// Emits `# TYPE` once per (family, type) across a whole document —
/// Prometheus rejects re-declarations when several nodes share families.
void append_prom_type(std::string& out, std::string_view family,
                      const char* type, std::vector<std::string>& seen) {
  for (const std::string& s : seen) {
    if (s == family) return;
  }
  seen.emplace_back(family);
  out += "# TYPE ";
  append_prom_name(out, family);
  out += ' ';
  out += type;
  out += '\n';
}

void append_prom_label(std::string& out, std::string_view node) {
  out += "{node=\"";
  append_escaped(out, node);
  out += "\"}";
}

void append_prometheus_body(std::string& out, const MetricsSnapshot& snap,
                            std::vector<std::string>& seen_types) {
  for (const auto& [name, value] : snap.counters) {
    append_prom_type(out, name, "counter", seen_types);
    append_prom_name(out, name);
    append_prom_label(out, snap.node);
    out += ' ';
    append_int(out, value);
    out += '\n';
  }
  for (const auto& [name, value] : snap.gauges) {
    append_prom_type(out, name, "gauge", seen_types);
    append_prom_name(out, name);
    append_prom_label(out, snap.node);
    out += ' ';
    append_int(out, value);
    out += '\n';
  }
  for (const auto& [name, value] : snap.values) {
    append_prom_type(out, name, "gauge", seen_types);
    append_prom_name(out, name);
    append_prom_label(out, snap.node);
    out += ' ';
    append_double(out, value);
    out += '\n';
  }
  for (const auto& h : snap.histograms) {
    append_prom_type(out, h.name, "histogram", seen_types);
    // Cumulative buckets: each occupied log bucket contributes its upper
    // bound as `le`; +Inf closes the series with the total count.
    std::int64_t cumulative = 0;
    for (const auto& [value, count] : h.buckets) {
      cumulative += count;
      append_prom_name(out, h.name);
      out += "_bucket{node=\"";
      append_escaped(out, snap.node);
      out += "\",le=\"";
      append_double(out,
                    detail::kHistBucketing.upper(
                        detail::kHistBucketing.index(value)));
      out += "\"} ";
      append_int(out, cumulative);
      out += '\n';
    }
    append_prom_name(out, h.name);
    out += "_bucket{node=\"";
    append_escaped(out, snap.node);
    out += "\",le=\"+Inf\"} ";
    append_int(out, h.count);
    out += '\n';
    append_prom_name(out, h.name);
    out += "_sum";
    append_prom_label(out, snap.node);
    out += ' ';
    append_double(out, h.mean * static_cast<double>(h.count));
    out += '\n';
    append_prom_name(out, h.name);
    out += "_count";
    append_prom_label(out, snap.node);
    out += ' ';
    append_int(out, h.count);
    out += '\n';
  }
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(1024);
  std::vector<std::string> seen_types;
  append_prometheus_body(out, snapshot, seen_types);
  return out;
}

std::string cluster_to_prometheus(const std::vector<MetricsSnapshot>& nodes) {
  std::string out;
  out.reserve(1024 * (nodes.size() + 1));
  std::vector<std::string> seen_types;
  for (const MetricsSnapshot& snap : nodes) {
    append_prometheus_body(out, snap, seen_types);
  }
  return out;
}

std::string cluster_to_json(const std::vector<std::string>& node_documents) {
  std::string out = "{\"nodes\":[";
  bool first = true;
  for (const auto& doc : node_documents) {
    if (!first) out += ',';
    first = false;
    out += doc;
  }
  out += "]}";
  return out;
}

namespace {

// Async-signal-safety contract (audited): the handler may only touch
// `g_dump_requested`, a lock-free atomic flag, and write(2) the eventfd in
// `g_dump_wake_fd`. No allocation, no locks, no stdio — all formatting and
// writing happens later on the reporter thread, which the eventfd wakes.
// Keep it that way: any malloc or mutex in here can deadlock if the signal
// lands inside the allocator.
std::atomic<bool> g_dump_requested{false};
std::atomic<int> g_dump_wake_fd{-1};
static_assert(std::atomic<bool>::is_always_lock_free &&
                  std::atomic<int>::is_always_lock_free,
              "SIGUSR1 handler requires lock-free atomics");

/// The eventfd a dump request makes readable, created on first use from
/// ordinary code (never from the handler, which only reads g_dump_wake_fd).
int dump_wake_fd() {
  static const int fd = [] {
    const int created = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (created < 0) FINELB_THROW_ERRNO("eventfd");
    g_dump_wake_fd.store(created, std::memory_order_release);
    return created;
  }();
  return fd;
}

void wake_dump_waiters() {
  const int fd = g_dump_wake_fd.load(std::memory_order_acquire);
  if (fd < 0) return;
  const int saved_errno = errno;  // the interrupted code may read errno
  const std::uint64_t one = 1;
  // A full counter (EAGAIN) already means "readable"; nothing to handle.
  [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
  errno = saved_errno;
}

void sigusr1_handler(int) {
  g_dump_requested.store(true, std::memory_order_relaxed);
  wake_dump_waiters();
}

}  // namespace

void install_sigusr1_dump_handler() {
  dump_wake_fd();  // exists before the first signal can land
#if defined(__unix__) || defined(__APPLE__)
  // sigaction with SA_RESTART: a dump request must not surface as EINTR in
  // the runtime's blocking recv/poll loops.
  struct sigaction action {};
  action.sa_handler = sigusr1_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  sigaction(SIGUSR1, &action, nullptr);
#else
  std::signal(SIGUSR1, sigusr1_handler);
#endif
}

void trigger_stats_dump() {
  dump_wake_fd();
  g_dump_requested.store(true, std::memory_order_relaxed);
  wake_dump_waiters();
}

bool consume_dump_request() {
  // Clear the wake-up before the flag: a request landing in between leaves
  // the eventfd readable again, so the next wait returns at once.
  if (const int fd = g_dump_wake_fd.load(std::memory_order_acquire);
      fd >= 0) {
    std::uint64_t count = 0;
    [[maybe_unused]] const ssize_t n = ::read(fd, &count, sizeof(count));
  }
  return g_dump_requested.exchange(false, std::memory_order_relaxed);
}

StderrReporter::StderrReporter(Collect collect, SimDuration period)
    : collect_(std::move(collect)), period_(period) {
  running_.store(true);
  thread_ = std::thread([this] { run(); });
}

StderrReporter::~StderrReporter() { stop(); }

void StderrReporter::stop() {
  if (!running_.exchange(false)) return;
  stop_.notify();
  if (thread_.joinable()) thread_.join();
}

void StderrReporter::run() {
  net::Poller poller;
  poller.add(stop_.fd(), 0);
  poller.add(dump_wake_fd(), 1);
  std::optional<SimTime> next_report;
  if (period_ > 0) next_report = net::monotonic_now() + period_;
  while (running_.load(std::memory_order_relaxed)) {
    // Until the next period, a dump request, or stop().
    poller.wait_until(next_report);
    bool due = consume_dump_request();
    if (next_report && net::monotonic_now() >= *next_report) {
      next_report = net::monotonic_now() + period_;
      due = true;
    }
    if (due) {
      const std::string report = collect_();
      std::fwrite(report.data(), 1, report.size(), stderr);
      std::fflush(stderr);
    }
  }
}

}  // namespace finelb::telemetry
