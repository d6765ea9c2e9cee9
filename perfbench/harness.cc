#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <map>
#include <numeric>

namespace perfbench {

std::int64_t g_process_start_ns = 0;

namespace {
volatile std::int64_t g_sink = 0;
}  // namespace

void keep(std::int64_t value) { g_sink = value; }

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

namespace {
double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}
}  // namespace

double thread_cpu_s() { return cpu_seconds(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID); }

CpuTicks cpu_ticks() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  long long v[8] = {};
  if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const long long x : v) ticks.total += x;
    ticks.steal = v[7];
  }
  std::fclose(f);
  return ticks;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  const std::int64_t total = after.total - before.total;
  return total > 0 ? static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median(std::vector<double> samples) { return quantile(samples, 0.5); }

double over_windows(std::vector<double> values) {
  return median(std::move(values));
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

// --- Report -------------------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string values_json(const auto& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : values) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":{\"value\":" + number(v.value) +
           ",\"unit\":\"" + json_escape(v.unit) + "\"}";
  }
  return out + "}";
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_.emplace(name, Value{value, unit});
}

double Report::metric_value(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

double Report::layer_value(const std::string& name) const {
  const auto it = layers_.find(name);
  return it == layers_.end() ? 0.0 : it->second.value;
}

void Report::check(bool ok, const std::string& name,
                   const std::string& detail) {
  checks_.push_back({ok, name, detail});
  if (!ok) std::fprintf(stderr, "CHECK FAILED: %s %s\n", name.c_str(),
                        detail.c_str());
}

void Report::info(const std::string& key, double value) { info_[key] = value; }

bool Report::correct() const {
  if (checks_.empty()) return false;
  for (const Check& c : checks_) {
    if (!c.ok) return false;
  }
  for (const auto& [name, v] : metrics_) {
    if (!std::isfinite(v.value)) return false;
  }
  return true;
}

std::string Report::to_json(const Options& options) const {
  std::string out = "{\"workload\":\"" + json_escape(options.workload) +
                    "\",\"seed\":" + std::to_string(options.seed) +
                    ",\"seconds\":" + number(options.seconds) +
                    ",\"trace\":" + (options.trace ? "true" : "false");
  out += ",\"build_type\":\"" PERFBENCH_BUILD_TYPE
         "\",\"telemetry\":\"" PERFBENCH_TELEMETRY "\"";
  out += std::string(",\"correct\":") + (correct() ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(attempted_) +
         ",\"failed\":" + std::to_string(failed_);
  out += ",\"metrics\":" + values_json(metrics_);
  out += ",\"layers\":" + values_json(layers_);
  out += ",\"info\":{";
  bool first = true;
  for (const auto& [key, v] : info_) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(key) + "\":" + number(v);
  }
  out += "},\"checks\":[";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"name\":\"" + json_escape(checks_[i].name) +
           "\",\"ok\":" + (checks_[i].ok ? "true" : "false") +
           ",\"detail\":\"" + json_escape(checks_[i].detail) + "\"}";
  }
  return out + "]}";
}

void Report::print_summary() const {
  std::fprintf(stderr, "checks: %zu, correct: %s, attempted %lld, failed %lld\n",
               checks_.size(), correct() ? "yes" : "NO",
               static_cast<long long>(attempted_),
               static_cast<long long>(failed_));
  for (const auto& [name, v] : metrics_) {
    std::fprintf(stderr, "  %-28s %14.4f %s\n", name.c_str(), v.value,
                 v.unit.c_str());
  }
  for (const auto& [name, v] : layers_) {
    std::fprintf(stderr, "  %-36s %14.4f %s\n", name.c_str(), v.value,
                 v.unit.c_str());
  }
}

// --- Tracer -------------------------------------------------------------------

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

thread_local std::vector<std::int32_t> open_spans;

std::string layer_of(const char* name) {
  const std::string s(name);
  const std::size_t slash = s.rfind('/');
  return slash == std::string::npos ? s : s.substr(0, slash);
}

}  // namespace

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::int32_t Tracer::begin(const char* name, bool wait) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.wait = wait;
  span.thread = thread_index();
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.start_ns = now_ns();
  std::int32_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(span);
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

void Tracer::instant(const char* name, std::int64_t at_ns, std::int64_t arg) {
  if (!enabled_) return;
  // Instants mark every issued access; past the cap the trace file would
  // only grow, not say more.
  constexpr std::int64_t kMaxInstants = 50'000;
  if (instants_.fetch_add(1, std::memory_order_relaxed) >= kMaxInstants) return;
  Span span;
  span.name = name;
  span.instant = true;
  span.thread = thread_index();
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.start_ns = at_ns;
  span.end_ns = at_ns;
  span.arg = arg;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::string Tracer::chrome_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t base = 0;
  for (const Span& s : spans_) {
    if (base == 0 || s.start_ns < base) base = s.start_ns;
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"perfbench\"}}";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = static_cast<double>(s.start_ns - base) / 1e3;
    if (s.instant) {
      std::snprintf(buf, sizeof buf,
                    ",{\"ph\":\"i\",\"s\":\"t\",\"name\":\"%s\",\"cat\":\"%s\","
                    "\"pid\":0,\"tid\":%u,\"ts\":%.3f,\"args\":{\"arg\":%lld}}",
                    s.name, layer_of(s.name).c_str(), s.thread, ts,
                    static_cast<long long>(s.arg));
    } else {
      const std::int64_t end = s.end_ns > s.start_ns ? s.end_ns : s.start_ns;
      std::snprintf(buf, sizeof buf,
                    ",{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":0,"
                    "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"wait\":%s}}",
                    s.name, layer_of(s.name).c_str(), s.thread, ts,
                    static_cast<double>(end - s.start_ns) / 1e3, i, s.parent,
                    s.wait ? "true" : "false");
    }
    out += buf;
  }
  return out + "]}\n";
}

std::string Tracer::layer_table() const {
  std::lock_guard<std::mutex> lock(mu_);
  struct Row {
    std::int64_t count = 0;
    std::int64_t instants = 0;
    double busy_s = 0.0;
    double wait_s = 0.0;
    double self_s = 0.0;
  };
  // A span's self time is its duration minus the part its children cover;
  // children open and close on the parent's thread, so they never overlap.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.instant || s.parent < 0) continue;
    child_s[static_cast<std::size_t>(s.parent)] +=
        seconds_between(s.start_ns, s.end_ns);
  }
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Row& row = rows[layer_of(s.name)];
    if (s.instant) {
      ++row.instants;
      continue;
    }
    ++row.count;
    const double d = seconds_between(s.start_ns, s.end_ns);
    (s.wait ? row.wait_s : row.busy_s) += d;
    if (!s.wait) row.self_s += std::max(0.0, d - child_s[i]);
  }
  std::string out =
      "layer                 spans  instants      busy_s      wait_s      "
      "self_s\n";
  char buf[256];
  for (const auto& [layer, r] : rows) {
    std::snprintf(buf, sizeof buf, "%-18s %8lld %9lld %11.6f %11.6f %11.6f\n",
                  layer.c_str(), static_cast<long long>(r.count),
                  static_cast<long long>(r.instants), r.busy_s, r.wait_s,
                  r.self_s);
    out += buf;
  }
  return out;
}

}  // namespace perfbench
