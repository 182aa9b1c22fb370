#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

namespace perfbench {

void RunResult::Fail(const std::string& message) {
  correct = false;
  if (errors.size() < 20) errors.push_back(message);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

namespace {
int64_t g_process_start_ns = 0;
}  // namespace

void MarkProcessStart() { g_process_start_ns = NowNs(); }
double SecondsSinceProcessStart() { return SecondsSince(g_process_start_ns); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int64_t CurrentRssBytes() {
  long pages_total = 0;
  long pages_resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2) {
    pages_resident = 0;
  }
  std::fclose(f);
  return static_cast<int64_t>(pages_resident) * sysconf(_SC_PAGESIZE);
}

int64_t MinorFaults() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

mmdb::Random StreamRng(uint64_t seed, uint64_t stream) {
  mmdb::Random mixer(seed ^ (stream * 0xD1B54A32D192ED03ull));
  return mmdb::Random(mixer.NextUint64());
}

bool AsInt(const mmdb::Value& value, int64_t* out) {
  if (const auto* i = std::get_if<int64_t>(&value)) {
    *out = *i;
    return true;
  }
  if (const auto* d = std::get_if<double>(&value)) {
    if (std::nearbyint(*d) != *d || std::fabs(*d) > 9.0e15) return false;
    *out = static_cast<int64_t>(*d);
    return true;
  }
  return false;
}

// ---- tracing ----------------------------------------------------------

namespace {

struct SpanRecord {
  uint64_t trace_id;
  uint64_t id;
  uint64_t parent;
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
};

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_span{1};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<std::vector<SpanRecord>>> g_buffers;

thread_local std::vector<SpanRecord>* tl_buffer = nullptr;
thread_local uint64_t tl_current = 0;
thread_local uint64_t tl_trace = 0;

std::vector<SpanRecord>* ThreadBuffer() {
  if (tl_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<std::vector<SpanRecord>>());
    g_buffers.back()->reserve(1024);
    tl_buffer = g_buffers.back().get();
  }
  return tl_buffer;
}

}  // namespace

void EnableTracing(bool on) { g_tracing.store(on); }
bool TracingEnabled() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name) : name_(name) {
  if (TracingEnabled()) {
    id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
    parent_ = tl_current;
    trace_id_ = parent_ == 0 ? id_ : tl_trace;
    tl_current = id_;
    tl_trace = trace_id_;
  }
  start_ns_ = NowNs();
}

double Span::FinishUs() {
  if (!open_) return duration_us_;
  open_ = false;
  const int64_t end_ns = NowNs();
  duration_us_ = static_cast<double>(end_ns - start_ns_) * 1e-3;
  if (id_ != 0) {
    ThreadBuffer()->push_back(
        SpanRecord{trace_id_, id_, parent_, name_, start_ns_, end_ns});
    tl_current = parent_;
    if (parent_ == 0) tl_trace = 0;
  }
  return duration_us_;
}

std::string SpansJson() {
  std::vector<SpanRecord> spans;
  {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    for (const auto& buffer : g_buffers) {
      spans.insert(spans.end(), buffer->begin(), buffer->end());
    }
  }
  std::map<uint64_t, double> child_us;  // parent id -> its children's time
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_us[s.parent] += double(s.end_ns - s.start_ns) * 1e-3;
  }
  struct Summary {
    std::vector<double> durations;
    double self_us = 0;
  };
  std::map<std::string, Summary> by_name;
  std::string list;
  for (const SpanRecord& s : spans) {
    const double us = double(s.end_ns - s.start_ns) * 1e-3;
    Summary& summary = by_name[s.name];
    summary.durations.push_back(us);
    auto children = child_us.find(s.id);
    summary.self_us += us - (children == child_us.end() ? 0 : children->second);
    list += (list.empty() ? "[" : ", [") + std::to_string(s.trace_id) + ", " +
            std::to_string(s.id) + ", " + std::to_string(s.parent) + ", \"" +
            s.name + "\", " + std::to_string(s.start_ns) + ", " +
            std::to_string(s.end_ns) + "]";
  }
  std::string out = "{\"span_summary\": {";
  bool first = true;
  for (const auto& [name, summary] : by_name) {
    double total = 0;
    for (double d : summary.durations) total += d;
    out += (first ? "\"" : ", \"") + name + "\": {\"count\": " +
           std::to_string(summary.durations.size()) +
           ", \"p50_us\": " + FormatNumber(Quantile(summary.durations, 0.5)) +
           ", \"p99_us\": " + FormatNumber(Quantile(summary.durations, 0.99)) +
           ", \"total_us\": " + FormatNumber(total) +
           ", \"self_us\": " + FormatNumber(summary.self_us) + "}";
    first = false;
  }
  return out + "}, \"spans\": [" + list + "]}";
}

// ---- output -------------------------------------------------------------

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "null";
  return std::string(buf, end);
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
