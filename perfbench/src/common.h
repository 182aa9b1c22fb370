// Shared plumbing of the mmdb benchmark: run arguments, results, wall-clock
// helpers, process counters, seeded input streams and the span tracer.
#ifndef MMDB_PERFBENCH_COMMON_H_
#define MMDB_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/value.h"

namespace perfbench {

/// Fixed for every workload (README "Configuration"): the simulated log
/// device's page-write latency and the server's scheduler workers, which
/// with at most two client threads match a 4-vCPU machine.
inline constexpr std::chrono::microseconds kLogWriteLatency{100};
inline constexpr int kSchedulerWorkers = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer spans on, per-layer metrics on the result line.
  bool trace = false;
  /// Where the traced run writes its report (per-layer and end-to-end
  /// metrics plus every span); empty = no file.
  std::string trace_out;
  /// Oracle self-test: perturb one row of a result before checking it, so
  /// a working oracle reports the run incorrect.
  bool perturb = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// The first oracle mismatches, for stderr.
  std::vector<std::string> errors;

  void Fail(const std::string& message);
};

RunResult RunOltp(const Args& args);
RunResult RunAnalytic(const Args& args);
RunResult RunIngest(const Args& args);
RunResult RunRestart(const Args& args);

// ---- time and process counters ----------------------------------------
int64_t NowNs();
double SecondsSince(int64_t start_ns);
/// Set once at the top of main(); set-up time is measured from here.
void MarkProcessStart();
double SecondsSinceProcessStart();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double PeakRssMb();
int64_t CurrentRssBytes();
int64_t MinorFaults();

/// Runs `body(&item)` for every item of `items`, one thread each, and waits
/// for all of them.
template <typename T, typename Body>
void OnEachThread(std::vector<T>* items, Body body) {
  std::vector<std::thread> threads;
  for (T& item : *items) {
    threads.emplace_back([&item, &body] { body(&item); });
  }
  for (std::thread& t : threads) t.join();
}

// ---- inputs -------------------------------------------------------------
/// Every input the benchmark makes comes from one of these: stream `stream`
/// of the run's --seed, so the same seed gives the same inputs and the
/// streams of one seed (data, each client, probes) are independent.
mmdb::Random StreamRng(uint64_t seed, uint64_t stream);

/// Integer value of an INT64 or integral DOUBLE cell (SUM yields DOUBLE).
bool AsInt(const mmdb::Value& value, int64_t* out);

// ---- tracing ----------------------------------------------------------
/// A timed call into one of the program's layers. Every span measures its
/// wall time; with tracing on (--trace 1) it is also recorded, in a
/// per-thread buffer, with its parent (the span open on this thread when
/// it started) and the trace id it shares with that parent.
class Span {
 public:
  explicit Span(const char* name);
  ~Span() { FinishUs(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (once) and returns its duration in microseconds.
  double FinishUs();

 private:
  bool open_ = true;
  double duration_us_ = 0;
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t trace_id_ = 0;
  int64_t start_ns_ = 0;
};

void EnableTracing(bool on);
bool TracingEnabled();
/// Every finished span, as JSON: "span_summary" holds, per span name, the
/// count, p50, p99, total and self time (duration minus the time its child
/// spans cover); "spans" lists each span as
/// [trace id, id, parent id, name, start ns, end ns]. Call only while no
/// span is open.
std::string SpansJson();

// ---- output -------------------------------------------------------------
/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of v.
std::string MetricsJson(const std::vector<Metric>& metrics);
/// Every digit of `value`; `null` for a NaN or an infinity, which a metric
/// must never be (main refuses to report one).
std::string FormatNumber(double value);

}  // namespace perfbench

#endif  // MMDB_PERFBENCH_COMMON_H_
