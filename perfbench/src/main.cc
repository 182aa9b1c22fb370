// mmdb_perfbench: runs one workload and prints, as its last stdout line,
//   {"correct": ..., "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
//   mmdb_perfbench --workload oltp|analytic|ingest|restart --seed N
//                  --seconds S --trace 0|1 [--trace-out FILE] [--perturb]
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common.h"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::RunResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metrics of BENCHMARK.json, in its order. Every workload reports
/// every end-to-end metric; run.py checks the result line against the
/// manifest, so a drift between the two fails the run.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_ops_s", "ops/s"},
    {"op_p50_us", "us"},
};

/// A layer a workload does not call reads 0 on that workload (README
/// "Per-layer metrics" names the workload that measures each).
constexpr MetricSpec kPerLayer[] = {
    {"server.overhead_us", "us"},
    {"locks.waits_per_kstmt", "1/kstmt"},
    {"db.parse_us", "us"},
    {"db.catalog_us", "us"},
    {"optimizer.plan_us", "us"},
    {"optimizer.execute_us", "us"},
    {"index.lookup_us", "us"},
    {"exec.join_ms", "ms"},
    {"exec.spill_join_ms", "ms"},
    {"exec.scan_ms", "ms"},
    {"exec.scan_ns_per_row", "ns"},
    {"exec.spill_pages_per_query", "pages"},
    {"exec.join_build_tuples", "tuples"},
    {"exec.join_probe_tuples", "tuples"},
    {"exec.minor_faults_per_query", "faults"},
    {"storage.bytes_per_row", "B"},
    {"txn.precommit_us", "us"},
    {"txn.log_wait_us", "us"},
    {"txn.commit_us", "us"},
    {"log.commits_per_flush", "commits"},
    {"log.bytes_per_commit", "B"},
    {"recovery.recover_s", "s"},
    {"recovery.records_per_s", "records/s"},
    {"recovery.fixed_s", "s"},
};

/// `reported` in the order of `specs`. A metric of `specs` the workload
/// did not report is an error unless `absent_is_zero`; a reported metric
/// outside `specs`, or in another unit, is always one.
template <size_t N>
bool InManifestOrder(const std::vector<Metric>& reported,
                     const MetricSpec (&specs)[N], bool absent_is_zero,
                     std::vector<Metric>* out) {
  bool ok = true;
  for (const Metric& m : reported) {
    bool known = false;
    for (const MetricSpec& spec : specs) {
      known = known || (m.name == spec.name && m.unit == spec.unit);
    }
    if (!known) {
      std::fprintf(stderr, "metric %s (%s) is not in the manifest\n",
                   m.name.c_str(), m.unit.c_str());
      ok = false;
    }
  }
  for (const MetricSpec& spec : specs) {
    const Metric* found = nullptr;
    for (const Metric& m : reported) {
      if (m.name == spec.name) found = &m;
    }
    if (found != nullptr) {
      out->push_back(*found);
    } else if (absent_is_zero) {
      out->push_back({spec.name, 0, spec.unit});
    } else {
      std::fprintf(stderr, "metric %s was not reported\n", spec.name);
      ok = false;
    }
  }
  return ok;
}

void Usage() {
  std::fprintf(stderr,
               "usage: mmdb_perfbench --workload oltp|analytic|ingest|restart"
               " --seed N --seconds S --trace 0|1 [--trace-out FILE]"
               " [--perturb]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb") {
      args->perturb = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0) || args->seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::MarkProcessStart();
  // Keep freed heap memory in the process, in one arena: without this,
  // glibc returns the row memory a query frees and the next query faults it
  // back in, and which thread's arena holds what varies from run to run, so
  // times and peak RSS swing with what else the machine is doing.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);

  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  perfbench::EnableTracing(args.trace);
  RunResult result;
  if (args.workload == "oltp") {
    result = perfbench::RunOltp(args);
  } else if (args.workload == "analytic") {
    result = perfbench::RunAnalytic(args);
  } else if (args.workload == "ingest") {
    result = perfbench::RunIngest(args);
  } else if (args.workload == "restart") {
    result = perfbench::RunRestart(args);
  } else {
    Usage();
    return 2;
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  if (result.attempted < 1) {
    std::fprintf(stderr, "workload attempted no operation\n");
    return 1;
  }

  // A NaN or an infinity is a metric computed from nothing (a division by
  // a zero count): refuse the run rather than report a number.
  for (const auto* metrics : {&result.end_to_end, &result.per_layer}) {
    for (const perfbench::Metric& m : *metrics) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "metric %s is not a number\n", m.name.c_str());
        return 1;
      }
    }
  }

  std::vector<Metric> end_to_end, per_layer;
  if (!InManifestOrder(result.end_to_end, kEndToEnd, false, &end_to_end) ||
      (args.trace &&
       !InManifestOrder(result.per_layer, kPerLayer, true, &per_layer))) {
    return 1;
  }

  if (args.trace && !args.trace_out.empty()) {
    std::ofstream file(args.trace_out);
    file << "{\"workload\": \"" << args.workload << "\", \"seed\": "
         << args.seed << ", \"seconds\": " << perfbench::FormatNumber(args.seconds)
         << ", \"per_layer\": " << perfbench::MetricsJson(per_layer)
         << ", \"end_to_end\": " << perfbench::MetricsJson(end_to_end)
         << ", \"trace\": " << perfbench::SpansJson() << "}\n";
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              perfbench::MetricsJson(args.trace ? per_layer : end_to_end)
                  .c_str());
  return 0;
}
