// ingest: one session loads a fixed number of rows into an empty table in
// multi-row INSERT batches, reading back one just-inserted row per batch.
// Each round starts from a fresh database, so every round does the same
// work; a run repeats whole rounds.
#include <memory>
#include <string>

#include "common.h"
#include "layers.h"
#include "oracle.h"
#include "server/server.h"

namespace perfbench {

namespace {

using mmdb::Database;

constexpr int64_t kRowsPerRound = 16'000;
constexpr int64_t kRowsPerBatch = 50;
constexpr int64_t kBatches = kRowsPerRound / kRowsPerBatch;
/// Set-up ends with a short untimed round: threads, allocator and code
/// paths warm up before the first timed round.
constexpr int64_t kWarmupBatches = 32;

constexpr const char* kCreateSql =
    "CREATE TABLE t (id INT64, a INT64, b INT64)";

/// The rows of a round (keys 1..kRowsPerRound in a seeded order) as batch
/// statements, plus the row each read-back asks for.
struct Inputs {
  std::vector<std::string> inserts;
  std::vector<std::string> reads;
  std::vector<std::vector<int64_t>> read_rows;
};

Inputs Generate(uint64_t seed) {
  mmdb::Random rng = StreamRng(seed, 0);
  std::vector<int64_t> keys(kRowsPerRound);
  for (int64_t i = 0; i < kRowsPerRound; ++i) keys[size_t(i)] = i + 1;
  rng.Shuffle(&keys);
  Inputs in;
  for (int64_t b = 0; b < kBatches; ++b) {
    std::string sql = "INSERT INTO t VALUES ";
    const int64_t pick = rng.UniformInt(0, kRowsPerBatch - 1);
    for (int64_t r = 0; r < kRowsPerBatch; ++r) {
      const int64_t id = keys[size_t(b * kRowsPerBatch + r)];
      const int64_t a = rng.UniformInt(0, 1'000'000);
      const int64_t c = rng.UniformInt(-1000, 1000);
      sql.append(r > 0 ? ", (" : "(").append(std::to_string(id));
      sql.append(", ").append(std::to_string(a));
      sql.append(", ").append(std::to_string(c)).append(")");
      if (r == pick) {
        in.reads.push_back("SELECT id, a, b FROM t WHERE id = " +
                           std::to_string(id));
        in.read_rows.push_back({id, a, c});
      }
    }
    in.inserts.push_back(std::move(sql));
  }
  return in;
}

std::unique_ptr<Database> OpenDatabase(mmdb::Status* status) {
  auto db = std::make_unique<Database>();
  Database::TxnPlaneOptions txn;
  txn.log_write_latency = kLogWriteLatency;
  *status = db->EnableTransactions(txn);
  return db;
}

struct RoundStats {
  double load_s = 0;
  /// One operation: an INSERT batch and the read-back after it.
  std::vector<double> op_us;
  int64_t rss_growth = 0;
  mmdb::MetricsRegistry::Snapshot metrics;
};

/// One round: fresh database, CREATE TABLE, `batches` INSERT + read-back
/// pairs, then (for a whole round) the closed-form COUNT(*) / SUM(id) check.
void RunRound(const Inputs& in, int64_t batches, bool perturb,
              RoundStats* stats, RunResult* out) {
  mmdb::Status status;
  std::unique_ptr<Database> db = OpenDatabase(&status);
  if (!status.ok()) {
    out->Fail("EnableTransactions: " + status.ToString());
    return;
  }
  mmdb::Server::Options server_options;
  server_options.scheduler.num_workers = kSchedulerWorkers;
  mmdb::Server server(db.get(), server_options);
  auto session = server.OpenSession();
  if (!session.ok() || !(*session)->ExecuteSql(kCreateSql).ok()) {
    out->Fail("round set-up failed");
    return;
  }
  const int64_t rss_before = CurrentRssBytes();
  const int64_t start_ns = NowNs();
  for (int64_t b = 0; b < batches; ++b) {
    Span op("ingest.batch");
    Span write("ingest.insert");
    auto w = (*session)->ExecuteSql(in.inserts[size_t(b)]);
    write.FinishUs();
    if (!w.ok() || w->rows_affected != kRowsPerBatch) {
      out->Fail("INSERT batch " + std::to_string(b) + " failed");
      return;
    }
    Span read("ingest.read_back");
    auto r = (*session)->ExecuteSql(in.reads[size_t(b)]);
    read.FinishUs();
    stats->op_us.push_back(op.FinishUs());
    if (!r.ok()) {
      out->Fail("read-back " + std::to_string(b) + ": " +
                r.status().ToString());
      return;
    }
    if (perturb && b == 0) PerturbOneRow(&r->relation, 1);
    const std::string diff = CheckSingleRow(r->relation, in.read_rows[size_t(b)]);
    if (!diff.empty()) out->Fail("read-back " + std::to_string(b) + ": " + diff);
  }
  stats->load_s = SecondsSince(start_ns);
  stats->rss_growth = CurrentRssBytes() - rss_before;
  if (batches == kBatches) {
    auto total = (*session)->ExecuteSql("SELECT COUNT(*), SUM(id) FROM t");
    const std::string diff =
        total.ok() ? CheckSingleRow(total->relation,
                                    {kRowsPerRound,
                                     kRowsPerRound * (kRowsPerRound + 1) / 2})
                   : total.status().ToString();
    if (!diff.empty()) out->Fail("COUNT(*), SUM(id): " + diff);
  }
  stats->metrics = db->MetricsSnapshot();
  server.Shutdown();
}

/// Traced run only: one more round straight through the Database, stage by
/// stage: parse, pre-commit, log wait, then the catalog rebuild the write
/// left for the next read.
void ProbeLayers(const Inputs& in, RunResult* out) {
  mmdb::Status status;
  std::unique_ptr<Database> db = OpenDatabase(&status);
  if (status.ok()) status = db->ExecuteSql(kCreateSql).status();
  if (!status.ok()) {
    out->Fail("probe set-up: " + status.ToString());
    return;
  }
  WriteStageTimes writes;
  for (int64_t b = 0; b < kBatches; ++b) {
    auto w = RunWriteStages(db.get(), in.inserts[size_t(b)], &writes);
    if (!w.ok()) out->Fail("probe INSERT: " + w.status().ToString());
    auto r = db->ExecuteSql(in.reads[size_t(b)]);
    if (!r.ok() || !CheckSingleRow(r->relation, in.read_rows[size_t(b)]).empty()) {
      out->Fail("probe read-back " + std::to_string(b) + " wrong");
    }
  }
  AddWriteStageMetrics(writes, out);
}

}  // namespace

RunResult RunIngest(const Args& args) {
  RunResult out;
  const Inputs inputs = Generate(args.seed);
  RoundStats warmup;
  RunRound(inputs, kWarmupBatches, false, &warmup, &out);
  out.end_to_end.push_back({"setup_s", SecondsSinceProcessStart(), "s"});

  std::vector<RoundStats> rounds;
  const int64_t deadline_ns =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  while (NowNs() < deadline_ns && out.correct) {
    rounds.emplace_back();
    RunRound(inputs, kBatches, args.perturb && rounds.size() == 1,
             &rounds.back(), &out);
    out.attempted += kBatches;
  }
  double load_s = 0;
  std::vector<double> op_us;
  mmdb::MetricsRegistry::Snapshot log;  // every round's log counters
  for (const RoundStats& r : rounds) {
    load_s += r.load_s;
    op_us.insert(op_us.end(), r.op_us.begin(), r.op_us.end());
    for (const char* name :
         {"log.commits", "log.device_writes", "log.logical_bytes"}) {
      log.counters[name] += Counter(r.metrics, name);
    }
  }
  out.end_to_end.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  out.end_to_end.push_back(
      {"throughput_ops_s",
       double(kBatches) * double(rounds.size()) / std::max(load_s, 1e-9),
       "ops/s"});
  out.end_to_end.push_back({"op_p50_us", Median(op_us), "us"});

  // No timed round ran (the warm-up failed): nothing to trace.
  if (rounds.empty()) return out;
  if (args.trace) {
    out.per_layer.push_back(
        {"storage.bytes_per_row",
         double(rounds.front().rss_growth) / double(kRowsPerRound), "B"});
    AddLogMetrics({}, log, &out);
    ProbeLayers(inputs, &out);
  }
  return out;
}

}  // namespace perfbench
