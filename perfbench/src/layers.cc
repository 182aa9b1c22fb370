#include "layers.h"

#include <algorithm>

#include "db/query_parser.h"
#include "exec/aggregate.h"
#include "optimizer/executor.h"
#include "optimizer/optimizer.h"
#include "sim/cost_clock.h"

namespace perfbench {

mmdb::StatusOr<StageTimes> RunStages(mmdb::Database* db,
                                     const mmdb::Database::Options& options,
                                     const std::string& sql) {
  StageTimes times;
  const mmdb::Catalog& catalog = db->catalog();

  Span parse("db.parse");
  mmdb::StatusOr<mmdb::ParsedStatement> stmt =
      mmdb::ParseStatement(sql, catalog);
  times.parse_us = parse.FinishUs();
  if (!stmt.ok()) return stmt.status();

  // The planner options Database::ExecuteWith builds from its Options.
  mmdb::OptimizerOptions opts;
  opts.memory_pages = options.memory_pages;
  opts.cost_params = options.cost_params;
  opts.w_cpu = options.w_cpu;
  opts.hash_only = options.planner_hash_only;
  opts.vectorize = options.vectorize;
  mmdb::Optimizer optimizer(&catalog, opts);
  Span plan_span("optimizer.optimize");
  mmdb::StatusOr<std::unique_ptr<mmdb::PlanNode>> plan =
      optimizer.Optimize(stmt->query);
  times.plan_us = plan_span.FinishUs();
  if (!plan.ok()) return plan.status();

  // A statement-local clock and metrics shard, as ExecuteSql gives a read.
  mmdb::CostClock clock(options.cost_params);
  mmdb::MetricsRegistry metrics;
  mmdb::ExecContext ctx = *db->exec_context();
  ctx.clock = &clock;
  ctx.metrics = &metrics;
  const int64_t faults_before = MinorFaults();
  Span execute("exec.execute_plan");
  mmdb::StatusOr<mmdb::Relation> result =
      mmdb::ExecutePlan(**plan, catalog, &ctx, db);
  times.execute_us = execute.FinishUs();
  times.minor_faults = MinorFaults() - faults_before;
  if (!result.ok()) return result.status();
  times.counters = metrics.TakeSnapshot();
  times.result = std::move(*result);
  if (stmt->aggregate.has_value()) {
    Span aggregate("exec.aggregate");
    mmdb::StatusOr<mmdb::Relation> grouped =
        mmdb::HashAggregate(times.result, *stmt->aggregate, &ctx);
    aggregate.FinishUs();
    if (!grouped.ok()) return grouped.status();
    times.result = std::move(*grouped);
  }
  return times;
}

mmdb::StatusOr<mmdb::Database::SqlResult> RunWriteStages(
    mmdb::Database* db, const std::string& sql, WriteStageTimes* times) {
  {
    Span span("db.parse");
    auto parsed = mmdb::ParseStatement(sql, db->catalog());
    times->parse_us.push_back(span.FinishUs());
    if (!parsed.ok()) return parsed.status();
  }
  mmdb::TxnId txn = mmdb::kInvalidTxn;
  Span precommit("txn.precommit");
  auto result = db->ExecuteSqlPreCommit(sql, &txn);
  times->precommit_us.push_back(precommit.FinishUs());
  Span wait("txn.log_wait");
  db->WaitSqlDurable(txn);
  times->log_wait_us.push_back(wait.FinishUs());
  Span catalog("db.catalog");
  db->catalog();
  times->catalog_us.push_back(catalog.FinishUs());
  return result;
}

void AddWriteStageMetrics(const WriteStageTimes& times, RunResult* out) {
  out->per_layer.push_back({"db.parse_us", Median(times.parse_us), "us"});
  out->per_layer.push_back({"db.catalog_us", Median(times.catalog_us), "us"});
  out->per_layer.push_back(
      {"txn.precommit_us", Median(times.precommit_us), "us"});
  out->per_layer.push_back(
      {"txn.log_wait_us", Median(times.log_wait_us), "us"});
}

void AddLogMetrics(const mmdb::MetricsRegistry::Snapshot& before,
                   const mmdb::MetricsRegistry::Snapshot& after,
                   RunResult* out) {
  auto grown = [&](const char* name) {
    return double(Counter(after, name) - Counter(before, name));
  };
  const double commits = grown("log.commits");
  out->per_layer.push_back(
      {"log.commits_per_flush",
       commits / std::max(1.0, grown("log.device_writes")), "commits"});
  out->per_layer.push_back({"log.bytes_per_commit",
                            grown("log.logical_bytes") / std::max(1.0, commits),
                            "B"});
}

int64_t Counter(const mmdb::MetricsRegistry::Snapshot& snapshot,
                const std::string& name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

}  // namespace perfbench
