// Outside-in layer probes: run one SQL statement through the program's
// public layer functions one stage at a time, timing each stage as a span,
// and turn the counters the database publishes into per-layer metrics.
#ifndef MMDB_PERFBENCH_LAYERS_H_
#define MMDB_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common.h"
#include "db/database.h"

namespace perfbench {

struct StageTimes {
  double parse_us = 0;
  double plan_us = 0;
  double execute_us = 0;
  /// The statement's own exec.* counters (a private registry, as the
  /// database gives each read statement).
  mmdb::MetricsRegistry::Snapshot counters;
  int64_t minor_faults = 0;
  mmdb::Relation result;  ///< the statement's result
};

/// Parses, plans, executes and aggregates the SELECT `sql` against `db`
/// stage by stage, with the planner options `db` itself would use
/// (`options` must be the ones `db` was built with). Call only while no
/// statement runs.
mmdb::StatusOr<StageTimes> RunStages(mmdb::Database* db,
                                     const mmdb::Database::Options& options,
                                     const std::string& sql);

/// Stage times of write statements run by RunWriteStages.
struct WriteStageTimes {
  std::vector<double> parse_us;
  std::vector<double> precommit_us;
  std::vector<double> log_wait_us;
  std::vector<double> catalog_us;
};

/// Runs the write statement `sql` straight through `db`, stage by stage:
/// ParseStatement, ExecuteSqlPreCommit, WaitSqlDurable, then the catalog
/// rebuild the write left for the next read. Appends each stage's time to
/// `times` and returns the statement's result.
mmdb::StatusOr<mmdb::Database::SqlResult> RunWriteStages(
    mmdb::Database* db, const std::string& sql, WriteStageTimes* times);

/// db.parse_us, db.catalog_us, txn.precommit_us and txn.log_wait_us: the
/// medians of `times`.
void AddWriteStageMetrics(const WriteStageTimes& times, RunResult* out);

/// log.commits_per_flush and log.bytes_per_commit over the log counters
/// (log.commits, log.device_writes, log.logical_bytes) that grew from
/// `before` to `after`.
void AddLogMetrics(const mmdb::MetricsRegistry::Snapshot& before,
                   const mmdb::MetricsRegistry::Snapshot& after,
                   RunResult* out);

/// Counter `name` of a registry snapshot, 0 when absent.
int64_t Counter(const mmdb::MetricsRegistry::Snapshot& snapshot,
                const std::string& name);

}  // namespace perfbench

#endif  // MMDB_PERFBENCH_LAYERS_H_
