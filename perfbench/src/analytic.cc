// analytic: one report client runs rotations of a fitting join, a spilling
// join and a filtered single-table aggregate over a fact and a dimension
// table, with a pause between rotations.
#include <chrono>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "layers.h"
#include "oracle.h"
#include "server/server.h"

namespace perfbench {

namespace {

using mmdb::Database;

constexpr int64_t kFactRows = 50'000;
constexpr int64_t kDimRows = 5'000;
constexpr int64_t kCategories = 16;
constexpr int64_t kRegions = 8;
/// Width of the dimension table's name column: 120-byte dimension rows.
constexpr int32_t kDimNameWidth = 96;
/// The operators' memory grant |M| in 4 KiB pages (512 KiB). The whole
/// dimension table (~148 pages) does not fit, so the join that builds on
/// all of it spills; one region of it (~19 pages) does. Every aggregation
/// input (at most ~21k projected rows, ~83 pages) fits too, so only that
/// join spills.
constexpr int64_t kMemoryPages = 128;
/// Rotations of the three query kinds, with their literals, in a run's
/// cycle of queries.
constexpr int kRotations = 8;
/// The report client's pause between rotations (README "Workloads").
constexpr std::chrono::milliseconds kThinkTime{50};

enum Kind { kJoin = 0, kSpillJoin = 1, kScan = 2, kKinds = 3 };
const char* const kKindSpan[kKinds] = {"analytic.join", "analytic.spill_join",
                                       "analytic.scan"};

struct Tables {
  std::vector<int64_t> dim_cat, dim_region;
  std::vector<int64_t> fact_dim, fact_qty, fact_price;
};

Tables Generate(uint64_t seed) {
  Tables t;
  mmdb::Random rng = StreamRng(seed, 0);
  for (int64_t i = 0; i < kDimRows; ++i) {
    t.dim_cat.push_back(rng.UniformInt(0, kCategories - 1));
    t.dim_region.push_back(rng.UniformInt(0, kRegions - 1));
  }
  for (int64_t i = 0; i < kFactRows; ++i) {
    t.fact_dim.push_back(rng.UniformInt(0, kDimRows - 1));
    t.fact_qty.push_back(rng.UniformInt(0, 99));
    t.fact_price.push_back(rng.UniformInt(1, 10'000));
  }
  return t;
}

/// One query of the rotation: its text and the answer the benchmark
/// computes from its own copy of the rows.
struct Query {
  Kind kind;
  std::string sql;
  std::map<int64_t, int64_t> groups;  ///< kJoin / kSpillJoin
  std::vector<int64_t> row;           ///< kScan: COUNT(*), SUM(f_price)
};

Query MakeQuery(Kind kind, mmdb::Random* rng, const Tables& t) {
  Query q{kind, "", {}, {}};
  switch (kind) {
    case kJoin: {
      const int64_t region = rng->UniformInt(0, kRegions - 1);
      q.sql = "SELECT d_cat, SUM(f_qty) FROM fact, dim WHERE f_dim = d_id "
              "AND d_region = " + std::to_string(region) + " GROUP BY d_cat";
      for (int64_t i = 0; i < kFactRows; ++i) {
        const size_t d = size_t(t.fact_dim[size_t(i)]);
        if (t.dim_region[d] == region) {
          q.groups[t.dim_cat[d]] += t.fact_qty[size_t(i)];
        }
      }
      break;
    }
    case kSpillJoin: {
      const int64_t qty = rng->UniformInt(34, 42);
      q.sql = "SELECT d_region, SUM(f_price) FROM fact, dim WHERE "
              "f_dim = d_id AND f_qty < " + std::to_string(qty) +
              " GROUP BY d_region";
      for (int64_t i = 0; i < kFactRows; ++i) {
        if (t.fact_qty[size_t(i)] < qty) {
          q.groups[t.dim_region[size_t(t.fact_dim[size_t(i)])]] +=
              t.fact_price[size_t(i)];
        }
      }
      break;
    }
    case kScan:
    case kKinds: {
      const int64_t qty = rng->UniformInt(34, 42);
      q.sql = "SELECT COUNT(*), SUM(f_price) FROM fact WHERE f_qty < " +
              std::to_string(qty);
      int64_t count = 0;
      int64_t sum = 0;
      for (int64_t i = 0; i < kFactRows; ++i) {
        if (t.fact_qty[size_t(i)] < qty) {
          ++count;
          sum += t.fact_price[size_t(i)];
        }
      }
      q.row = {count, sum};
      break;
    }
  }
  return q;
}

std::string CheckQuery(const Query& q, const mmdb::Relation& rows) {
  return q.kind == kScan ? CheckSingleRow(rows, q.row)
                         : CheckGroups(rows, q.groups);
}

mmdb::Status Load(Database* db, const Tables& t) {
  mmdb::Schema dim({mmdb::Column::Int64("d_id"), mmdb::Column::Int64("d_cat"),
                    mmdb::Column::Int64("d_region"),
                    mmdb::Column::Char("d_name", kDimNameWidth)});
  mmdb::Schema fact({mmdb::Column::Int64("f_id"), mmdb::Column::Int64("f_dim"),
                     mmdb::Column::Int64("f_qty"),
                     mmdb::Column::Int64("f_price")});
  MMDB_RETURN_IF_ERROR(db->CreateTable("dim", dim));
  MMDB_RETURN_IF_ERROR(db->CreateTable("fact", fact));
  for (int64_t i = 0; i < kDimRows; ++i) {
    MMDB_RETURN_IF_ERROR(db->Insert(
        "dim", {mmdb::Value(i), mmdb::Value(t.dim_cat[size_t(i)]),
                mmdb::Value(t.dim_region[size_t(i)]),
                mmdb::Value("dim-" + std::to_string(i))}));
  }
  for (int64_t i = 0; i < kFactRows; ++i) {
    MMDB_RETURN_IF_ERROR(db->Insert(
        "fact", {mmdb::Value(i), mmdb::Value(t.fact_dim[size_t(i)]),
                 mmdb::Value(t.fact_qty[size_t(i)]),
                 mmdb::Value(t.fact_price[size_t(i)])}));
  }
  return mmdb::Status::OK();
}

/// Traced run only: each query kind through ExecutePlan, with the plan's
/// own exec.* counters and the page faults it takes.
void ProbeLayers(Database* db, const Database::Options& options,
                 const Tables& t, uint64_t seed, RunResult* out) {
  constexpr int kPerKind = 5;
  mmdb::Random rng = StreamRng(seed, 2);
  std::vector<double> execute_ms[kKinds];
  int64_t spill_pages = 0, build = 0, probe = 0, faults = 0, scan_rows = 0;
  int64_t joins = 0, spill_joins = 0;
  for (int i = 0; i < kPerKind; ++i) {
    for (int k = 0; k < kKinds; ++k) {
      Query q = MakeQuery(Kind(k), &rng, t);
      auto stages = RunStages(db, options, q.sql);
      if (!stages.ok()) {
        out->Fail("stage probe: " + stages.status().ToString());
        return;
      }
      const std::string diff = CheckQuery(q, stages->result);
      if (!diff.empty()) out->Fail("stage probe " + q.sql + ": " + diff);
      execute_ms[k].push_back(stages->execute_us * 1e-3);
      faults += stages->minor_faults;
      const auto& c = stages->counters;
      if (k == kScan) scan_rows += Counter(c, "exec.filter.rows_in");
      if (k == kSpillJoin) {
        spill_pages += Counter(c, "exec.spill.pages");
        ++spill_joins;
      } else if (k == kJoin && Counter(c, "exec.spill.pages") != 0) {
        out->Fail("the fitting join spilled");
      }
      if (k != kScan) {
        build += Counter(c, "exec.join.build_tuples");
        probe += Counter(c, "exec.join.probe_tuples");
        ++joins;
      }
    }
  }
  const double scan_ms = Median(execute_ms[kScan]);
  const double scans = kPerKind;
  out->per_layer.push_back({"exec.join_ms", Median(execute_ms[kJoin]), "ms"});
  out->per_layer.push_back(
      {"exec.spill_join_ms", Median(execute_ms[kSpillJoin]), "ms"});
  out->per_layer.push_back({"exec.scan_ms", scan_ms, "ms"});
  out->per_layer.push_back(
      {"exec.scan_ns_per_row",
       scan_ms * 1e6 / (double(scan_rows) / scans),
       "ns"});
  out->per_layer.push_back({"exec.spill_pages_per_query",
                            double(spill_pages) / double(spill_joins),
                            "pages"});
  out->per_layer.push_back(
      {"exec.join_build_tuples", double(build) / double(joins), "tuples"});
  out->per_layer.push_back(
      {"exec.join_probe_tuples", double(probe) / double(joins), "tuples"});
  out->per_layer.push_back({"exec.minor_faults_per_query",
                            double(faults) / double(kPerKind * kKinds),
                            "faults"});
}

}  // namespace

RunResult RunAnalytic(const Args& args) {
  RunResult out;
  const Tables tables = Generate(args.seed);

  Database::Options options;
  options.memory_pages = kMemoryPages;
  Database db(options);
  const int64_t rss_before_load = CurrentRssBytes();
  mmdb::Status status = Load(&db, tables);
  const int64_t rss_after_load = CurrentRssBytes();
  if (!status.ok()) {
    out.Fail("set-up: " + status.ToString());
    return out;
  }
  mmdb::Server::Options server_options;
  server_options.scheduler.num_workers = kSchedulerWorkers;
  mmdb::Server server(&db, server_options);
  auto session = server.OpenSession();
  if (!session.ok()) {
    out.Fail("OpenSession: " + session.status().ToString());
    return out;
  }

  // The queries of a run and their answers, made before the clock starts:
  // kRotations rotations of the three kinds, run over and over.
  mmdb::Random rng = StreamRng(args.seed, 1);
  std::vector<Query> cycle;
  for (int r = 0; r < kRotations; ++r) {
    for (int k = 0; k < kKinds; ++k) {
      cycle.push_back(MakeQuery(Kind(k), &rng, tables));
    }
  }
  auto run_query = [&](const Query& q, bool perturb) {
    Span span(kKindSpan[q.kind]);
    auto r = (*session)->ExecuteSql(q.sql);
    span.FinishUs();
    if (!r.ok()) {
      out.Fail(q.sql + ": " + r.status().ToString());
      return;
    }
    if (perturb) PerturbOneRow(&r->relation, 1);
    const std::string diff = CheckQuery(q, r->relation);
    if (!diff.empty()) out.Fail(q.sql + ": " + diff);
  };
  // The end of set-up: one rotation, checked but not counted, so the
  // catalog is built and the operators' memory has been used once.
  for (int k = 0; k < kKinds; ++k) run_query(cycle[size_t(k)], false);
  out.end_to_end.push_back({"setup_s", SecondsSinceProcessStart(), "s"});

  // An operation is one rotation: the three queries of a report. Whole
  // rotations until --seconds have passed.
  std::vector<double> op_us;
  const int64_t start_ns = NowNs();
  const int64_t deadline_ns =
      start_ns + static_cast<int64_t>(args.seconds * 1e9);
  size_t next = 0;
  while (NowNs() < deadline_ns) {
    Span rotation("analytic.rotation");
    for (int k = 0; k < kKinds; ++k) {
      run_query(cycle[next], args.perturb && out.attempted == 0);
      next = (next + 1) % cycle.size();
    }
    op_us.push_back(rotation.FinishUs());
    ++out.attempted;
    std::this_thread::sleep_for(kThinkTime);
  }
  const double elapsed = SecondsSince(start_ns);
  out.end_to_end.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  out.end_to_end.push_back(
      {"throughput_ops_s", double(out.attempted) / elapsed, "ops/s"});
  out.end_to_end.push_back({"op_p50_us", Median(op_us), "us"});

  if (args.trace) {
    ProbeLayers(&db, options, tables, args.seed, &out);
    out.per_layer.push_back(
        {"storage.bytes_per_row",
         double(rss_after_load - rss_before_load) /
             double(kFactRows + kDimRows),
         "B"});
  }
  server.Shutdown();
  return out;
}

}  // namespace perfbench
