// Write-path catalog statistics (DESIGN.md §10): Database folds every row it
// appends into a per-table TableStatsBuilder, and a catalog rebuild copies
// those statistics instead of rescanning rows. These tests hold the folded
// statistics to a fresh full scan of the same relations.
#include "optimizer/catalog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "db/database.h"
#include "db/query_parser.h"
#include "optimizer/optimizer.h"
#include "server/server.h"
#include "server/session.h"

namespace mmdb {
namespace {

/// A catalog of the same relations and indexes as `live`, with statistics
/// from the scanning RegisterTable.
Catalog Rescan(const Catalog& live) {
  Catalog rescan(live.page_size());
  for (const std::string& name : live.TableNames()) {
    const TableEntry* entry = *live.Lookup(name);
    EXPECT_TRUE(rescan.RegisterTable(name, entry->relation).ok());
    for (const IndexInfo& index : entry->indexes) {
      EXPECT_TRUE(rescan.RegisterIndex(name, index.column, index.kind).ok());
    }
  }
  return rescan;
}

void ExpectStatsEqual(const TableStats& got, const TableStats& want,
                      const std::string& label) {
  EXPECT_EQ(got.num_tuples, want.num_tuples) << label;
  EXPECT_EQ(got.num_pages, want.num_pages) << label;
  ASSERT_EQ(got.columns.size(), want.columns.size()) << label;
  for (size_t c = 0; c < got.columns.size(); ++c) {
    const ColumnStats& g = got.columns[c];
    const ColumnStats& w = want.columns[c];
    const std::string where = label + " column " + std::to_string(c);
    EXPECT_EQ(g.num_distinct, w.num_distinct) << where;
    EXPECT_EQ(g.has_min_max, w.has_min_max) << where;
    if (g.has_min_max && w.has_min_max) {
      EXPECT_EQ(g.min_value, w.min_value) << where;
      EXPECT_EQ(g.max_value, w.max_value) << where;
    }
  }
}

OptimizerOptions PlannerOptions() {
  // What Database::Explain builds from default Database::Options.
  const Database::Options db_options;
  OptimizerOptions opts;
  opts.memory_pages = db_options.memory_pages;
  opts.cost_params = db_options.cost_params;
  opts.w_cpu = db_options.w_cpu;
  opts.hash_only = db_options.planner_hash_only;
  return opts;
}

std::string PlanText(const Catalog& catalog, const Query& query) {
  Optimizer optimizer(&catalog, PlannerOptions());
  auto plan = optimizer.Optimize(query);
  if (!plan.ok()) return "error: " + plan.status().ToString();
  return (*plan)->ToString();
}

/// Queries over the tables the random history below creates; each plans
/// once every table it names exists.
const std::vector<std::string>& FixedQueries() {
  static const std::vector<std::string> queries = {
      "SELECT id, val FROM a WHERE grp = 3",
      "SELECT id FROM a WHERE val < 10.0",
      "SELECT tag FROM a WHERE tag = 'aa'",
      "SELECT id, tag FROM a WHERE grp >= -2 AND id < 40",
      "SELECT name, val FROM a, b WHERE a.grp = b.k",
      "SELECT name FROM b WHERE k >= 5 AND score > 0.5",
      "SELECT x, id FROM e, a WHERE e.x = a.id",
      "SELECT name, tag FROM a, b, e WHERE a.grp = b.k AND b.k = e.x",
  };
  return queries;
}

/// After any write history: every table's catalog statistics equal a full
/// rescan, and every fixed query plans to the same text on both catalogs
/// and through Database's own EXPLAIN.
void ExpectCatalogMatchesRescan(Database* db, const std::string& label) {
  const Catalog& live = db->catalog();
  EXPECT_EQ(db->metrics()->Get("catalog.rows_scanned"), 0) << label;
  const Catalog rescan = Rescan(live);
  for (const std::string& name : live.TableNames()) {
    ExpectStatsEqual((*live.Lookup(name))->stats,
                     (*rescan.Lookup(name))->stats, label + " table " + name);
  }
  for (const std::string& sql : FixedQueries()) {
    auto parsed = ParseStatement(sql, live);
    if (!parsed.ok()) continue;  // a table it names does not exist yet
    const std::string live_plan = PlanText(live, parsed->query);
    EXPECT_EQ(live_plan, PlanText(rescan, parsed->query)) << label << ": " << sql;
    auto explained = db->ExecuteSql("EXPLAIN " + sql);
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    EXPECT_EQ(explained->plan_text, live_plan) << label << ": " << sql;
  }
}

std::string RandomTag(Random* rng) {
  static const char* kTags[] = {"aa", "ab", "b", "zz", "a", "mm"};
  return kTags[rng->Uniform(6)];
}

/// One row literal for table a (id INT64, grp INT64, val DOUBLE, tag CHAR(8)):
/// small ranges so values repeat, negatives, and INT literals for the
/// DOUBLE column half the time (coerced on insert).
std::string RowLiteralA(Random* rng) {
  std::string row = "(";
  row += std::to_string(rng->UniformInt(-50, 50));
  row += ", " + std::to_string(rng->UniformInt(-3, 6)) + ", ";
  if (rng->Bernoulli(0.5)) {
    row += std::to_string(rng->UniformInt(-20, 20));
  } else {
    row += std::to_string(rng->UniformInt(-400, 400)) + ".25";
  }
  row += ", '" + RandomTag(rng) + "')";
  return row;
}

std::string RowLiteralB(Random* rng) {
  std::string row = "(";
  row += std::to_string(rng->UniformInt(-4, 12));
  row += ", 'n" + std::to_string(rng->UniformInt(0, 9)) + "', ";
  row += std::to_string(rng->UniformInt(0, 3)) + ".5)";
  return row;
}

Row RowA(Random* rng) {
  return {Value{rng->UniformInt(-50, 50)}, Value{rng->UniformInt(-3, 6)},
          Value{double(rng->UniformInt(-100, 100)) / 4.0},
          Value{RandomTag(rng)}};
}

void RunHistory(uint64_t seed) {
  Random rng(seed);
  Database db;
  const std::string label0 = "seed " + std::to_string(seed);
  ASSERT_TRUE(
      db.ExecuteSql(
            "CREATE TABLE a (id INT64, grp INT64, val DOUBLE, tag CHAR(8))")
          .ok());
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE e (x INT64, y DOUBLE)").ok());
  ExpectCatalogMatchesRescan(&db, label0 + " after CREATE");
  // e stays empty: no min/max to report.
  EXPECT_FALSE((*db.catalog().Lookup("e"))->stats.columns[0].has_min_max);

  bool b_exists = false;
  std::vector<std::string> unindexed = {"id", "grp", "tag"};
  for (int step = 0; step < 40; ++step) {
    const std::string label = label0 + " step " + std::to_string(step);
    switch (rng.Uniform(6)) {
      case 0:
      case 1: {  // multi-row SQL INSERT into a
        std::string sql = "INSERT INTO a VALUES ";
        const int64_t rows = rng.UniformInt(1, 12);
        for (int64_t r = 0; r < rows; ++r) {
          sql += (r > 0 ? ", " : "") + RowLiteralA(&rng);
        }
        auto result = db.ExecuteSql(sql);
        ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
        EXPECT_EQ(result->rows_affected, rows);
        break;
      }
      case 2: {  // CREATE TABLE b once, then multi-row INSERTs into it
        if (!b_exists) {
          ASSERT_TRUE(
              db.ExecuteSql("CREATE TABLE b (k INT64, name CHAR(12), "
                            "score DOUBLE)")
                  .ok());
          b_exists = true;
          break;
        }
        std::string sql = "INSERT INTO b VALUES ";
        const int64_t rows = rng.UniformInt(1, 8);
        for (int64_t r = 0; r < rows; ++r) {
          sql += (r > 0 ? ", " : "") + RowLiteralB(&rng);
        }
        ASSERT_TRUE(db.ExecuteSql(sql).ok()) << sql;
        break;
      }
      case 3:  // the embedded API
        ASSERT_TRUE(db.Insert("a", RowA(&rng)).ok());
        break;
      case 4: {  // BulkLoad (folds through Insert)
        const Relation* a = *db.GetTable("a");
        Relation batch(a->schema());
        const int64_t rows = rng.UniformInt(0, 20);
        for (int64_t r = 0; r < rows; ++r) batch.Add(RowA(&rng));
        ASSERT_TRUE(db.BulkLoad("a", std::move(batch)).ok());
        break;
      }
      case 5: {  // CREATE INDEX on a column of a not yet indexed
        if (unindexed.empty()) break;
        const size_t pick = rng.Uniform(unindexed.size());
        // B+-tree INT64 keys must be non-negative, so only tag may get one.
        const Database::IndexType types[] = {Database::IndexType::kAvl,
                                             Database::IndexType::kHash,
                                             Database::IndexType::kBTree};
        const uint64_t kinds = unindexed[pick] == "tag" ? 3 : 2;
        ASSERT_TRUE(
            db.CreateIndex("a", unindexed[pick], types[rng.Uniform(kinds)])
                .ok());
        unindexed.erase(unindexed.begin() + static_cast<long>(pick));
        break;
      }
    }
    ExpectCatalogMatchesRescan(&db, label);
  }
}

TEST(CatalogStatsTest, WritePathStatisticsEqualRescanOverRandomHistories) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunHistory(seed);
    if (HasFatalFailure()) return;
  }
}

TEST(CatalogStatsTest, BuilderCountsHashZeroAndDuplicates) {
  // HashValue(INT64 0) is 0, the flat set's empty-slot marker.
  TableStatsBuilder stats(1);
  for (int64_t v : {0, 5, 0, -5, 5, 0}) stats.Add({Value{v}});
  const std::vector<ColumnStats> cols = stats.ColumnStatistics();
  ASSERT_EQ(cols.size(), 1u);
  EXPECT_EQ(cols[0].num_distinct, 3);
  EXPECT_EQ(cols[0].min_value, Value{int64_t{-5}});
  EXPECT_EQ(cols[0].max_value, Value{int64_t{5}});

  // Enough distinct values to grow the set several times.
  TableStatsBuilder many(1);
  for (int64_t v = 0; v < 5000; ++v) many.Add({Value{v % 1234}});
  EXPECT_EQ(many.ColumnStatistics()[0].num_distinct, 1234);
}

TEST(CatalogStatsTest, ScanningRegisterCountsRowsScanned) {
  Relation rel(Schema({Column::Int64("x")}));
  for (int64_t v = 0; v < 7; ++v) rel.Add({Value{v}});
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("t", &rel).ok());
  EXPECT_EQ(catalog.rows_scanned(), 7);
  TableStatsBuilder stats(1);
  ASSERT_TRUE(catalog.RegisterTable("u", &rel, stats).ok());
  EXPECT_EQ(catalog.rows_scanned(), 7);
  EXPECT_EQ((*catalog.Lookup("u"))->stats.num_tuples, 7);
  EXPECT_EQ(catalog.RegisterTable("u", &rel, stats).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.RegisterTable("v", &rel, TableStatsBuilder(2)).code(),
            StatusCode::kInvalidArgument);
}

/// Every live value of every column lies within the catalog's min/max.
void ExpectMinMaxCoversLiveValues(Database* db, const std::string& table) {
  const TableEntry* entry = *db->catalog().Lookup(table);
  for (const Row& row : entry->relation->rows()) {
    for (size_t c = 0; c < row.size(); ++c) {
      const ColumnStats& cs = entry->stats.columns[c];
      ASSERT_TRUE(cs.has_min_max);
      EXPECT_LE(CompareValues(cs.min_value, row[c]), 0) << RowToString(row);
      EXPECT_GE(CompareValues(cs.max_value, row[c]), 0) << RowToString(row);
    }
  }
}

TEST(CatalogStatsTest, UpdateWideningTheRangeStaysCovered) {
  Database db;
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (id INT64, v INT64, d DOUBLE)").ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO t VALUES (1, 10, 1.5), (2, 20, 2.5), "
                            "(3, 30, 3.5), (4, 40, 4.5)")
                  .ok());
  ASSERT_TRUE(db.CreateIndex("t", "id", Database::IndexType::kHash).ok());
  // Index fast path and full scan, both past the old range on each side.
  ASSERT_TRUE(db.ExecuteSql("UPDATE t SET v = 1000 WHERE id = 2").ok());
  ASSERT_TRUE(db.ExecuteSql("UPDATE t SET v = -7, d = -99.0 WHERE id > 3").ok());
  // A later write invalidates the catalog, publishing the folded values.
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO t VALUES (5, 50, 5.5)").ok());
  ExpectMinMaxCoversLiveValues(&db, "t");
  const TableStats& stats = (*db.catalog().Lookup("t"))->stats;
  EXPECT_EQ(stats.columns[1].min_value, Value{int64_t{-7}});
  EXPECT_EQ(stats.columns[1].max_value, Value{int64_t{1000}});
  // Overwritten values stay counted: 10, 20, 30, 40, 50, 1000, -7.
  EXPECT_EQ(stats.columns[1].num_distinct, 7);
  EXPECT_EQ(db.metrics()->Get("catalog.rows_scanned"), 0);
}

TEST(CatalogStatsTest, SqlLoadRebuildsOncePerBatchAndScansNoRows) {
  // Insert cost flat in table size, checked without timing: 16,000 rows in
  // 50-row batches, each followed by a read. Each batch's read is the one
  // statement that rebuilds the catalog, and no rebuild reads a row.
  constexpr int kRows = 16'000;
  constexpr int kBatch = 50;
  Database db;
  Server server(&db);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      (*session)->ExecuteSql("CREATE TABLE t (id INT64, a INT64, b INT64)").ok());
  // A first read rebuilds the catalog the CREATE TABLE invalidated.
  ASSERT_TRUE((*session)->ExecuteSql("SELECT id FROM t").ok());
  const int64_t rebuilds_before = db.metrics()->Get("catalog.rebuilds");
  for (int first = 0; first < kRows; first += kBatch) {
    std::string sql = "INSERT INTO t VALUES ";
    for (int id = first; id < first + kBatch; ++id) {
      sql += (id > first ? ", (" : "(") + std::to_string(id) + ", " +
             std::to_string(id % 97) + ", " + std::to_string(-id) + ")";
    }
    auto w = (*session)->ExecuteSql(sql);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    auto r = (*session)->ExecuteSql("SELECT a FROM t WHERE id = " +
                                    std::to_string(first + 7));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->relation.num_tuples(), 1);
  }
  EXPECT_EQ(db.metrics()->Get("catalog.rebuilds") - rebuilds_before,
            kRows / kBatch);
  EXPECT_EQ(db.metrics()->Get("catalog.rows_scanned"), 0);
  const std::string json = db.MetricsJson();
  EXPECT_NE(json.find("\"catalog.rebuilds\":"), std::string::npos);
  EXPECT_NE(json.find("\"catalog.rows_scanned\":0"), std::string::npos);
  const TableStats& stats = (*db.catalog().Lookup("t"))->stats;
  EXPECT_EQ(stats.num_tuples, kRows);
  EXPECT_EQ(stats.columns[0].num_distinct, kRows);
  EXPECT_EQ(stats.columns[1].num_distinct, 97);
  EXPECT_EQ(stats.columns[2].min_value, Value{int64_t{-(kRows - 1)}});
}

TEST(CatalogStatsConcurrencyTest, ReadersPlanWhileWriterInsertsAndUpdates) {
  // Snapshot readers take no table locks, so their statements' catalog
  // rebuilds (shared latch + catalog_mu_) race the writer's folds into the
  // same table's accumulator (exclusive latch). Run under TSan.
  Database db;
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (id INT64, v INT64, d DOUBLE)").ok());
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE u (k INT64, w INT64)").ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO u VALUES (1, 1), (2, 2), (3, 3)").ok());
  Server::Options options;
  options.scheduler.num_workers = 3;
  Server server(&db, options);
  auto writer = server.OpenSession();
  ASSERT_TRUE(writer.ok());
  SessionOptions snapshot;
  snapshot.isolation = IsolationLevel::kSnapshot;
  constexpr int kReaders = 2;
  std::vector<Session*> readers;
  for (int i = 0; i < kReaders; ++i) {
    auto reader = server.OpenSession(snapshot);
    ASSERT_TRUE(reader.ok());
    readers.push_back(*reader);
  }
  std::atomic<bool> done{false};
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kReaders; ++i) {
    threads.emplace_back([&, i] {
      const std::vector<std::string> queries = {
          "SELECT id, v FROM t WHERE v > 3",
          "EXPLAIN SELECT id, w FROM t, u WHERE t.id = u.k",
          "SELECT id FROM t, u WHERE t.v = u.w AND d < 0.5",
      };
      size_t q = static_cast<size_t>(i);
      while (!done.load(std::memory_order_acquire)) {
        auto r = readers[static_cast<size_t>(i)]->ExecuteSql(
            queries[q++ % queries.size()]);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  int64_t id = 0;
  for (int batch = 0; batch < 60; ++batch) {
    std::string sql = "INSERT INTO t VALUES ";
    for (int r = 0; r < 20; ++r, ++id) {
      sql += (r > 0 ? ", (" : "(") + std::to_string(id) + ", " +
             std::to_string(id % 11) + ", " + std::to_string(id % 5) + ".5)";
    }
    auto w = (*writer)->ExecuteSql(sql);
    EXPECT_TRUE(w.ok()) << w.status().ToString();
    // The last batches are INSERTs: their invalidation publishes the
    // values the last UPDATE folded.
    if (batch % 4 == 1) {
      auto u = (*writer)->ExecuteSql("UPDATE t SET v = " +
                                     std::to_string(100 + batch) +
                                     " WHERE id < " + std::to_string(id / 2));
      EXPECT_TRUE(u.ok()) << u.status().ToString();
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  server.Shutdown();
  EXPECT_GT(reads.load(), 0);
  ExpectMinMaxCoversLiveValues(&db, "t");
  const TableStats& stats = (*db.catalog().Lookup("t"))->stats;
  EXPECT_EQ(stats.num_tuples, id);
  EXPECT_EQ(stats.columns[0].num_distinct, id);
  EXPECT_EQ(db.metrics()->Get("catalog.rows_scanned"), 0);
}

}  // namespace
}  // namespace mmdb
