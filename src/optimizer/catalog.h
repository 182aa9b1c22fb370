#ifndef MMDB_OPTIMIZER_CATALOG_H_
#define MMDB_OPTIMIZER_CATALOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/relation.h"

namespace mmdb {

/// Per-column statistics gathered at registration time (the inputs to
/// Selinger-style selectivity estimation [SELI79]).
struct ColumnStats {
  int64_t num_distinct = 0;
  Value min_value;
  Value max_value;
  bool has_min_max = false;
};

/// Per-table statistics: the ||R|| and |R| of the cost formulas.
struct TableStats {
  int64_t num_tuples = 0;
  int64_t num_pages = 0;
  std::vector<ColumnStats> columns;
};

/// Kinds of secondary indexes the planner may route point/prefix
/// restrictions through (§2's access methods feeding §4's planning).
enum class IndexKind { kAvl, kBTree, kHash };

struct IndexInfo {
  std::string column;
  IndexKind kind;
};

/// Folds rows into per-column statistics: min/max and an exact distinct
/// count. Distinct values are counted by their 64-bit HashValue in a flat
/// open-addressing set (8 B per slot, no allocation per entry), the same
/// quantity a full rescan counts. Catalog::RegisterTable scans a relation
/// through one; Database keeps one per table and folds each row as it is
/// appended, so a catalog rebuild reads statistics instead of rows.
/// There is no delete: a value folded in stays counted.
class TableStatsBuilder {
 public:
  TableStatsBuilder() = default;
  explicit TableStatsBuilder(int num_columns)
      : columns_(static_cast<size_t>(num_columns)) {}

  /// Folds every column of `row` (one value per column, schema types).
  void Add(const Row& row);
  /// Folds one value into `column` alone: widens its min/max and counts
  /// its hash.
  void AddValue(int column, const Value& v);

  /// The per-column statistics folded so far.
  std::vector<ColumnStats> ColumnStatistics() const;

 private:
  /// Set of 64-bit hashes: linear probing over a power-of-two table that
  /// doubles at 7/8 load. Slot value 0 marks an empty slot, so the hash 0
  /// (HashValue of INT64 0) is tracked by a flag instead.
  class HashSet {
   public:
    void Insert(uint64_t h);
    int64_t size() const { return used_ + (has_zero_ ? 1 : 0); }

   private:
    void Grow();
    std::vector<uint64_t> slots_;
    int64_t used_ = 0;
    bool has_zero_ = false;
  };
  struct Column {
    ColumnStats stats;
    HashSet distinct;
  };
  std::vector<Column> columns_;
};

/// A registered table: the memory-resident relation plus its statistics.
struct TableEntry {
  std::string name;
  const Relation* relation = nullptr;
  TableStats stats;
  std::vector<IndexInfo> indexes;
};

/// Name -> table registry used by the optimizer and plan executor. Tables
/// are borrowed; the caller keeps the Relations alive.
class Catalog {
 public:
  explicit Catalog(int64_t page_size = 4096) : page_size_(page_size) {}

  /// Registers `relation` under `name`, computing full column statistics
  /// (one pass; exact distinct counts — the relations are memory resident).
  Status RegisterTable(const std::string& name, const Relation* relation);

  /// Registers `relation` with column statistics folded elsewhere (a
  /// write path that kept `stats` current); scans no rows. ||R|| and |R|
  /// are still read off the relation.
  Status RegisterTable(const std::string& name, const Relation* relation,
                       const TableStatsBuilder& stats);

  StatusOr<const TableEntry*> Lookup(const std::string& name) const;

  /// Declares that `table.column` has an index of `kind`. The planner may
  /// then emit IndexScan nodes served by an IndexProvider at execution.
  Status RegisterIndex(const std::string& table, const std::string& column,
                       IndexKind kind);

  /// The index on `table.column`, or nullptr.
  const IndexInfo* FindIndex(const std::string& table,
                             const std::string& column) const;

  /// Index of `column` in `table`'s schema.
  StatusOr<int> ResolveColumn(const std::string& table,
                              const std::string& column) const;

  int64_t page_size() const { return page_size_; }
  std::vector<std::string> TableNames() const;

  /// Rows read by the scanning RegisterTable since construction.
  int64_t rows_scanned() const { return rows_scanned_; }

 private:
  int64_t page_size_;
  int64_t rows_scanned_ = 0;
  std::map<std::string, TableEntry> tables_;
};

}  // namespace mmdb

#endif  // MMDB_OPTIMIZER_CATALOG_H_
