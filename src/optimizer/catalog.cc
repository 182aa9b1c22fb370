#include "optimizer/catalog.h"

namespace mmdb {

void TableStatsBuilder::HashSet::Insert(uint64_t h) {
  if (h == 0) {
    has_zero_ = true;
    return;
  }
  if ((used_ + 1) * 8 > static_cast<int64_t>(slots_.size()) * 7) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t i = h & mask;; i = (i + 1) & mask) {
    if (slots_[i] == h) return;
    if (slots_[i] == 0) {
      slots_[i] = h;
      ++used_;
      return;
    }
  }
}

void TableStatsBuilder::HashSet::Grow() {
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, 0);
  const size_t mask = slots_.size() - 1;
  for (uint64_t h : old) {
    if (h == 0) continue;
    size_t i = h & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = h;
  }
}

void TableStatsBuilder::Add(const Row& row) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    AddValue(static_cast<int>(c), row[c]);
  }
}

void TableStatsBuilder::AddValue(int column, const Value& v) {
  Column& col = columns_[static_cast<size_t>(column)];
  col.distinct.Insert(HashValue(v));
  ColumnStats& cs = col.stats;
  if (!cs.has_min_max) {
    cs.min_value = v;
    cs.max_value = v;
    cs.has_min_max = true;
  } else {
    if (CompareValues(v, cs.min_value) < 0) cs.min_value = v;
    if (CompareValues(v, cs.max_value) > 0) cs.max_value = v;
  }
}

std::vector<ColumnStats> TableStatsBuilder::ColumnStatistics() const {
  std::vector<ColumnStats> out;
  out.reserve(columns_.size());
  for (const Column& col : columns_) {
    out.push_back(col.stats);
    out.back().num_distinct = col.distinct.size();
  }
  return out;
}

Status Catalog::RegisterTable(const std::string& name,
                              const Relation* relation) {
  if (tables_.count(name)) {
    return Status::AlreadyExists("table " + name);
  }
  TableStatsBuilder stats(relation->schema().num_columns());
  for (const Row& row : relation->rows()) stats.Add(row);
  rows_scanned_ += relation->num_tuples();
  return RegisterTable(name, relation, stats);
}

Status Catalog::RegisterTable(const std::string& name, const Relation* relation,
                              const TableStatsBuilder& stats) {
  if (tables_.count(name)) {
    return Status::AlreadyExists("table " + name);
  }
  TableEntry entry;
  entry.name = name;
  entry.relation = relation;
  entry.stats.num_tuples = relation->num_tuples();
  entry.stats.num_pages = relation->NumPages(page_size_);
  entry.stats.columns = stats.ColumnStatistics();
  if (static_cast<int>(entry.stats.columns.size()) !=
      relation->schema().num_columns()) {
    return Status::InvalidArgument("statistics arity mismatch for " + name);
  }
  tables_[name] = std::move(entry);
  return Status::OK();
}

StatusOr<const TableEntry*> Catalog::Lookup(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  return &it->second;
}

Status Catalog::RegisterIndex(const std::string& table,
                              const std::string& column, IndexKind kind) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table " + table);
  MMDB_RETURN_IF_ERROR(
      it->second.relation->schema().ColumnIndex(column).status());
  for (const IndexInfo& info : it->second.indexes) {
    if (info.column == column) {
      return Status::AlreadyExists("index on " + table + "." + column);
    }
  }
  it->second.indexes.push_back(IndexInfo{column, kind});
  return Status::OK();
}

const IndexInfo* Catalog::FindIndex(const std::string& table,
                                    const std::string& column) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return nullptr;
  for (const IndexInfo& info : it->second.indexes) {
    if (info.column == column) return &info;
  }
  return nullptr;
}

StatusOr<int> Catalog::ResolveColumn(const std::string& table,
                                     const std::string& column) const {
  MMDB_ASSIGN_OR_RETURN(const TableEntry* entry, Lookup(table));
  return entry->relation->schema().ColumnIndex(column);
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) names.push_back(name);
  return names;
}

}  // namespace mmdb
