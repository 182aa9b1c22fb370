#include "oracle.h"

#include "common.h"

namespace perfbench {

namespace {

std::string Mismatch(const std::string& what, int64_t got, int64_t want) {
  return what + ": got " + std::to_string(got) + ", want " +
         std::to_string(want);
}

bool IntCell(const mmdb::Row& row, size_t column, int64_t* out) {
  return column < row.size() && AsInt(row[column], out);
}

}  // namespace

std::string CheckKeyedValues(const mmdb::Relation& rows,
                             const std::vector<int64_t>& want) {
  if (rows.num_tuples() != static_cast<int64_t>(want.size())) {
    return Mismatch("row count", rows.num_tuples(),
                    static_cast<int64_t>(want.size()));
  }
  std::vector<bool> seen(want.size(), false);
  for (const mmdb::Row& row : rows.rows()) {
    int64_t key = 0;
    int64_t value = 0;
    if (!IntCell(row, 0, &key) || !IntCell(row, 1, &value)) {
      return "row with non-integer cells";
    }
    if (key < 0 || key >= static_cast<int64_t>(want.size()) ||
        seen[static_cast<size_t>(key)]) {
      return "unexpected or repeated key " + std::to_string(key);
    }
    seen[static_cast<size_t>(key)] = true;
    if (value != want[static_cast<size_t>(key)]) {
      return Mismatch("key " + std::to_string(key), value,
                      want[static_cast<size_t>(key)]);
    }
  }
  return "";
}

std::string CheckValues(const std::vector<int64_t>& got,
                        const std::vector<int64_t>& want) {
  if (got.size() != want.size()) {
    return Mismatch("value count", static_cast<int64_t>(got.size()),
                    static_cast<int64_t>(want.size()));
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      return Mismatch("entry " + std::to_string(i), got[i], want[i]);
    }
  }
  return "";
}

std::string CheckGroups(const mmdb::Relation& rows,
                        const std::map<int64_t, int64_t>& want) {
  if (rows.num_tuples() != static_cast<int64_t>(want.size())) {
    return Mismatch("group count", rows.num_tuples(),
                    static_cast<int64_t>(want.size()));
  }
  std::map<int64_t, int64_t> got;
  for (const mmdb::Row& row : rows.rows()) {
    int64_t group = 0;
    int64_t sum = 0;
    if (!IntCell(row, 0, &group) || !IntCell(row, 1, &sum)) {
      return "group row with non-integer cells";
    }
    if (!got.emplace(group, sum).second) {
      return "repeated group " + std::to_string(group);
    }
  }
  for (const auto& [group, sum] : want) {
    auto it = got.find(group);
    if (it == got.end()) return "missing group " + std::to_string(group);
    if (it->second != sum) {
      return Mismatch("group " + std::to_string(group), it->second, sum);
    }
  }
  return "";
}

std::string CheckSingleRow(const mmdb::Relation& rows,
                           const std::vector<int64_t>& want) {
  if (rows.num_tuples() != 1) return Mismatch("row count", rows.num_tuples(), 1);
  const mmdb::Row& row = rows.rows()[0];
  if (row.size() != want.size()) {
    return Mismatch("column count", static_cast<int64_t>(row.size()),
                    static_cast<int64_t>(want.size()));
  }
  for (size_t c = 0; c < want.size(); ++c) {
    int64_t got = 0;
    if (!IntCell(row, c, &got)) return "non-integer cell";
    if (got != want[c]) {
      return Mismatch("column " + std::to_string(c), got, want[c]);
    }
  }
  return "";
}

void PerturbOneRow(mmdb::Relation* rows, int column) {
  if (rows->num_tuples() == 0) return;
  mmdb::Row& row = rows->mutable_rows()[rows->mutable_rows().size() / 2];
  mmdb::Value& cell = row[static_cast<size_t>(column)];
  if (auto* i = std::get_if<int64_t>(&cell)) {
    *i += 1;
  } else if (auto* d = std::get_if<double>(&cell)) {
    *d += 1;
  }
}

}  // namespace perfbench
