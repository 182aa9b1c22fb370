// Output checks, computed apart from the program: each compares what mmdb
// returned against an answer the benchmark derived from its own inputs.
// Every check returns "" on a match, else a description of the first
// mismatch.
#ifndef MMDB_PERFBENCH_ORACLE_H_
#define MMDB_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "storage/relation.h"

namespace perfbench {

/// `rows` holds (key, value) pairs; they must be exactly want[key] for
/// every key in [0, want.size()), each key once.
std::string CheckKeyedValues(const mmdb::Relation& rows,
                             const std::vector<int64_t>& want);

/// got[i] == want[i] for every i.
std::string CheckValues(const std::vector<int64_t>& got,
                        const std::vector<int64_t>& want);

/// `rows` holds (group, sum) pairs equal to `want` as a set.
std::string CheckGroups(const mmdb::Relation& rows,
                        const std::map<int64_t, int64_t>& want);

/// `rows` is exactly one row whose integer cells equal `want`.
std::string CheckSingleRow(const mmdb::Relation& rows,
                           const std::vector<int64_t>& want);

/// The self-test's fault: adds 1 to the integer cell `column` of one row.
void PerturbOneRow(mmdb::Relation* rows, int column);

}  // namespace perfbench

#endif  // MMDB_PERFBENCH_ORACLE_H_
