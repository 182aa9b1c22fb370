// restart: two sessions run record-plane transfers on disjoint halves of the
// accounts; then, several times, a checkpoint, a fixed tail of transfers, a
// crash and a blocking recovery, each checked against the transfer ledger.
#include <memory>

#include "common.h"
#include "layers.h"
#include "oracle.h"
#include "server/server.h"
#include "txn/banking.h"

namespace perfbench {

namespace {

using mmdb::Database;
using mmdb::Session;

constexpr int64_t kAccounts = 100'000;
constexpr int32_t kRecordSize = 72;
constexpr int kClients = 2;
/// Crash/recover cycles per run; recovery.recover_s is their median.
constexpr int kRecoveryCycles = 5;
/// Transfers each client runs between a cycle's checkpoint and its crash,
/// so every cycle replays the same log tail.
constexpr int64_t kTailTransfersPerClient = 200;
/// Crash/recover cycles over an empty tail (traced run only).
constexpr int kFixedCostCycles = 3;
/// Transfers each client runs at the end of set-up, so the timed phase
/// starts with the sessions, the log and the record locks in use.
constexpr int64_t kWarmupTransfersPerClient = 32;

/// One client: the only writer of accounts [lo, hi), so `ledger` holds the
/// exact balance of each.
struct Client {
  Session* session = nullptr;
  int64_t lo = 0;
  int64_t hi = 0;
  std::vector<int64_t>* ledger = nullptr;
  mmdb::Random rng{0};
  std::vector<double> txn_us;
  std::vector<double> commit_us;
  int64_t transfers = 0;
  int64_t failed = 0;
  RunResult checks;

  bool ReadBalance(int64_t id, int64_t* balance) {
    auto value = session->ReadRecord(id);
    if (!value.ok()) return false;
    *balance = mmdb::DecodeAccount(*value);
    return true;
  }

  void Transfer(bool timed) {
    const int64_t a = rng.UniformInt(lo, hi - 1);
    int64_t b = rng.UniformInt(lo, hi - 1);
    while (b == a) b = rng.UniformInt(lo, hi - 1);
    const int64_t amount = rng.UniformInt(1, 100);
    ++transfers;
    Span span("restart.transfer");
    int64_t bal_a = 0;
    int64_t bal_b = 0;
    bool ok = session->Begin().ok() && ReadBalance(a, &bal_a) &&
              ReadBalance(b, &bal_b);
    if (ok && (bal_a != (*ledger)[size_t(a)] || bal_b != (*ledger)[size_t(b)])) {
      checks.Fail("transfer read a balance off the ledger");
    }
    ok = ok &&
         session->UpdateRecord(a, mmdb::EncodeAccount(bal_a - amount,
                                                      kRecordSize)).ok() &&
         session->UpdateRecord(b, mmdb::EncodeAccount(bal_b + amount,
                                                      kRecordSize)).ok();
    Span commit("txn.commit");
    ok = ok && session->Commit().ok();
    const double commit_time = commit.FinishUs();
    const double txn_time = span.FinishUs();
    if (!ok) {
      (void)session->Rollback();
      ++failed;
      return;
    }
    (*ledger)[size_t(a)] = bal_a - amount;
    (*ledger)[size_t(b)] = bal_b + amount;
    if (timed) {
      txn_us.push_back(txn_time);
      commit_us.push_back(commit_time);
    }
  }
};

/// After a recovery: every account must equal the ledger, and the total the
/// initial total.
void CheckStore(Database* db, const std::vector<int64_t>& ledger,
                int64_t initial_total, bool perturb, RunResult* out) {
  std::vector<int64_t> balances(ledger.size());
  int64_t total = 0;
  for (size_t id = 0; id < ledger.size(); ++id) {
    std::string value;
    mmdb::Status s = db->recoverable_store()->ReadRecord(int64_t(id), &value);
    if (!s.ok()) {
      out->Fail("ReadRecord after recovery: " + s.ToString());
      return;
    }
    balances[id] = mmdb::DecodeAccount(value);
    total += balances[id];
  }
  if (perturb) balances[balances.size() / 2] += 1;
  std::string diff = CheckValues(balances, ledger);
  if (!diff.empty()) out->Fail("accounts vs ledger after recovery: " + diff);
  diff = CheckValues({total}, {initial_total});
  if (!diff.empty()) out->Fail("total balance after recovery: " + diff);
}

/// Crash() then a blocking Recover(); returns seconds, adds records scanned.
double CrashAndRecover(Database* db, int64_t* scanned, RunResult* out) {
  Span span("restart.crash_recover");
  mmdb::Status crashed = db->Crash();
  auto stats = db->Recover();
  const double seconds = span.FinishUs() * 1e-6;
  if (!crashed.ok() || !stats.ok()) {
    out->Fail("crash/recover failed");
    return seconds;
  }
  *scanned += stats->log_records_scanned;
  return seconds;
}

}  // namespace

RunResult RunRestart(const Args& args) {
  RunResult out;
  mmdb::Random data_rng = StreamRng(args.seed, 0);
  std::vector<int64_t> ledger(kAccounts);
  int64_t initial_total = 0;
  for (int64_t& balance : ledger) {
    balance = data_rng.UniformInt(1'000, 9'999);
    initial_total += balance;
  }

  Database db;
  Database::TxnPlaneOptions txn;
  txn.num_records = kAccounts;
  txn.record_size = kRecordSize;
  txn.log_write_latency = kLogWriteLatency;
  mmdb::Status status = db.EnableTransactions(txn);
  for (int64_t id = 0; status.ok() && id < kAccounts; ++id) {
    status = db.recoverable_store()->WriteRecord(
        id, mmdb::EncodeAccount(ledger[size_t(id)], kRecordSize),
        mmdb::kInvalidLsn, nullptr);
  }
  // The initial balances are raw writes: checkpoint them into the snapshot.
  if (status.ok()) status = db.CheckpointNow().status();
  if (!status.ok()) {
    out.Fail("set-up: " + status.ToString());
    return out;
  }
  mmdb::Server::Options server_options;
  server_options.scheduler.num_workers = kSchedulerWorkers;
  mmdb::Server server(&db, server_options);
  std::vector<Client> clients(kClients);
  for (int c = 0; c < kClients; ++c) {
    Client& client = clients[size_t(c)];
    auto session = server.OpenSession();
    if (!session.ok()) {
      out.Fail("OpenSession: " + session.status().ToString());
      return out;
    }
    client.session = *session;
    client.lo = kAccounts / kClients * c;
    client.hi = kAccounts / kClients * (c + 1);
    client.ledger = &ledger;
    client.rng = StreamRng(args.seed, 1 + uint64_t(c));
  }
  OnEachThread(&clients, [](Client* client) {
    for (int64_t i = 0; i < kWarmupTransfersPerClient; ++i) {
      client->Transfer(/*timed=*/false);
    }
  });
  out.end_to_end.push_back({"setup_s", SecondsSinceProcessStart(), "s"});

  int64_t timed_transfers = 0;
  for (const Client& client : clients) timed_transfers -= client.transfers;
  const auto log_before = db.MetricsSnapshot();
  const int64_t start_ns = NowNs();
  const int64_t deadline_ns =
      start_ns + static_cast<int64_t>(args.seconds * 1e9);
  OnEachThread(&clients, [deadline_ns](Client* client) {
    while (NowNs() < deadline_ns) client->Transfer(/*timed=*/true);
  });
  const double elapsed = SecondsSince(start_ns);
  const auto log_after = db.MetricsSnapshot();
  std::vector<double> txn_us, commit_us;
  for (Client& client : clients) {
    timed_transfers += client.transfers;
    txn_us.insert(txn_us.end(), client.txn_us.begin(), client.txn_us.end());
    commit_us.insert(commit_us.end(), client.commit_us.begin(),
                     client.commit_us.end());
  }

  std::vector<double> recover_s;
  int64_t scanned = 0;
  for (int cycle = 0; cycle < kRecoveryCycles && out.correct; ++cycle) {
    if (!db.CheckpointNow().ok()) out.Fail("CheckpointNow failed");
    OnEachThread(&clients, [](Client* client) {
      for (int64_t i = 0; i < kTailTransfersPerClient; ++i) {
        client->Transfer(/*timed=*/false);
      }
    });
    recover_s.push_back(CrashAndRecover(&db, &scanned, &out));
    CheckStore(&db, ledger, initial_total, args.perturb && cycle == 0, &out);
  }
  for (Client& client : clients) {
    out.attempted += client.transfers;
    out.failed += client.failed;
    for (const std::string& e : client.checks.errors) out.Fail(e);
    if (!client.checks.correct) out.correct = false;
  }

  out.end_to_end.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  out.end_to_end.push_back(
      {"throughput_ops_s", double(timed_transfers) / elapsed, "ops/s"});
  out.end_to_end.push_back({"op_p50_us", Median(txn_us), "us"});

  if (args.trace) {
    double recover_total = 0;
    for (double s : recover_s) recover_total += s;
    std::vector<double> fixed_s;
    int64_t ignored = 0;
    for (int i = 0; i < kFixedCostCycles; ++i) {
      if (!db.CheckpointNow().ok()) out.Fail("CheckpointNow failed");
      fixed_s.push_back(CrashAndRecover(&db, &ignored, &out));
    }
    CheckStore(&db, ledger, initial_total, false, &out);
    out.per_layer.push_back({"txn.commit_us", Median(commit_us), "us"});
    AddLogMetrics(log_before, log_after, &out);
    out.per_layer.push_back({"recovery.recover_s", Median(recover_s), "s"});
    out.per_layer.push_back(
        {"recovery.records_per_s", double(scanned) / recover_total,
         "records/s"});
    out.per_layer.push_back({"recovery.fixed_s", Median(fixed_s), "s"});
  }
  server.Shutdown();
  return out;
}

}  // namespace perfbench
