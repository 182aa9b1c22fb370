// oltp: two closed-loop sessions of indexed point reads, autocommit point
// updates, two-row transfers and ROLLBACK probes over one accounts table.
#include <algorithm>

#include "common.h"
#include "layers.h"
#include "oracle.h"
#include "server/server.h"

namespace perfbench {

namespace {

using mmdb::Database;
using mmdb::Session;

constexpr int64_t kAccounts = 100'000;
constexpr int kClients = 2;
/// The top keys of each client's slice take only ROLLBACK probes.
constexpr int64_t kProbeKeysPerClient = 500;
constexpr int64_t kProbeStartBalance = 1'000;

/// One round of a client, in a seeded order. Every run attempts whole
/// rounds, so failed probes are exactly 1% of the operations attempted.
constexpr int kReadsPerRound = 80;
constexpr int kUpdatesPerRound = 12;
constexpr int kTransfersPerRound = 7;
constexpr int kProbesPerRound = 1;
constexpr int kOpsPerRound =
    kReadsPerRound + kUpdatesPerRound + kTransfersPerRound + kProbesPerRound;

enum class Op { kRead, kUpdate, kTransfer, kProbe };

std::string SelectSql(int64_t key) {
  return "SELECT balance FROM accounts WHERE id = " + std::to_string(key);
}

std::string UpdateSql(int64_t key, int64_t balance) {
  return "UPDATE accounts SET balance = " + std::to_string(balance) +
         " WHERE id = " + std::to_string(key);
}

/// One client: owns keys [lo, hi); the last kProbeKeysPerClient of them
/// are its probe keys. It is the only writer of its slice, so `ledger`
/// holds the exact balance of every key it owns.
struct Client {
  Session* session = nullptr;
  int64_t lo = 0;
  int64_t hi = 0;
  std::vector<int64_t>* ledger = nullptr;
  mmdb::Random rng{0};

  /// Latency of every operation, whatever its kind.
  std::vector<double> op_us;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t statements = 0;
  int64_t probes = 0;
  RunResult checks;  ///< oracle verdicts of this client's reads

  int64_t OpKey() { return rng.UniformInt(lo, hi - kProbeKeysPerClient - 1); }

  mmdb::StatusOr<Database::SqlResult> Exec(const std::string& sql) {
    ++statements;
    Span span("server.session_execute");
    return session->ExecuteSql(sql);
  }

  /// Checks a point read of `key` against the ledger.
  void CheckRead(const mmdb::StatusOr<Database::SqlResult>& r, int64_t key,
                 RunResult* into) {
    if (!r.ok()) {
      into->Fail("SELECT " + std::to_string(key) + ": " +
                  r.status().ToString());
      return;
    }
    std::string diff =
        CheckSingleRow(r->relation, {(*ledger)[static_cast<size_t>(key)]});
    if (!diff.empty()) {
      into->Fail("read of key " + std::to_string(key) + ": " + diff);
    }
  }

  void Read() {
    const int64_t key = OpKey();
    Span span("oltp.read");
    auto r = Exec(SelectSql(key));
    op_us.push_back(span.FinishUs());
    CheckRead(r, key, &checks);
  }

  void Update() {
    const int64_t key = OpKey();
    const int64_t balance =
        (*ledger)[static_cast<size_t>(key)] + rng.UniformInt(1, 100);
    Span span("oltp.update");
    auto r = Exec(UpdateSql(key, balance));
    op_us.push_back(span.FinishUs());
    if (!r.ok() || r->rows_affected != 1) {
      checks.Fail("UPDATE " + std::to_string(key) + " not applied");
      return;
    }
    (*ledger)[static_cast<size_t>(key)] = balance;
  }

  void Transfer() {
    const int64_t a = OpKey();
    int64_t b = OpKey();
    while (b == a) b = OpKey();
    const int64_t amount = rng.UniformInt(1, 50);
    const int64_t new_a = (*ledger)[static_cast<size_t>(a)] - amount;
    const int64_t new_b = (*ledger)[static_cast<size_t>(b)] + amount;
    Span span("oltp.transfer");
    bool ok = Exec("BEGIN").ok();
    ok = ok && Exec(UpdateSql(a, new_a)).ok();
    ok = ok && Exec(UpdateSql(b, new_b)).ok();
    ok = ok && Exec("COMMIT").ok();
    op_us.push_back(span.FinishUs());
    if (!ok) {
      // SQL writes are not undone on rollback, so the ledger is lost.
      checks.Fail("transfer " + std::to_string(a) + "->" + std::to_string(b) +
                  " failed");
      return;
    }
    (*ledger)[static_cast<size_t>(a)] = new_a;
    (*ledger)[static_cast<size_t>(b)] = new_b;
  }

  /// BEGIN; UPDATE; ROLLBACK on a probe key, then read it back. The probe
  /// fails when the rolled-back update is still visible; the ledger then
  /// takes the leaked value so the table checks stay exact.
  void Probe() {
    const int64_t key = hi - kProbeKeysPerClient + probes % kProbeKeysPerClient;
    ++probes;
    const int64_t before = (*ledger)[static_cast<size_t>(key)];
    Span span("oltp.probe");
    bool ok = Exec("BEGIN").ok();
    ok = ok && Exec(UpdateSql(key, before + 1)).ok();
    ok = ok && Exec("ROLLBACK").ok();
    auto r = Exec(SelectSql(key));
    op_us.push_back(span.FinishUs());
    int64_t after = 0;
    if (!ok || !r.ok() || r->relation.num_tuples() != 1 ||
        !AsInt(r->relation.rows()[0][0], &after) ||
        (after != before && after != before + 1)) {
      checks.Fail("probe of key " + std::to_string(key) + " misbehaved");
      return;
    }
    if (after == before + 1) {
      ++failed;
      (*ledger)[static_cast<size_t>(key)] = after;
    }
  }

  /// One round: kOpsPerRound operations in a seeded order.
  void RunRound() {
    std::vector<Op> round;
    round.insert(round.end(), kReadsPerRound, Op::kRead);
    round.insert(round.end(), kUpdatesPerRound, Op::kUpdate);
    round.insert(round.end(), kTransfersPerRound, Op::kTransfer);
    round.insert(round.end(), kProbesPerRound, Op::kProbe);
    rng.Shuffle(&round);
    for (Op op : round) {
      switch (op) {
        case Op::kRead: Read(); break;
        case Op::kUpdate: Update(); break;
        case Op::kTransfer: Transfer(); break;
        case Op::kProbe: Probe(); break;
      }
    }
    attempted += kOpsPerRound;
  }

  /// The end of set-up: one round, checked but not counted, so the timed
  /// phase starts with the catalog built and the log and locks in use.
  void WarmUp() {
    RunRound();
    op_us.clear();
    attempted = failed = statements = 0;
  }
};

int64_t LockWaits(Database* db, mmdb::Server* server) {
  return Counter(db->MetricsSnapshot(), "locks.waits") +
         server->table_locks()->stats().waits;
}

/// Traced run only: the statement path of point reads and writes, stage by
/// stage, from one thread while nothing else runs.
void ProbeLayers(Database* db, const Database::Options& options,
                 Client* client, RunResult* out) {
  constexpr int kReads = 2000;
  constexpr int kWrites = 300;
  std::vector<double> session_us, direct_us, plan_us, execute_us, lookup_us;
  WriteStageTimes writes;  // its parse_us takes the SELECTs' parses too
  for (int i = 0; i < kReads; ++i) {
    const int64_t key = client->OpKey();
    const std::string sql = SelectSql(key);
    {
      Span span("probe.session_execute");
      auto r = client->session->ExecuteSql(sql);
      session_us.push_back(span.FinishUs());
      client->CheckRead(r, key, out);
    }
    {
      Span span("probe.database_execute");
      mmdb::TxnId txn = mmdb::kInvalidTxn;
      auto r = db->ExecuteSqlPreCommit(sql, &txn);
      db->WaitSqlDurable(txn);
      direct_us.push_back(span.FinishUs());
      client->CheckRead(r, key, out);
    }
    auto stages = RunStages(db, options, sql);
    if (!stages.ok()) {
      out->Fail("stage probe: " + stages.status().ToString());
      return;
    }
    writes.parse_us.push_back(stages->parse_us);
    plan_us.push_back(stages->plan_us);
    execute_us.push_back(stages->execute_us);
    {
      Span span("index.lookup");
      auto row = db->IndexLookup("accounts", "id", mmdb::Value(key));
      lookup_us.push_back(span.FinishUs());
      if (!row.ok()) out->Fail("IndexLookup: " + row.status().ToString());
    }
  }
  for (int i = 0; i < kWrites; ++i) {
    // Rewrites the ledger value: the statement path runs in full, the
    // table stays as the ledger says.
    const int64_t key = client->OpKey();
    auto r = RunWriteStages(
        db, UpdateSql(key, (*client->ledger)[static_cast<size_t>(key)]),
        &writes);
    if (!r.ok() || r->rows_affected != 1) out->Fail("probe UPDATE failed");
  }
  out->per_layer.push_back(
      {"server.overhead_us", Median(session_us) - Median(direct_us), "us"});
  out->per_layer.push_back({"optimizer.plan_us", Median(plan_us), "us"});
  out->per_layer.push_back({"optimizer.execute_us", Median(execute_us), "us"});
  out->per_layer.push_back({"index.lookup_us", Median(lookup_us), "us"});
  AddWriteStageMetrics(writes, out);
}

}  // namespace

RunResult RunOltp(const Args& args) {
  RunResult out;
  mmdb::Random data_rng = StreamRng(args.seed, 0);
  std::vector<int64_t> ledger(kAccounts);
  for (int64_t& balance : ledger) balance = data_rng.UniformInt(1'000, 9'999);
  // Probe keys start at a fixed balance, so the probes (the one operation
  // that fails) run the same statements whatever the seed.
  for (int c = 0; c < kClients; ++c) {
    const int64_t hi = kAccounts / kClients * (c + 1);
    for (int64_t key = hi - kProbeKeysPerClient; key < hi; ++key) {
      ledger[size_t(key)] = kProbeStartBalance;
    }
  }

  Database::Options options;
  Database db(options);
  Database::TxnPlaneOptions txn;
  txn.log_write_latency = kLogWriteLatency;
  mmdb::Status status = db.EnableTransactions(txn);
  mmdb::Schema schema({mmdb::Column::Int64("id"),
                       mmdb::Column::Int64("balance")});
  if (status.ok()) status = db.CreateTable("accounts", schema);
  mmdb::Relation accounts(schema);
  for (int64_t id = 0; id < kAccounts; ++id) {
    accounts.Add({mmdb::Value(id), mmdb::Value(ledger[size_t(id)])});
  }
  if (status.ok()) status = db.BulkLoad("accounts", std::move(accounts));
  if (status.ok()) {
    status = db.CreateIndex("accounts", "id", Database::IndexType::kHash);
  }
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
  OnEachThread(&clients, [](Client* client) { client->WarmUp(); });
  out.end_to_end.push_back({"setup_s", SecondsSinceProcessStart(), "s"});

  const auto log_before = db.MetricsSnapshot();
  const int64_t waits_before = LockWaits(&db, &server);
  const int64_t start_ns = NowNs();
  const int64_t deadline_ns =
      start_ns + static_cast<int64_t>(args.seconds * 1e9);
  OnEachThread(&clients, [deadline_ns](Client* client) {
    while (NowNs() < deadline_ns) client->RunRound();
  });
  const double elapsed = SecondsSince(start_ns);
  const auto log_after = db.MetricsSnapshot();
  const int64_t waits = LockWaits(&db, &server) - waits_before;

  std::vector<double> op_us;
  int64_t statements = 0;
  for (Client& client : clients) {
    out.attempted += client.attempted;
    out.failed += client.failed;
    statements += client.statements;
    op_us.insert(op_us.end(), client.op_us.begin(), client.op_us.end());
    for (const std::string& e : client.checks.errors) out.Fail(e);
    if (!client.checks.correct) out.correct = false;
  }

  // The whole table must equal the union of the client ledgers.
  Session* checker = clients[0].session;
  auto all = checker->ExecuteSql("SELECT id, balance FROM accounts");
  auto sum = checker->ExecuteSql("SELECT SUM(balance) FROM accounts");
  if (!all.ok() || !sum.ok()) {
    out.Fail("final read failed");
  } else {
    if (args.perturb) PerturbOneRow(&all->relation, 1);
    std::string diff = CheckKeyedValues(all->relation, ledger);
    if (!diff.empty()) out.Fail("table vs ledger: " + diff);
    int64_t total = 0;
    for (int64_t balance : ledger) total += balance;
    diff = CheckSingleRow(sum->relation, {total});
    if (!diff.empty()) out.Fail("SUM(balance) vs ledger: " + diff);
  }

  out.end_to_end.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  out.end_to_end.push_back(
      {"throughput_ops_s", static_cast<double>(out.attempted) / elapsed,
       "ops/s"});
  out.end_to_end.push_back({"op_p50_us", Median(op_us), "us"});

  if (args.trace) {
    out.per_layer.push_back(
        {"locks.waits_per_kstmt",
         1000.0 * static_cast<double>(waits) /
             static_cast<double>(std::max<int64_t>(1, statements)),
         "1/kstmt"});
    AddLogMetrics(log_before, log_after, &out);
    ProbeLayers(&db, options, &clients[0], &out);
  }
  server.Shutdown();
  return out;
}

}  // namespace perfbench
