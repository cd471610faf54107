// The end-to-end benchmark program (see README.md for the workloads, the
// metrics and the layer -> end-to-end map).
//
//   perfbench --workload oltp|olap|htap --seed N --seconds S --trace 0|1
//             [--out DIR] [--git-sha SHA] [--source-id ID]
//
// Every workload runs an in-process server::Server driven over loopback
// by server::Client threads. --trace 0 prints the end-to-end metrics;
// --trace 1 runs the workload once untraced and once traced on the same
// seed, replays the traced run's sampled statements through the layers'
// public functions and prints the per-layer metrics. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. A results file with provenance goes to --out.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mal/interpreter.h"
#include "mal/optimizer.h"
#include "measure.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "sql/parser.h"
#include "wal/db.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using mammoth::Result;
using mammoth::Status;
using mammoth::StatusCode;
using mammoth::Value;
using mammoth::server::Client;
using mammoth::server::Server;
using mammoth::server::ServerConfig;

// --- fixed settings (recorded in every result's provenance) --------------

/// Untimed warm-up before the measured window, so caches fill and lazy
/// set-up finishes first.
constexpr double kWarmupSeconds = 1.0;
/// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetupRounds = 5;
/// oltp and olap: closed-loop client connections (nproc on a 4-core host).
constexpr int kClients = 4;
/// oltp: auto-checkpoint once this much log accumulates (several
/// checkpoints per run at the mix's log rate).
constexpr size_t kCheckpointLogBytes = size_t{256} << 10;
/// oltp: retries of a new-order transaction that keeps hitting kConflict.
constexpr int kMaxTxnAttempts = 1000;
/// htap: open-loop rates (per connection, per second) and batch size.
/// The readers offer about a seventh of olap's 2-client capacity (~286
/// qps on a 4-core 2.1 GHz Xeon). Writers wait for every in-flight read,
/// so faster readers made the writers' tail follow how often the two
/// readers overlap; at half that capacity the backlog grew without bound.
constexpr int kHtapReaders = 2;
constexpr int kHtapWriters = 2;
constexpr double kHtapReadRate = 20;
constexpr double kHtapWriteRate = 35;
constexpr int kHtapBatchRows = 20;
/// Traced runs sample every kSampleEvery-th request of each client for
/// the replay, at most kMaxSamples per client.
constexpr int kSampleEvery = 16;
constexpr size_t kMaxSamples = 64;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
  std::string git_sha = "unknown";
  std::string source_id = "unknown";
};

/// A statement of the traced run, kept for the replay.
struct Sample {
  std::string sql;        ///< literal SQL (prepared reads: params inlined)
  bool prepared = false;  ///< ran as EXECUTE of a prepared plan
  double rtt_ms = 0;      ///< client round trip in the traced run
  uint64_t request = 0;
};

/// What one client thread saw.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< errors (a request that failed or was refused)
  uint64_t wrong = 0;   ///< answers the oracle rejected
  uint64_t reads = 0;   ///< completed reads in the measured window
  uint64_t writes = 0;  ///< committed writes in the measured window
  uint64_t user_bytes = 0;  ///< user bytes committed in the window
  std::vector<double> read_ms, write_ms, commit_ms, lag_ms;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
  void Wrong(const std::string& what) {
    ++wrong;
    if (errors.size() < 5) errors.push_back("wrong answer: " + what);
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    reads += o.reads;
    writes += o.writes;
    user_bytes += o.user_bytes;
    auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&read_ms, o.read_ms);
    cat(&write_ms, o.write_ms);
    cat(&commit_ms, o.commit_ms);
    cat(&lag_ms, o.lag_ms);
    for (const auto& e : o.errors) {
      if (errors.size() < 5) errors.push_back(e);
    }
  }
};

/// One measuring window of the client threads.
struct Phase {
  Clock::time_point start, end;
  bool measured = false;
  bool trace = false;
};

/// A client thread's connection plus what it recorded.
struct Worker {
  explicit Worker(uint32_t index) : spans(index + 1) {}
  Client client;
  Tally tally;
  SpanLog spans;
  std::vector<Sample> samples;
  uint64_t requests = 0;

  /// Request id for the next request; true when it is to be sampled.
  bool NextRequest(const Phase& phase, uint64_t* id) {
    *id = ++requests;
    return phase.trace && phase.measured && requests % kSampleEvery == 0 &&
           samples.size() < kMaxSamples;
  }
};

/// Runs `fn` across the client boundary, as a "server.call" span under
/// `root` when tracing.
template <typename F>
auto Call(Worker* w, const Phase& phase, uint64_t root, uint64_t req, F&& fn) {
  if (!phase.trace) return fn();
  const uint64_t id = w->spans.Begin("server.call", root, req);
  auto r = fn();
  w->spans.End(id);
  return r;
}

Status WaitFor(const std::function<bool()>& pred, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (Clock::now() > deadline) return Status::TimedOut("condition not met");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return Status::OK();
}

Result<Counters> ReadStatus(Client* c) {
  auto r = c->Query("SERVER STATUS");
  if (!r.ok()) return r.status();
  return ParseStatus(*r);
}

void SleepUntil(Clock::time_point t) {
  if (Clock::now() < t) std::this_thread::sleep_until(t);
}

// --- workloads ----------------------------------------------------------

/// A workload: servers, data, client connections and the client loop.
class Bench {
 public:
  virtual ~Bench() = default;
  /// Starts the servers, loads the data and connects the clients.
  virtual Status Setup() = 0;
  /// One client thread's loop over the phase's window.
  virtual void Loop(size_t t, Worker* w, const Phase& phase) = 0;
  /// Checks that need the writers stopped (through `admin`).
  virtual void FinalCheck(Client* admin, Tally* tally) = 0;
  /// Stops the servers and removes what they wrote.
  virtual void Teardown() = 0;
  /// Called right before the measured window starts.
  virtual void BeginWindow() {}
  /// Samples gauges while the measured window runs (main thread).
  virtual void SampleGauges() {}
  /// Extra per-layer values: in-process counters of servers other than
  /// the primary, and on-disk sizes; filled by Measure().
  virtual void Measure(std::map<std::string, double>* /*m*/) {}
  virtual void Describe(std::ostream& os) const = 0;

  Server* primary() { return primary_.get(); }
  std::vector<std::unique_ptr<Worker>>& workers() { return workers_; }
  /// Olap's bulk-load INSERT round trips (its write metrics).
  const std::vector<double>& load_ms() const { return load_ms_; }
  double load_seconds() const { return load_seconds_; }
  /// Time the last Setup() spent rendering load SQL: harness work that
  /// setup_s leaves out.
  double render_seconds() const { return render_s_; }

 protected:
  /// Sends statements 0..count-1 of a load, each rendered just before it
  /// is sent, so the load text is never held whole. With `record`, the
  /// round trips go to load_ms_ and load_seconds_.
  Status SendLoad(Client* admin, size_t count,
                  const std::function<std::string(size_t)>& sql_of,
                  bool record) {
    for (size_t k = 0; k < count; ++k) {
      const auto r0 = Clock::now();
      const std::string sql = sql_of(k);
      const auto t0 = Clock::now();
      render_s_ += MillisBetween(r0, t0) / 1000;
      MAMMOTH_RETURN_IF_ERROR(admin->Query(sql).status());
      if (record) {
        const double ms = MillisBetween(t0, Clock::now());
        load_ms_.push_back(ms);
        load_seconds_ += ms / 1000;
      }
    }
    return Status::OK();
  }
  Status ConnectWorkers(size_t n) {
    workers_.clear();
    for (size_t i = 0; i < n; ++i) {
      auto c = Client::Connect("127.0.0.1", primary_->port());
      if (!c.ok()) return c.status();
      workers_.push_back(std::make_unique<Worker>(static_cast<uint32_t>(i)));
      workers_.back()->client = std::move(*c);
    }
    return Status::OK();
  }
  void StopPrimary() {
    for (auto& w : workers_) w->client.Close();
    if (primary_ != nullptr) primary_->Stop();
    primary_.reset();
  }

  std::unique_ptr<Server> primary_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<double> load_ms_;
  double load_seconds_ = 0;
  double render_s_ = 0;
};

ServerConfig BaseConfig() {
  ServerConfig config;
  config.port = 0;
  config.max_sessions = 64;
  config.admission.queue_timeout_ms = 60000;
  return config;
}

/// Durable primary with one semi-sync replica; prepared point reads and
/// new-order transactions from closed-loop clients.
class OltpBench : public Bench {
 public:
  OltpBench(const Args& args, std::string dir)
      : args_(args),
        dir_(std::move(dir)),
        data_(MakeOltpData(args.seed, sizes_)) {
    for (int i = 0; i < sizes_.customers; ++i) {
      loaded_bytes_ += CustomerRowBytes(data_, i);
    }
  }
  ~OltpBench() override { Teardown(); }

  Status Setup() override {
    Teardown();
    render_s_ = 0;
    ++round_;
    db_dir_ = dir_ + "/db-oltp-" + std::to_string(getpid()) + "-" +
              std::to_string(round_);
    fs::remove_all(db_dir_);
    ServerConfig config = BaseConfig();
    config.db_dir = db_dir_;
    config.db.wal.checkpoint_log_bytes = kCheckpointLogBytes;
    config.repl_semi_sync = true;
    primary_ = std::make_unique<Server>(config);
    MAMMOTH_RETURN_IF_ERROR(primary_->Start());
    {
      auto admin = Client::Connect("127.0.0.1", primary_->port());
      if (!admin.ok()) return admin.status();
      for (const auto& sql : OltpSchemaSql()) {
        MAMMOTH_RETURN_IF_ERROR(admin->Query(sql).status());
      }
      MAMMOTH_RETURN_IF_ERROR(SendLoad(
          &*admin, OltpLoadCount(sizes_),
          [&](size_t k) { return OltpLoadSql(data_, sizes_, k); }, false));
    }
    ServerConfig rconfig = BaseConfig();
    rconfig.replicate_from = "127.0.0.1:" + std::to_string(primary_->port());
    replica_ = std::make_unique<Server>(rconfig);
    MAMMOTH_RETURN_IF_ERROR(replica_->Start());
    MAMMOTH_RETURN_IF_ERROR(WaitCaughtUp());
    MAMMOTH_RETURN_IF_ERROR(ConnectWorkers(kClients));
    streams_.clear();
    committed_.assign(workers_.size(), {});
    for (size_t i = 0; i < workers_.size(); ++i) {
      auto h = workers_[i]->client.Prepare(kPointReadSql);
      if (!h.ok()) return h.status();
      handles_.push_back(*h);
      streams_.emplace_back(args_.seed, static_cast<int>(i),
                            static_cast<int>(workers_.size()), sizes_);
    }
    return Status::OK();
  }

  void Loop(size_t t, Worker* w, const Phase& phase) override {
    OltpStream& stream = streams_[t];
    while (Clock::now() < phase.end) {
      const OltpOp op = stream.Next();
      uint64_t req = 0;
      const bool sample = w->NextRequest(phase, &req);
      ++w->tally.attempted;
      const uint64_t root =
          phase.trace ? w->spans.Begin(op.is_read ? "oltp.read" : "oltp.new_order", 0, req) : 0;
      if (op.is_read) {
        const auto t0 = Clock::now();
        auto r = Call(w, phase, root, req, [&] {
          return w->client.ExecutePrepared(handles_[t], {Value::Int(op.c_id)});
        });
        const double ms = MillisBetween(t0, Clock::now());
        if (!r.ok()) {
          w->tally.Fail("point read: " + r.status().ToString());
        } else {
          const uint64_t check = phase.trace ? w->spans.Begin("bench.check", root, req) : 0;
          const Expected e = PointReadExpected(data_, op.c_id);
          const std::string diff = CheckResult(*r, PointReadChecks(), e, e);
          if (phase.trace) w->spans.End(check);
          if (!diff.empty()) {
            w->tally.Wrong(op.Text() + ": " + diff);
          } else if (phase.measured) {
            ++w->tally.reads;
            w->tally.read_ms.push_back(ms);
          }
          if (sample) {
            std::string sql = kPointReadSql;
            sql.replace(sql.find('?'), 1, SqlInt(op.c_id));
            w->samples.push_back({sql, true, ms, req});
          }
        }
      } else {
        NewOrder(t, w, phase, op, root, req, sample);
      }
      if (phase.trace) w->spans.End(root);
    }
  }

  void FinalCheck(Client* admin, Tally* tally) override {
    int64_t n = 0, sum = 0;
    for (const auto& per : committed_) {
      for (int64_t total : per) {
        ++n;
        sum += total;
      }
    }
    auto check = [&](const std::string& sql, const Expected& e) {
      ++tally->attempted;
      auto r = admin->Query(sql);
      if (!r.ok()) return tally->Fail(sql + ": " + r.status().ToString());
      std::vector<Check> checks(e.rows[0].size(), Check::kKey);
      const std::string diff = CheckResult(*r, checks, e, e);
      if (!diff.empty()) tally->Wrong(sql + ": " + diff);
    };
    check("SELECT COUNT(*), SUM(o_total) FROM orders", {{{n, sum}}});
    check("SELECT COUNT(*) FROM lines",
          {{{n * static_cast<int64_t>(sizes_.lines_per_order)}}});
    ++tally->attempted;
    Status s = WaitCaughtUp();
    if (s.ok()) {
      s = mammoth::wal::CompareCatalogs(*primary_->engine()->catalog(),
                                        *replica_->engine()->catalog());
      if (!s.ok()) tally->Wrong("replica catalog: " + s.ToString());
    } else {
      tally->Fail("replica catch-up: " + s.ToString());
    }
    user_bytes_total_ = loaded_bytes_ +
                        static_cast<uint64_t>(n) *
                            (kOrderRowBytes + kLineRowBytes * sizes_.lines_per_order);
  }

  void BeginWindow() override {
    lag_max_ = 0;
    applied_at_start_ = replica_->stats().repl_txns_applied;
  }

  void SampleGauges() override {
    if (primary_ == nullptr) return;
    lag_max_ = std::max(lag_max_, primary_->stats().repl_lag_bytes);
  }

  void Measure(std::map<std::string, double>* m) override {
    (*m)["repl.lag_bytes_max"] = static_cast<double>(lag_max_);
    (*m)["replica_txns_applied"] = static_cast<double>(
        replica_->stats().repl_txns_applied - applied_at_start_);
    (*m)["db_dir_bytes"] = static_cast<double>(DirBytes(db_dir_));
    (*m)["user_bytes_total"] = static_cast<double>(user_bytes_total_);
  }

  void Teardown() override {
    handles_.clear();
    StopPrimaryAndReplica();
    if (!db_dir_.empty()) fs::remove_all(db_dir_);
  }

  void Describe(std::ostream& os) const override {
    os << "customers=" << sizes_.customers
       << " lines_per_order=" << sizes_.lines_per_order
       << " load_batch_rows=" << sizes_.load_batch_rows
       << " clients=" << kClients << " (closed loop)"
       << " mix=90% prepared point reads/10% new-order txns"
       << " flush=group commit on, fsync per commit batch, semi-sync on"
       << " replicas=1 checkpoint_log_bytes=" << kCheckpointLogBytes;
  }

 private:
  void StopPrimaryAndReplica() {
    for (auto& w : workers_) w->client.Close();
    if (replica_ != nullptr) replica_->Stop();
    replica_.reset();
    StopPrimary();
  }

  Status WaitCaughtUp() {
    return WaitFor(
        [&] {
          const auto p = primary_->stats();
          return replica_->stats().repl_replayed_lsn == p.wal.durable_lsn &&
                 p.repl_lag_bytes == 0;
        },
        60000);
  }

  /// BEGIN; INSERT orders; INSERT lines; COMMIT — retried on kConflict.
  void NewOrder(size_t t, Worker* w, const Phase& phase, const OltpOp& op,
                uint64_t root, uint64_t req, bool sample) {
    const auto t0 = Clock::now();
    std::vector<Sample> stmts;
    double commit_ms = 0;
    Status failure;
    bool committed = false;
    for (int attempt = 0; attempt < kMaxTxnAttempts && !committed; ++attempt) {
      stmts.clear();
      auto run = [&](const std::string& sql) {
        const auto s0 = Clock::now();
        Status s = Call(w, phase, root, req,
                        [&] { return w->client.Query(sql).status(); });
        const double ms = MillisBetween(s0, Clock::now());
        if (sql == "COMMIT") commit_ms = ms;
        stmts.push_back({sql, false, ms, req});
        return s;
      };
      Status s = run("BEGIN");
      for (size_t k = 0; s.ok() && k < op.writes.size(); ++k) s = run(op.writes[k]);
      const bool reached_commit = s.ok();
      if (s.ok()) s = run("COMMIT");
      if (s.ok()) {
        committed = true;
        break;
      }
      // A failed COMMIT has already rolled back; a failed statement
      // before it leaves the transaction poisoned until ROLLBACK.
      if (!reached_commit) (void)w->client.Rollback();
      failure = s;
      if (s.code() != StatusCode::kConflict) break;
      std::this_thread::sleep_for(std::chrono::microseconds(50 * (1 + attempt % 8)));
    }
    if (!committed) {
      return w->tally.Fail("new order: " + failure.ToString());
    }
    committed_[t].push_back(op.total);
    if (phase.measured) {
      ++w->tally.writes;
      w->tally.write_ms.push_back(MillisBetween(t0, Clock::now()));
      w->tally.commit_ms.push_back(commit_ms);
      w->tally.user_bytes +=
          kOrderRowBytes + kLineRowBytes * sizes_.lines_per_order;
    }
    if (sample) {
      for (auto& s : stmts) w->samples.push_back(std::move(s));
    }
  }

  const Args args_;
  const std::string dir_;
  const OltpSizes sizes_;
  const OltpData data_;
  std::string db_dir_;
  int round_ = 0;
  std::unique_ptr<Server> replica_;
  std::vector<mammoth::server::PreparedHandle> handles_;
  std::vector<OltpStream> streams_;
  std::vector<std::vector<int64_t>> committed_;  ///< per client: o_total
  uint64_t loaded_bytes_ = 0;
  uint64_t user_bytes_total_ = 0;
  uint64_t lag_max_ = 0;
  uint64_t applied_at_start_ = 0;
};

/// The star schema in memory. olap: closed-loop readers; htap: open-loop
/// readers plus open-loop writers appending to the fact table.
class OlapBench : public Bench {
 public:
  OlapBench(const Args& args, bool htap)
      : args_(args),
        htap_(htap),
        data_(MakeOlapData(args.seed, sizes_)),
        queries_(MakeOlapQueries(args.seed, sizes_)) {
    const std::vector<const Facts*> base = {&data_.facts};
    for (const OlapQuery& q : queries_) base_.push_back(Evaluate(q, data_, base));
    if (!htap_) return;
    // Enough batches for the warm-up plus the window at the fixed rate.
    const int per_writer = static_cast<int>(
        kHtapWriteRate * (kWarmupSeconds + args.seconds) + 2);
    batches_ = MakeAppendBatches(args.seed, data_, per_writer * kHtapWriters,
                                 kHtapBatchRows);
    std::vector<const Facts*> all = base;
    for (const Facts& b : batches_) all.push_back(&b);
    for (const OlapQuery& q : queries_) upper_.push_back(Evaluate(q, data_, all));
  }
  ~OlapBench() override { Teardown(); }

  Status Setup() override {
    Teardown();
    render_s_ = 0;
    primary_ = std::make_unique<Server>(BaseConfig());
    MAMMOTH_RETURN_IF_ERROR(primary_->Start());
    {
      auto admin = Client::Connect("127.0.0.1", primary_->port());
      if (!admin.ok()) return admin.status();
      for (const auto& sql : OlapSchemaSql()) {
        MAMMOTH_RETURN_IF_ERROR(admin->Query(sql).status());
      }
      MAMMOTH_RETURN_IF_ERROR(SendLoad(
          &*admin, OlapLoadCount(data_),
          [&](size_t k) { return OlapLoadSql(data_, k); }, true));
      MAMMOTH_RETURN_IF_ERROR(admin->Query(kCompressSql).status());
    }
    const size_t n = htap_ ? kHtapReaders + kHtapWriters : kClients;
    MAMMOTH_RETURN_IF_ERROR(ConnectWorkers(n));
    next_batch_.assign(kHtapWriters, 0);
    for (int i = 0; i < kHtapWriters; ++i) next_batch_[i] = static_cast<size_t>(i);
    acked_.clear();
    sent_rows_ = 0;
    acked_rows_ = 0;
    last_count_.assign(n, 0);
    rngs_.clear();
    for (size_t i = 0; i < n; ++i) {
      rngs_.emplace_back(args_.seed * 1000003 + i);
    }
    return Status::OK();
  }

  void Loop(size_t t, Worker* w, const Phase& phase) override {
    if (!htap_) {
      while (Clock::now() < phase.end) Read(t, w, phase, Clock::now());
      return;
    }
    const bool writer = t >= static_cast<size_t>(kHtapReaders);
    const double rate = writer ? kHtapWriteRate : kHtapReadRate;
    for (uint64_t k = 0;; ++k) {
      const auto due =
          phase.start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(k / rate));
      if (due >= phase.end) break;
      SleepUntil(due);
      if (phase.measured) {
        w->tally.lag_ms.push_back(MillisBetween(due, Clock::now()));
      }
      if (writer) {
        Write(t - kHtapReaders, w, phase, due);
      } else {
        Read(t, w, phase, due);
      }
    }
  }

  void FinalCheck(Client* admin, Tally* tally) override {
    // Exact totals once the writers have stopped: every kind's first
    // instance over the loaded facts plus every acknowledged batch.
    std::vector<const Facts*> parts = {&data_.facts};
    for (size_t b : acked_) parts.push_back(&batches_[b]);
    for (int k = 0; k < kQueryKinds; ++k) {
      const OlapQuery& q = queries_[static_cast<size_t>(k) * sizes_.instances];
      const Expected e = Evaluate(q, data_, parts);
      ++tally->attempted;
      auto r = admin->Query(q.sql);
      if (!r.ok()) {
        tally->Fail(q.sql + ": " + r.status().ToString());
        continue;
      }
      const std::string diff = CheckResult(*r, ChecksOf(q.kind), e, e);
      if (!diff.empty()) tally->Wrong(q.sql + ": " + diff);
    }
  }

  void Teardown() override { StopPrimary(); }

  void Describe(std::ostream& os) const override {
    os << "facts=" << sizes_.facts << " (COMPRESSED, ALTER ... COMPRESS after load)"
       << " dates=" << sizes_.days << " customers=" << sizes_.customers
       << " load_batch_rows=" << sizes_.load_batch_rows
       << " query_instances=" << sizes_.instances << "x" << kQueryKinds;
    if (htap_) {
      os << " readers=" << kHtapReaders << "@" << kHtapReadRate
         << "/s writers=" << kHtapWriters << "@" << kHtapWriteRate
         << "/s batch_rows=" << kHtapBatchRows << " (open loop)";
    } else {
      os << " clients=" << kClients << " (closed loop)";
    }
    os << " in memory";
  }

 private:
  void Read(size_t t, Worker* w, const Phase& phase, Clock::time_point due) {
    const size_t i = rngs_[t].Uniform(queries_.size());
    const OlapQuery& q = queries_[i];
    uint64_t req = 0;
    const bool sample = w->NextRequest(phase, &req);
    ++w->tally.attempted;
    const uint64_t root = phase.trace ? w->spans.Begin(KindName(q.kind), 0, req) : 0;
    const uint64_t acked_before = acked_rows_.load();
    const auto t0 = Clock::now();
    auto r = Call(w, phase, root, req, [&] { return w->client.Query(q.sql); });
    const auto t1 = Clock::now();
    const uint64_t sent_after = sent_rows_.load();
    if (!r.ok()) {
      w->tally.Fail(q.sql + ": " + r.status().ToString());
    } else {
      const uint64_t check = phase.trace ? w->spans.Begin("bench.check", root, req) : 0;
      std::string diff;
      if (htap_ && q.kind == QueryKind::kCount) {
        // Appends are atomic: the count lies between the rows acked
        // before the query was sent and the rows sent before it returned,
        // and never goes down on one connection. SUM and MAX lie between
        // their values over the loaded rows and over every batch.
        const Row& b = base_[i].rows[0];
        const Row& u = upper_[i].rows[0];
        const Expected lo = {
            {{static_cast<int64_t>(sizes_.facts + acked_before), b[1], b[2]}}};
        const Expected hi = {
            {{static_cast<int64_t>(sizes_.facts + sent_after), u[1], u[2]}}};
        diff = CheckResult(*r, ChecksOf(q.kind), lo, hi);
        const int64_t got = std::get<int64_t>(CellAt(*r, 0, 0));
        if (diff.empty() && got < last_count_[t]) {
          diff = "COUNT(*) went down from " + std::to_string(last_count_[t]);
        }
        last_count_[t] = got;
      } else {
        diff = CheckResult(*r, ChecksOf(q.kind), base_[i],
                           htap_ ? upper_[i] : base_[i]);
      }
      if (phase.trace) w->spans.End(check);
      if (!diff.empty()) {
        w->tally.Wrong(q.sql + ": " + diff);
      } else if (phase.measured) {
        ++w->tally.reads;
        w->tally.read_ms.push_back(MillisBetween(due, t1));
      }
      if (sample) w->samples.push_back({q.sql, false, MillisBetween(t0, t1), req});
    }
    if (phase.trace) w->spans.End(root);
  }

  void Write(size_t writer, Worker* w, const Phase& phase, Clock::time_point due) {
    const size_t b = next_batch_[writer];
    if (b >= batches_.size()) return;
    next_batch_[writer] += kHtapWriters;
    const Facts& batch = batches_[b];
    const std::string sql = FactsInsertSql(batch);
    uint64_t req = 0;
    const bool sample = w->NextRequest(phase, &req);
    ++w->tally.attempted;
    const uint64_t root = phase.trace ? w->spans.Begin("htap.append", 0, req) : 0;
    sent_rows_ += batch.size();
    const auto t0 = Clock::now();
    Status s = Call(w, phase, root, req, [&] { return w->client.Query(sql).status(); });
    const auto t1 = Clock::now();
    if (phase.trace) w->spans.End(root);
    if (!s.ok()) return w->tally.Fail("append: " + s.ToString());
    acked_rows_ += batch.size();
    {
      std::lock_guard<std::mutex> lock(acked_mu_);
      acked_.push_back(b);
    }
    if (phase.measured) {
      ++w->tally.writes;
      w->tally.write_ms.push_back(MillisBetween(due, t1));
      for (size_t i = 0; i < batch.size(); ++i) {
        w->tally.user_bytes += FactRowBytes(batch, i);
      }
    }
    if (sample) w->samples.push_back({sql, false, MillisBetween(t0, t1), req});
  }

  const Args args_;
  const bool htap_;
  const OlapSizes sizes_;
  const OlapData data_;
  const std::vector<OlapQuery> queries_;
  std::vector<Expected> base_;   ///< per query: over the loaded facts
  std::vector<Expected> upper_;  ///< htap: over loaded + every batch
  std::vector<Facts> batches_;
  std::vector<size_t> next_batch_;  ///< per writer
  std::mutex acked_mu_;
  std::vector<size_t> acked_;  ///< batches acknowledged
  std::atomic<uint64_t> sent_rows_{0};
  std::atomic<uint64_t> acked_rows_{0};
  std::vector<int64_t> last_count_;  ///< per reader: last COUNT(*) seen
  std::vector<mammoth::Rng> rngs_;   ///< per client: query choice
};

// --- running ------------------------------------------------------------

/// Runs every client thread over one window. Returns the merged tally.
Tally RunPhase(Bench* bench, double seconds, bool measured, bool trace) {
  Phase phase;
  phase.start = Clock::now();
  phase.end = phase.start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  phase.measured = measured;
  phase.trace = trace;
  auto& workers = bench->workers();
  for (auto& w : workers) w->tally = Tally{};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < workers.size(); ++t) {
    threads.emplace_back([&, t] { bench->Loop(t, workers[t].get(), phase); });
  }
  if (measured) {
    while (Clock::now() < phase.end) {
      bench->SampleGauges();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  for (auto& th : threads) th.join();
  Tally all;
  for (auto& w : workers) all.Merge(w->tally);
  return all;
}

/// The measured part of one round, after Setup().
struct RoundResult {
  Tally tally;
  double seconds = 0;  ///< measured window actually spanned
  Counters before, after;
  std::map<std::string, double> extra;
  bool ok = true;
  std::string error;
};

RoundResult RunRound(Bench* bench, const Args& args, bool trace) {
  RoundResult rr;
  Tally warm = RunPhase(bench, kWarmupSeconds, false, false);
  Client* admin = &bench->workers()[0]->client;
  auto before = ReadStatus(admin);
  bench->BeginWindow();
  const auto t0 = Clock::now();
  rr.tally = RunPhase(bench, args.seconds, true, trace);
  rr.seconds = MillisBetween(t0, Clock::now()) / 1000;
  auto after = ReadStatus(admin);
  if (!before.ok() || !after.ok()) {
    rr.ok = false;
    rr.error = "SERVER STATUS failed";
    return rr;
  }
  rr.before = *before;
  rr.after = *after;
  bench->FinalCheck(admin, &rr.tally);
  rr.tally.Merge(warm);  // its checks count; it records no samples
  bench->Measure(&rr.extra);
  return rr;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double MeanRtt(const Tally& t) {
  std::vector<double> all = t.read_ms;
  all.insert(all.end(), t.write_ms.begin(), t.write_ms.end());
  if (all.empty()) return 0;
  return std::accumulate(all.begin(), all.end(), 0.0) /
         static_cast<double>(all.size());
}

/// One reported metric with what it was computed from.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string basis;  ///< base of a ratio, or sample count
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

std::string TailBasis(const Tail& t) {
  std::ostringstream os;
  os << "n=" << t.n << ", p" << t.high_pct << " with " << t.beyond
     << " beyond";
  return os.str();
}

/// Replays the traced run's samples serially through the layers' public
/// functions (no sessions open) and derives the per-layer timings.
struct ReplayResult {
  std::vector<double> parse_us, compile_us, optimize_us, run_ms, instructions,
      encode_us, decode_us, residual_ms;
  std::vector<Span> spans;
  size_t statements = 0;
};

ReplayResult Replay(Server* server, uint32_t caps,
                    const std::vector<Sample>& samples) {
  namespace sql = mammoth::sql;
  namespace mal = mammoth::mal;
  ReplayResult rr;
  SpanLog log(1000);
  mammoth::sql::Engine* engine = server->engine();
  auto us = [](int64_t ns) { return static_cast<double>(ns) / 1e3; };
  for (const Sample& s : samples) {
    ++rr.statements;
    auto parsed = sql::Parse(s.sql);
    const bool is_select =
        parsed.ok() && std::holds_alternative<sql::SelectStmt>(*parsed);
    // A SELECT's full result (post-processing included), to encode below.
    Result<mal::QueryResult> full = mal::QueryResult();
    if (is_select) full = engine->Execute(s.sql);
    const uint64_t root = log.Begin("replay", 0, s.request);
    int64_t layer_ns = 0;
    auto timed = [&](const char* name, bool on_path, auto&& fn) {
      const uint64_t id = log.Begin(name, root, s.request);
      fn();
      log.End(id);
      const Span& sp = log.spans().back();
      const int64_t ns = sp.end_ns - sp.start_ns;
      if (on_path) layer_ns += ns;
      return ns;
    };
    if (is_select) {
      const auto& stmt = std::get<sql::SelectStmt>(*parsed);
      // A prepared EXECUTE with a cached plan skips parse, compile and
      // optimize on the server; raw SQL runs all three.
      const bool raw = !s.prepared;
      rr.parse_us.push_back(
          us(timed("sql.parse", raw, [&] { (void)sql::Parse(s.sql); })));
      Result<mal::Program> prog = Status::Internal("not compiled");
      rr.compile_us.push_back(
          us(timed("sql.compile", raw, [&] { prog = engine->Compile(stmt); })));
      if (prog.ok()) {
        rr.optimize_us.push_back(us(timed(
            "mal.optimize", raw, [&] { mal::OptimizePipeline(&*prog); })));
        mal::RunStats stats;
        rr.run_ms.push_back(us(timed("mal.run", true, [&] {
                              mal::Interpreter interp(engine->catalog());
                              (void)interp.Run(*prog, &stats);
                            })) /
                            1e3);
        rr.instructions.push_back(static_cast<double>(stats.instructions));
      }
    } else {
      // DML and transaction control run as a whole.
      timed("sql.execute", true, [&] { full = engine->Execute(s.sql); });
    }
    if (full.ok()) {
      Result<std::string> payload = std::string();
      rr.encode_us.push_back(us(timed("server.encode", true, [&] {
        payload = mammoth::server::EncodeResult(*full, caps);
      })));
      if (payload.ok()) {
        rr.decode_us.push_back(us(timed("server.decode", true, [&] {
          (void)mammoth::server::DecodeResult(*payload);
        })));
      }
    }
    log.End(root);
    rr.residual_ms.push_back(s.rtt_ms - static_cast<double>(layer_ns) / 1e6);
  }
  rr.spans = log.spans();
  return rr;
}

std::unique_ptr<Bench> MakeBench(const Args& args) {
  if (args.workload == "oltp") return std::make_unique<OltpBench>(args, args.out);
  if (args.workload == "olap") return std::make_unique<OlapBench>(args, false);
  if (args.workload == "htap") return std::make_unique<OlapBench>(args, true);
  return nullptr;
}

void PrintErrors(const Tally& t) {
  for (const auto& e : t.errors) std::printf("# error: %s\n", e.c_str());
}

/// End-to-end metrics of one untraced round.
std::vector<Metric> EndToEnd(const Args& args, Bench* bench,
                             const RoundResult& rr,
                             const std::vector<double>& setup_s,
                             double rss_before_mb) {
  const Tally& t = rr.tally;
  std::vector<Metric> m;
  const Tail reads = Summarize(t.read_ms);
  m.push_back({"read_qps", Ratio(static_cast<double>(t.reads), rr.seconds), "1/s",
               std::to_string(t.reads) + " reads"});
  m.push_back({"read_p50_ms", reads.p50, "ms", TailBasis(reads)});
  m.push_back({"read_p99_ms", reads.high, "ms", TailBasis(reads)});
  // olap has no writes in its window: its writes are the bulk load.
  const bool load = args.workload == "olap";
  const Tail writes = Summarize(load ? bench->load_ms() : t.write_ms);
  const double wtps =
      load ? Ratio(static_cast<double>(bench->load_ms().size()),
                   bench->load_seconds())
           : Ratio(static_cast<double>(t.writes), rr.seconds);
  const std::string wbasis =
      load ? std::to_string(bench->load_ms().size()) + " bulk-load INSERTs"
           : std::to_string(t.writes) + " commits";
  m.push_back({"write_tps", wtps, "1/s", wbasis});
  m.push_back({"write_p50_ms", writes.p50, "ms", TailBasis(writes)});
  m.push_back({"write_p99_ms", writes.high, "ms", TailBasis(writes)});
  m.push_back({"setup_s", Median(setup_s), "s",
               "median of " + std::to_string(setup_s.size()) + " set-ups"});
  // The oracle's data is resident before the first set-up; what the
  // process peaks at above that is the servers' and the clients' share.
  m.push_back({"peak_rss_mb", PeakRssMb() - rss_before_mb, "MB",
               "VmHWM minus VmRSS before the first set-up (" +
                   Num(rss_before_mb) + " MB)"});
  return m;
}

std::vector<Metric> PerLayer(const RoundResult& rr,
                             const ReplayResult& rp, double overhead) {
  const Counters& a = rr.before;
  const Counters& b = rr.after;
  auto d = [&](const char* name) { return static_cast<double>(Delta(a, b, name)); };
  auto gauge = [&](const char* name) {
    auto it = b.find(name);
    return it == b.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto base = [](double v, const char* what) {
    return std::string(what) + "=" + Num(v);
  };
  auto extra = [&](const char* name) {
    auto it = rr.extra.find(name);
    return it == rr.extra.end() ? 0.0 : it->second;
  };
  auto med = [](const std::vector<double>& v) { return Median(v); };
  auto n = [](const std::vector<double>& v) { return "n=" + std::to_string(v.size()); };
  std::vector<Metric> m;
  const double ok = d("queries_ok");
  m.push_back({"server.residual_ms", med(rp.residual_ms), "ms", n(rp.residual_ms)});
  m.push_back({"server.admission_queued_ratio",
               Ratio(d("queries_queued_total"), d("queries_admitted")), "ratio",
               base(d("queries_admitted"), "admitted")});
  m.push_back({"server.encode_us", med(rp.encode_us), "us", n(rp.encode_us)});
  m.push_back({"server.decode_us", med(rp.decode_us), "us", n(rp.decode_us)});
  m.push_back({"server.result_bytes", Ratio(d("bytes_out"), ok), "B",
               base(ok, "queries_ok")});
  m.push_back({"sql.parse_us", med(rp.parse_us), "us", n(rp.parse_us)});
  m.push_back({"sql.compile_us", med(rp.compile_us), "us", n(rp.compile_us)});
  const double lookups = d("prepared_cache_hits") + d("prepared_cache_misses");
  m.push_back({"sql.plan_cache_hit_ratio", Ratio(d("prepared_cache_hits"), lookups),
               "ratio", base(lookups, "lookups")});
  m.push_back({"mal.optimize_us", med(rp.optimize_us), "us", n(rp.optimize_us)});
  m.push_back({"mal.run_ms", med(rp.run_ms), "ms", n(rp.run_ms)});
  m.push_back({"mal.instructions", med(rp.instructions), "count", n(rp.instructions)});
  const double scans = d("shared_scans_attached") + d("shared_scans_direct");
  m.push_back({"scan.share_ratio", Ratio(d("shared_scans_attached"), scans), "ratio",
               base(scans, "scans")});
  m.push_back({"scan.loads_per_scan", Ratio(d("shared_chunks_loaded"), scans),
               "count", base(scans, "scans")});
  m.push_back({"scan.bytes_loaded_per_query", Ratio(d("shared_bytes_loaded"), ok),
               "B", base(ok, "queries_ok")});
  const double sel = d("compressed_kernel_selects") +
                     d("compressed_kernel_select_fallbacks");
  m.push_back({"compress.select_direct_ratio",
               Ratio(d("compressed_kernel_selects"), sel), "ratio",
               base(sel, "selects")});
  const double agg =
      d("compressed_kernel_aggrs") + d("compressed_kernel_aggr_fallbacks");
  m.push_back({"compress.aggr_direct_ratio", Ratio(d("compressed_kernel_aggrs"), agg),
               "ratio", base(agg, "aggregates")});
  m.push_back({"compress.storage_ratio",
               Ratio(gauge("compressed_logical_bytes"), gauge("compressed_bytes")),
               "ratio", base(gauge("compressed_bytes"), "compressed_bytes")});
  m.push_back({"compress.cache_mb", gauge("compressed_cache_bytes") / (1 << 20), "MB",
               "gauge at end"});
  m.push_back({"txn.conflicts_per_commit",
               Ratio(d("txn_conflicts"), d("txn_committed")), "ratio",
               base(d("txn_committed"), "commits")});
  const double synced = d("wal_commits_synced");
  m.push_back({"wal.fsyncs_per_commit", Ratio(d("wal_fsyncs"), synced), "ratio",
               base(synced, "commits_synced")});
  m.push_back({"wal.bytes_per_user_byte",
               Ratio(d("wal_bytes"), static_cast<double>(rr.tally.user_bytes)),
               "ratio", base(static_cast<double>(rr.tally.user_bytes), "user_bytes")});
  m.push_back({"wal.disk_bytes_per_user_byte",
               Ratio(extra("db_dir_bytes"), extra("user_bytes_total")), "ratio",
               base(extra("user_bytes_total"), "user_bytes")});
  m.push_back({"wal.checkpoints", d("wal_checkpoints"), "count", "delta"});
  const Tail commit = Summarize(rr.tally.commit_ms);
  m.push_back({"wal.commit_ms", commit.p50, "ms", n(rr.tally.commit_ms)});
  m.push_back({"repl.lag_bytes_max", extra("repl.lag_bytes_max"), "B",
               "sampled every 10 ms"});
  // Transactions the replica applied against those the primary logged,
  // both over the measured window (the replica is caught up by then).
  const double logged = d("wal_txns");
  m.push_back({"repl.applied_ratio",
               Ratio(extra("replica_txns_applied"), logged), "ratio",
               base(logged, "primary_txns")});
  m.push_back({"bench.trace_overhead_ratio", overhead, "ratio",
               "traced/untraced mean round trip"});
  return m;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload oltp|olap|htap --seed N "
               "--seconds S --trace 0|1 [--out DIR] "
               "[--git-sha SHA] [--source-id ID]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage();
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::stoull(v);
    else if (k == "--seconds") args.seconds = std::stod(v);
    else if (k == "--trace") args.trace = v == "1";
    else if (k == "--out") args.out = v;
    else if (k == "--git-sha") args.git_sha = v;
    else if (k == "--source-id") args.source_id = v;
    else return Usage();
  }
  if (args.seconds <= 0) return Usage();
  fs::create_directories(args.out);
  std::unique_ptr<Bench> bench = MakeBench(args);
  if (bench == nullptr) return Usage();

  std::ostringstream prov;
  prov << "git_sha=" << args.git_sha << " source_id=" << args.source_id
       << " build=" << PERFBENCH_BUILD_TYPE
       << " nproc=" << std::thread::hardware_concurrency()
       << " cpu_mhz=" << CpuMhz() << " workload=" << args.workload
       << " seed=" << args.seed << " seconds=" << args.seconds
       << " warmup_s=" << kWarmupSeconds << " trace=" << args.trace << " ";
  bench->Describe(prov);
  std::printf("# provenance: %s\n", prov.str().c_str());

  const double rss_before_mb = RssMb();
  std::vector<double> setup_s;
  const int rounds = args.trace ? 1 : kSetupRounds;
  auto setup = [&]() -> bool {
    const auto t0 = Clock::now();
    Status s = bench->Setup();
    setup_s.push_back(MillisBetween(t0, Clock::now()) / 1000 -
                      bench->render_seconds());
    if (!s.ok()) std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
    return s.ok();
  };
  for (int r = 0; r < rounds; ++r) {
    if (!setup()) return 1;
  }

  std::vector<Metric> metrics;
  Tally total;
  RoundResult rr = RunRound(bench.get(), args, false);
  if (!rr.ok) {
    std::fprintf(stderr, "%s\n", rr.error.c_str());
    return 1;
  }
  total.Merge(rr.tally);
  if (!args.trace) {
    metrics = EndToEnd(args, bench.get(), rr, setup_s, rss_before_mb);
  } else {
    // Same seed again, traced, from a fresh set-up.
    const double untraced = MeanRtt(rr.tally);
    if (!setup()) return 1;
    RoundResult traced = RunRound(bench.get(), args, true);
    if (!traced.ok) {
      std::fprintf(stderr, "%s\n", traced.error.c_str());
      return 1;
    }
    total.Merge(traced.tally);
    std::vector<Span> spans;
    std::vector<Sample> samples;
    const uint32_t caps = bench->workers()[0]->client.caps();
    for (auto& w : bench->workers()) {
      spans.insert(spans.end(), w->spans.spans().begin(), w->spans.spans().end());
      samples.insert(samples.end(), w->samples.begin(), w->samples.end());
      w->client.Close();  // the replay runs with no sessions open
    }
    const ReplayResult rp = Replay(bench->primary(), caps, samples);
    spans.insert(spans.end(), rp.spans.begin(), rp.spans.end());
    const std::string span_path = args.out + "/spans-" + args.workload + "-seed" +
                                  std::to_string(args.seed) + ".csv";
    if (!WriteSpansCsv(span_path, spans)) {
      std::fprintf(stderr, "cannot write %s\n", span_path.c_str());
      return 1;
    }
    std::printf("# spans: %zu written to %s, %zu statements replayed\n",
                spans.size(), span_path.c_str(), rp.statements);
    metrics = PerLayer(traced, rp, Ratio(MeanRtt(traced.tally), untraced));
  }
  bench->Teardown();

  const uint64_t failed = total.failed + total.wrong;
  PrintErrors(total);
  if (!total.lag_ms.empty()) {
    // Open-loop workloads only: how late the generator sent.
    const Tail lag = Summarize(total.lag_ms);
    std::printf("# generator lag: p50 %.3f ms, high %.3f ms (%s)\n", lag.p50,
                lag.high, TailBasis(lag).c_str());
  }
  std::printf("# fail_ratio %s (%llu failed + %llu wrong of %llu attempted)\n",
              Num(Ratio(static_cast<double>(failed),
                        static_cast<double>(total.attempted)))
                  .c_str(),
              static_cast<unsigned long long>(total.failed),
              static_cast<unsigned long long>(total.wrong),
              static_cast<unsigned long long>(total.attempted));
  std::ostringstream json, file;
  json << "{\"correct\": " << (total.wrong == 0 ? "true" : "false")
       << ", \"attempted\": " << total.attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  file << "{\"provenance\": " << JsonStr(prov.str()) << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& mt = metrics[i];
    std::printf("%-32s %14.6g %-6s (%s)\n", mt.name.c_str(), mt.value,
                mt.unit.c_str(), mt.basis.c_str());
    const char* sep = i == 0 ? "" : ", ";
    json << sep << JsonStr(mt.name) << ": {\"value\": " << Num(mt.value)
         << ", \"unit\": " << JsonStr(mt.unit) << "}";
    file << sep << JsonStr(mt.name) << ": {\"value\": " << Num(mt.value)
         << ", \"unit\": " << JsonStr(mt.unit)
         << ", \"basis\": " << JsonStr(mt.basis) << "}";
  }
  json << "}}";
  file << "}, \"attempted\": " << total.attempted << ", \"failed\": " << failed
       << ", \"wrong\": " << total.wrong << "}\n";
  const std::string result_path = args.out + "/result-" + args.workload +
                                  "-seed" + std::to_string(args.seed) +
                                  "-trace" + (args.trace ? "1" : "0") + ".json";
  std::ofstream(result_path) << file.str();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
