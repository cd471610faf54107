// Tests of the benchmark's own machinery: seeded generation, the result
// oracle, the percentile rule and the span self-time arithmetic.

#include <gtest/gtest.h>

#include "measure.h"
#include "sql/engine.h"
#include "workload.h"

namespace perfbench {
namespace {

using mammoth::Value;
using mammoth::sql::Engine;

OlapSizes TinyOlap() {
  OlapSizes s;
  s.facts = 3000;
  s.days = 800;
  s.customers = 60;
  s.load_batch_rows = 500;
  s.instances = 4;
  return s;
}

OltpSizes TinyOltp() {
  OltpSizes s;
  s.customers = 300;
  s.load_batch_rows = 100;
  return s;
}

/// Every statement the benchmark would send for `seed`, concatenated.
std::string AllSql(uint64_t seed) {
  std::string out;
  const OltpSizes os = TinyOltp();
  const OltpData od = MakeOltpData(seed, os);
  for (const auto& s : OltpSchemaSql()) out += s + "\n";
  for (size_t k = 0; k < OltpLoadCount(os); ++k) {
    out += OltpLoadSql(od, os, k) + "\n";
  }
  for (int conn = 0; conn < 4; ++conn) {
    OltpStream stream(seed, conn, 4, os);
    for (int i = 0; i < 500; ++i) out += stream.Next().Text() + "\n";
  }
  const OlapData ad = MakeOlapData(seed, TinyOlap());
  for (const auto& s : OlapSchemaSql()) out += s + "\n";
  for (size_t k = 0; k < OlapLoadCount(ad); ++k) {
    out += OlapLoadSql(ad, k) + "\n";
  }
  for (const auto& q : MakeOlapQueries(seed, TinyOlap())) out += q.sql + "\n";
  for (const auto& b : MakeAppendBatches(seed, ad, 5, 10)) {
    out += FactsInsertSql(b) + "\n";
  }
  return out;
}

TEST(Generation, SameSeedGivesByteIdenticalSql) {
  const std::string a = AllSql(7);
  EXPECT_EQ(a, AllSql(7));
  EXPECT_NE(a, AllSql(8));
}

TEST(Generation, OltpMixIsAboutOneWriteInTen) {
  OltpStream stream(3, 0, 4, TinyOltp());
  int writes = 0;
  for (int i = 0; i < 10000; ++i) writes += stream.Next().is_read ? 0 : 1;
  EXPECT_GT(writes, 800);
  EXPECT_LT(writes, 1200);
}

void Exec(Engine* e, const std::string& sql) {
  auto r = e->Execute(sql);
  ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
}

void LoadOlap(Engine* e, const OlapData& data) {
  for (const auto& s : OlapSchemaSql()) Exec(e, s);
  for (size_t k = 0; k < OlapLoadCount(data); ++k) Exec(e, OlapLoadSql(data, k));
}

TEST(Oracle, AgreesWithEngineOnOlapQueries) {
  const OlapData data = MakeOlapData(11, TinyOlap());
  Engine engine;
  LoadOlap(&engine, data);
  Exec(&engine, kCompressSql);
  const auto queries = MakeOlapQueries(11, TinyOlap());
  const std::vector<const Facts*> base = {&data.facts};
  std::vector<Expected> lower;
  for (const auto& q : queries) {
    lower.push_back(Evaluate(q, data, base));
    auto r = engine.Execute(q.sql);
    ASSERT_TRUE(r.ok()) << q.sql;
    const Expected& e = lower.back();
    EXPECT_FALSE(e.rows.empty()) << q.sql;
    EXPECT_EQ(CheckResult(*r, ChecksOf(q.kind), e, e), "") << q.sql;
  }

  // Appended batches: exact against loaded + appended, and inside the
  // [loaded, loaded + every batch] bounds used while writers run.
  const auto batches = MakeAppendBatches(11, data, 6, 10);
  std::vector<const Facts*> all = base;
  for (const auto& b : batches) all.push_back(&b);
  std::vector<const Facts*> half = base;
  for (size_t i = 0; i < 3; ++i) {
    Exec(&engine, FactsInsertSql(batches[i]));
    half.push_back(&batches[i]);
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto& q = queries[i];
    auto r = engine.Execute(q.sql);
    ASSERT_TRUE(r.ok()) << q.sql;
    const Expected now = Evaluate(q, data, half);
    EXPECT_EQ(CheckResult(*r, ChecksOf(q.kind), now, now), "") << q.sql;
    const Expected upper = Evaluate(q, data, all);
    if (upper.rows.size() == lower[i].rows.size()) {
      EXPECT_EQ(CheckResult(*r, ChecksOf(q.kind), lower[i], upper), "")
          << q.sql;
    }
  }
}

TEST(Oracle, RejectsWrongAnswers) {
  const OlapData data = MakeOlapData(5, TinyOlap());
  Engine engine;
  LoadOlap(&engine, data);
  const auto queries = MakeOlapQueries(5, TinyOlap());
  const OlapQuery& q = queries[TinyOlap().instances];  // a kScanAgg
  ASSERT_EQ(q.kind, QueryKind::kScanAgg);
  Expected e = Evaluate(q, data, {&data.facts});
  auto r = engine.Execute(q.sql);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(CheckResult(*r, ChecksOf(q.kind), e, e), "");
  std::get<int64_t>(e.rows[0][0]) += 1;
  EXPECT_NE(CheckResult(*r, ChecksOf(q.kind), e, e), "");
}

TEST(Oracle, AgreesWithEngineOnOltp) {
  const OltpSizes sizes = TinyOltp();
  const OltpData data = MakeOltpData(13, sizes);
  Engine engine;
  for (const auto& s : OltpSchemaSql()) Exec(&engine, s);
  for (size_t k = 0; k < OltpLoadCount(sizes); ++k) {
    Exec(&engine, OltpLoadSql(data, sizes, k));
  }
  auto prepared = engine.Prepare(kPointReadSql);
  ASSERT_TRUE(prepared.ok());
  OltpStream stream(13, 1, 4, sizes);
  int64_t orders = 0, sum = 0;
  for (int i = 0; i < 300; ++i) {
    const OltpOp op = stream.Next();
    if (op.is_read) {
      auto r = engine.ExecutePrepared((*prepared)->id, {Value::Int(op.c_id)});
      ASSERT_TRUE(r.ok());
      const Expected e = PointReadExpected(data, op.c_id);
      EXPECT_EQ(CheckResult(*r, PointReadChecks(), e, e), "");
    } else {
      Exec(&engine, "BEGIN");
      for (const auto& w : op.writes) Exec(&engine, w);
      Exec(&engine, "COMMIT");
      ++orders;
      sum += op.total;
    }
  }
  ASSERT_GT(orders, 0);
  auto r = engine.Execute("SELECT COUNT(*), SUM(o_total) FROM orders");
  ASSERT_TRUE(r.ok());
  const Expected e = {{{orders, sum}}};
  const std::vector<Check> exact = {Check::kKey, Check::kKey};
  EXPECT_EQ(CheckResult(*r, exact, e, e), "");
  auto lines = engine.Execute("SELECT COUNT(*) FROM lines");
  ASSERT_TRUE(lines.ok());
  const Expected le = {{{orders * sizes.lines_per_order}}};
  EXPECT_EQ(CheckResult(*lines, {Check::kKey}, le, le), "");
}

TEST(Percentile, KeepsTenSamplesBeyondTheReportedPercentile) {
  for (size_t n : {11, 12, 50, 100, 500, 999, 1000, 1010, 1011, 5000}) {
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
    const Tail t = Summarize(v);
    EXPECT_EQ(t.n, n);
    EXPECT_GE(t.beyond, kMinBeyond) << n;
    EXPECT_LE(t.high_pct, 99.0) << n;
    // Values are 1..n, so the value at a rank is the rank itself.
    EXPECT_EQ(t.high, static_cast<double>(n - t.beyond)) << n;
    EXPECT_EQ(t.p50, static_cast<double>((n + 1) / 2)) << n;
  }
  // Enough samples: exactly p99 (nearest rank), more than ten beyond.
  std::vector<double> v(5000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  const Tail t = Summarize(v);
  EXPECT_EQ(t.high_pct, 99.0);
  EXPECT_EQ(t.high, 4950.0);
  EXPECT_EQ(t.beyond, 50u);
  // Too few samples for any tail: the median stands in.
  const Tail few = Summarize({3, 1, 2});
  EXPECT_EQ(few.high, 2.0);
  EXPECT_EQ(few.high_pct, 50.0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  // root [0,100]: children a [10,40] and b [30,60] overlap, c [90,120]
  // runs past the root's end; a has a child [15,20].
  std::vector<Span> spans = {
      {1, 0, 7, "root", 0, 100},  {2, 1, 7, "a", 10, 40},
      {3, 1, 7, "b", 30, 60},     {4, 1, 7, "c", 90, 120},
      {5, 2, 7, "a.kid", 15, 20},
  };
  const auto self = SelfTimesNs(spans);
  EXPECT_EQ(self.at(1), 100 - 50 - 10);  // covered: [10,60] and [90,100]
  EXPECT_EQ(self.at(2), 30 - 5);
  EXPECT_EQ(self.at(3), 30);
  EXPECT_EQ(self.at(4), 30);
  EXPECT_EQ(self.at(5), 5);
}

TEST(Spans, LogNestsAndTimes) {
  SpanLog log(3);
  const uint64_t root = log.Begin("root", 0, 1);
  const uint64_t kid = log.Begin("kid", root, 1);
  log.End(kid);
  log.End(root);
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, root);
  EXPECT_LE(log.spans()[0].start_ns, log.spans()[1].start_ns);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
  EXPECT_NE(root >> 40, 0u);
}

}  // namespace
}  // namespace perfbench
