#include "workload.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <map>

namespace perfbench {

using mammoth::PhysType;
using mammoth::Rng;

namespace {

/// Derives an independent stream seed from the run seed and a salt.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  return Rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL)).Next();
}

bool IsNumber(const Cell& c) { return !std::holds_alternative<std::string>(c); }

double AsDouble(const Cell& c) {
  return std::holds_alternative<int64_t>(c)
             ? static_cast<double>(std::get<int64_t>(c))
             : std::get<double>(c);
}

/// Numeric equality across int64/double; exact for two integers.
bool SameValue(const Cell& a, const Cell& b) {
  if (std::holds_alternative<int64_t>(a) &&
      std::holds_alternative<int64_t>(b)) {
    return std::get<int64_t>(a) == std::get<int64_t>(b);
  }
  if (IsNumber(a) && IsNumber(b)) return AsDouble(a) == AsDouble(b);
  return a == b;
}

bool LessOrEqual(const Cell& a, const Cell& b) {
  if (std::holds_alternative<int64_t>(a) &&
      std::holds_alternative<int64_t>(b)) {
    return std::get<int64_t>(a) <= std::get<int64_t>(b);
  }
  return IsNumber(a) && IsNumber(b) && AsDouble(a) <= AsDouble(b);
}

std::string ToString(const Cell& c) {
  if (const auto* i = std::get_if<int64_t>(&c)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&c)) return std::to_string(*d);
  return "'" + std::get<std::string>(c) + "'";
}

/// Appends "(c1, c2, ...)" to `sql`.
void AppendTuple(std::string* sql, std::initializer_list<std::string> cells) {
  sql->push_back('(');
  bool first = true;
  for (const std::string& c : cells) {
    if (!first) sql->append(", ");
    sql->append(c);
    first = false;
  }
  sql->push_back(')');
}

int32_t ItemPrice(int32_t item) { return 100 + (item * 7919) % 9900; }

int32_t YearOf(int32_t date) { return 1992 + date / 365; }

}  // namespace

Cell CellAt(const mammoth::mal::QueryResult& result, size_t col, size_t row) {
  const mammoth::Bat& b = *result.columns[col];
  if (b.IsDenseTail()) return static_cast<int64_t>(b.tseqbase() + row);
  switch (b.type()) {
    case PhysType::kBool:
      return static_cast<int64_t>(b.ValueAt<bool>(row));
    case PhysType::kInt8:
      return static_cast<int64_t>(b.ValueAt<int8_t>(row));
    case PhysType::kInt16:
      return static_cast<int64_t>(b.ValueAt<int16_t>(row));
    case PhysType::kInt32:
      return static_cast<int64_t>(b.ValueAt<int32_t>(row));
    case PhysType::kInt64:
      return b.ValueAt<int64_t>(row);
    case PhysType::kOid:
      return static_cast<int64_t>(b.OidAt(row));
    case PhysType::kFloat:
      return static_cast<double>(b.ValueAt<float>(row));
    case PhysType::kDouble:
      return b.ValueAt<double>(row);
    case PhysType::kStr:
      return std::string(b.StringAt(row));
  }
  return std::string("?");
}

std::string CheckResult(const mammoth::mal::QueryResult& got,
                        const std::vector<Check>& checks,
                        const Expected& lower, const Expected& upper) {
  const bool exact = &lower == &upper || lower.rows == upper.rows;
  if (got.columns.size() != checks.size()) {
    return "expected " + std::to_string(checks.size()) + " columns, got " +
           std::to_string(got.columns.size());
  }
  if (got.RowCount() != lower.rows.size() ||
      got.RowCount() != upper.rows.size()) {
    return "expected " + std::to_string(lower.rows.size()) + " rows, got " +
           std::to_string(got.RowCount());
  }
  for (size_t r = 0; r < lower.rows.size(); ++r) {
    for (size_t c = 0; c < checks.size(); ++c) {
      const Cell g = CellAt(got, c, r);
      const Cell& lo = lower.rows[r][c];
      const Cell& hi = upper.rows[r][c];
      bool ok = true;
      switch (checks[c]) {
        case Check::kKey:
          ok = SameValue(g, lo);
          break;
        case Check::kSum:
          ok = exact ? SameValue(g, lo)
                     : LessOrEqual(lo, g) && LessOrEqual(g, hi);
          break;
        case Check::kAvg:
          ok = !exact || (IsNumber(g) && IsNumber(lo) &&
                          std::fabs(AsDouble(g) - AsDouble(lo)) <=
                              1e-9 * std::max(1.0, std::fabs(AsDouble(lo))));
          break;
        case Check::kRankedId:
          ok = !exact || SameValue(g, lo);
          break;
      }
      if (!ok) {
        return "row " + std::to_string(r) + " col " + std::to_string(c) +
               ": got " + ToString(g) + ", expected " +
               (exact ? ToString(lo)
                      : "[" + ToString(lo) + ", " + ToString(hi) + "]");
      }
    }
  }
  return "";
}

std::string SqlInt(int64_t v) { return std::to_string(v); }
std::string SqlStr(const std::string& s) { return "'" + s + "'"; }

// --- oltp ---------------------------------------------------------------

OltpData MakeOltpData(uint64_t seed, const OltpSizes& sizes) {
  Rng rng(Mix(seed, 1));
  OltpData d;
  d.name.reserve(sizes.customers);
  for (int i = 0; i < sizes.customers; ++i) {
    std::string name = "cust" + std::to_string(i) + "-";
    const int len = 4 + static_cast<int>(rng.Uniform(8));
    for (int k = 0; k < len; ++k) {
      name.push_back(static_cast<char>('a' + rng.Uniform(26)));
    }
    d.name.push_back(std::move(name));
    d.balance.push_back(static_cast<int64_t>(rng.Uniform(10000000)));
    d.region.push_back(static_cast<int32_t>(rng.Uniform(25)));
  }
  return d;
}

std::vector<std::string> OltpSchemaSql() {
  return {
      "CREATE TABLE customer (c_id INT, c_name VARCHAR(24), "
      "c_balance BIGINT, c_region INT)",
      "CREATE TABLE orders (o_id BIGINT, o_c_id INT, o_total BIGINT)",
      "CREATE TABLE lines (l_o_id BIGINT, l_no INT, l_item INT, l_qty INT)",
  };
}

size_t OltpLoadCount(const OltpSizes& sizes) {
  return static_cast<size_t>(
      (sizes.customers + sizes.load_batch_rows - 1) / sizes.load_batch_rows);
}

std::string OltpLoadSql(const OltpData& data, const OltpSizes& sizes,
                        size_t k) {
  const int n = static_cast<int>(data.name.size());
  const int start = static_cast<int>(k) * sizes.load_batch_rows;
  const int end = std::min(n, start + sizes.load_batch_rows);
  std::string sql = "INSERT INTO customer VALUES ";
  for (int i = start; i < end; ++i) {
    if (i != start) sql += ", ";
    AppendTuple(&sql, {SqlInt(i), SqlStr(data.name[i]),
                       SqlInt(data.balance[i]), SqlInt(data.region[i])});
  }
  return sql;
}

uint64_t CustomerRowBytes(const OltpData& data, int c_id) {
  return 4 + data.name[c_id].size() + 8 + 4;
}

Expected PointReadExpected(const OltpData& data, int64_t c_id) {
  return {{{c_id, data.name[c_id], data.balance[c_id]}}};
}

const std::vector<Check>& PointReadChecks() {
  static const std::vector<Check> checks = {Check::kKey, Check::kKey,
                                            Check::kKey};
  return checks;
}

std::string OltpOp::Text() const {
  if (is_read) {
    return std::string("EXECUTE ") + kPointReadSql + " [" + SqlInt(c_id) +
           "]";
  }
  std::string text = "BEGIN;";
  for (const std::string& w : writes) text += " " + w + ";";
  return text + " COMMIT";
}

OltpStream::OltpStream(uint64_t seed, int conn, int nconns,
                       const OltpSizes& sizes)
    : rng_(Mix(seed, 100 + static_cast<uint64_t>(conn))),
      conn_(conn),
      nconns_(nconns),
      sizes_(sizes) {}

OltpOp OltpStream::Next() {
  OltpOp op;
  op.c_id = static_cast<int64_t>(rng_.Uniform(sizes_.customers));
  if (rng_.Uniform(10) != 0) return op;
  op.is_read = false;
  op.o_id = conn_ + orders_++ * nconns_;
  std::string lines = "INSERT INTO lines VALUES ";
  for (int l = 0; l < sizes_.lines_per_order; ++l) {
    const int32_t item = static_cast<int32_t>(rng_.Uniform(10000));
    const int32_t qty = 1 + static_cast<int32_t>(rng_.Uniform(10));
    op.total += static_cast<int64_t>(qty) * ItemPrice(item);
    if (l != 0) lines += ", ";
    AppendTuple(&lines, {SqlInt(op.o_id), SqlInt(l), SqlInt(item), SqlInt(qty)});
  }
  std::string order = "INSERT INTO orders VALUES ";
  AppendTuple(&order, {SqlInt(op.o_id), SqlInt(op.c_id), SqlInt(op.total)});
  op.writes.push_back(std::move(order));
  op.writes.push_back(std::move(lines));
  return op;
}

// --- olap / htap --------------------------------------------------------

void Facts::Append(int32_t id_, int32_t date_, int32_t cust_, int32_t qty_,
                   int32_t price_, int32_t disc_, uint8_t mode_) {
  id.push_back(id_);
  date.push_back(date_);
  cust.push_back(cust_);
  qty.push_back(qty_);
  price.push_back(price_);
  disc.push_back(disc_);
  revenue.push_back(qty_ * price_ / 100 * (100 - disc_));
  mode.push_back(mode_);
}

const std::vector<std::string>& ShipModes() {
  static const std::vector<std::string> m = {"AIR",  "FOB",  "MAIL", "RAIL",
                                             "REG AIR", "SHIP", "TRUCK"};
  return m;
}

const std::vector<std::string>& Regions() {
  static const std::vector<std::string> r = {"AFRICA", "AMERICA", "ASIA",
                                             "EUROPE", "MIDDLE EAST"};
  return r;
}

const std::vector<std::string>& Nations() {
  static const std::vector<std::string> n = {
      "ALGERIA",   "ETHIOPIA", "KENYA",          "MOROCCO",       "MOZAMBIQUE",
      "ARGENTINA", "BRAZIL",   "CANADA",         "PERU",          "UNITED STATES",
      "CHINA",     "INDIA",    "INDONESIA",      "JAPAN",         "VIETNAM",
      "FRANCE",    "GERMANY",  "ROMANIA",        "RUSSIA",        "UNITED KINGDOM",
      "EGYPT",     "IRAN",     "IRAQ",           "JORDAN",        "SAUDI ARABIA"};
  return n;
}

namespace {

void AppendRandomFact(Rng* rng, const OlapSizes& sizes, int32_t id,
                      int32_t date, Facts* out) {
  const int32_t cust = static_cast<int32_t>(rng->Uniform(sizes.customers));
  const int32_t qty = 1 + static_cast<int32_t>(rng->Uniform(50));
  const int32_t price = 100 + static_cast<int32_t>(rng->Uniform(9901));
  const int32_t disc = static_cast<int32_t>(rng->Uniform(11));
  const uint8_t mode = static_cast<uint8_t>(rng->Uniform(ShipModes().size()));
  out->Append(id, date, cust, qty, price, disc, mode);
}

}  // namespace

OlapData MakeOlapData(uint64_t seed, const OlapSizes& sizes) {
  Rng rng(Mix(seed, 2));
  OlapData d;
  d.sizes = sizes;
  for (int c = 0; c < sizes.customers; ++c) {
    d.cust_nation.push_back(
        static_cast<uint8_t>(rng.Uniform(Nations().size())));
  }
  // Facts arrive in order-date order, as a trickle-loaded fact table does.
  for (int i = 0; i < sizes.facts; ++i) {
    const int32_t date = static_cast<int32_t>(
        static_cast<int64_t>(i) * sizes.days / sizes.facts);
    AppendRandomFact(&rng, sizes, i, date, &d.facts);
  }
  return d;
}

std::vector<std::string> OlapSchemaSql() {
  return {
      "CREATE TABLE lineorder (lo_orderkey INT, lo_orderdate INT, "
      "lo_custkey INT, lo_quantity INT, lo_extendedprice INT, "
      "lo_discount INT, lo_revenue INT, lo_shipmode VARCHAR(10)) COMPRESSED",
      "CREATE TABLE dates (d_datekey INT, d_year INT, d_month INT)",
      "CREATE TABLE customer (c_custkey INT, c_nation VARCHAR(16), "
      "c_region VARCHAR(12))",
  };
}

std::string FactsInsertSql(const Facts& rows) {
  std::string sql = "INSERT INTO lineorder VALUES ";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) sql += ", ";
    AppendTuple(&sql, {SqlInt(rows.id[i]), SqlInt(rows.date[i]),
                       SqlInt(rows.cust[i]), SqlInt(rows.qty[i]),
                       SqlInt(rows.price[i]), SqlInt(rows.disc[i]),
                       SqlInt(rows.revenue[i]),
                       SqlStr(ShipModes()[rows.mode[i]])});
  }
  return sql;
}

size_t OlapLoadCount(const OlapData& data) {
  const size_t batch = static_cast<size_t>(data.sizes.load_batch_rows);
  return 2 + (data.facts.size() + batch - 1) / batch;
}

std::string OlapLoadSql(const OlapData& data, size_t k) {
  if (k == 0) {
    std::string dates = "INSERT INTO dates VALUES ";
    for (int d = 0; d < data.sizes.days; ++d) {
      if (d != 0) dates += ", ";
      AppendTuple(&dates, {SqlInt(d), SqlInt(YearOf(d)),
                           SqlInt(1 + (d % 365) / 31)});
    }
    return dates;
  }
  if (k == 1) {
    std::string cust = "INSERT INTO customer VALUES ";
    for (int c = 0; c < data.sizes.customers; ++c) {
      if (c != 0) cust += ", ";
      const int nation = data.cust_nation[c];
      AppendTuple(&cust, {SqlInt(c), SqlStr(Nations()[nation]),
                          SqlStr(Regions()[nation / 5])});
    }
    return cust;
  }
  const Facts& f = data.facts;
  const size_t start = (k - 2) * data.sizes.load_batch_rows;
  const size_t end = std::min(f.size(), start + data.sizes.load_batch_rows);
  Facts batch;
  for (size_t i = start; i < end; ++i) {
    batch.Append(f.id[i], f.date[i], f.cust[i], f.qty[i], f.price[i],
                 f.disc[i], f.mode[i]);
  }
  return FactsInsertSql(batch);
}

uint64_t FactRowBytes(const Facts& facts, size_t i) {
  return 7 * 4 + ShipModes()[facts.mode[i]].size();
}

const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kCount: return "count";
    case QueryKind::kScanAgg: return "scan_agg";
    case QueryKind::kJoinDates: return "join_dates";
    case QueryKind::kJoinCustomer: return "join_customer";
    case QueryKind::kGroupMode: return "group_shipmode";
    case QueryKind::kTopN: return "top_n";
  }
  return "?";
}

namespace {

std::string DateRange(const OlapQuery& q) {
  return "lo_orderdate >= " + SqlInt(q.date_lo) +
         " AND lo_orderdate <= " + SqlInt(q.date_hi);
}

std::string RenderSql(const OlapQuery& q) {
  switch (q.kind) {
    case QueryKind::kCount:
      // Global aggregates over whole compressed columns: the shape the
      // interpreter folds on the compressed image without decoding.
      return "SELECT COUNT(*), SUM(lo_quantity), MAX(lo_orderdate) "
             "FROM lineorder";
    case QueryKind::kScanAgg:
      return "SELECT SUM(lo_revenue), COUNT(*) FROM lineorder WHERE " +
             DateRange(q) + " AND lo_discount >= " + SqlInt(q.disc_lo) +
             " AND lo_discount <= " + SqlInt(q.disc_lo + 2) +
             " AND lo_quantity < " + SqlInt(q.qty_below);
    case QueryKind::kJoinDates:
      return "SELECT d_year, SUM(lo_revenue), COUNT(*) FROM lineorder, dates "
             "WHERE lo_orderdate = d_datekey AND lo_discount >= " +
             SqlInt(q.disc_lo) + " AND lo_discount <= " +
             SqlInt(q.disc_lo + 2) + " AND lo_quantity < " +
             SqlInt(q.qty_below) + " GROUP BY d_year ORDER BY d_year";
    case QueryKind::kJoinCustomer:
      return "SELECT c_nation, SUM(lo_revenue), COUNT(*) FROM lineorder, "
             "customer WHERE lo_custkey = c_custkey AND c_region = " +
             SqlStr(Regions()[q.region]) + " AND " + DateRange(q) +
             " GROUP BY c_nation ORDER BY c_nation";
    case QueryKind::kGroupMode:
      return "SELECT lo_shipmode, COUNT(*), SUM(lo_quantity), "
             "AVG(lo_extendedprice) FROM lineorder WHERE " +
             DateRange(q) + " GROUP BY lo_shipmode ORDER BY lo_shipmode";
    case QueryKind::kTopN:
      return "SELECT lo_orderkey, lo_revenue FROM lineorder WHERE " +
             DateRange(q) +
             " ORDER BY lo_revenue DESC, lo_orderkey LIMIT 10";
  }
  return "";
}

/// Instance `i` of `n` gets a date window of `len` days inside [0, days),
/// stratified: window starts spread evenly over the days, jittered by
/// the seed. Every seed then covers the table alike, so the cost mix of
/// the instances barely depends on the seed.
void PickRange(Rng* rng, int days, int len, int i, int n, OlapQuery* q) {
  len = std::min(len, days);
  const double slot = (i + rng->NextDouble()) / n;
  q->date_lo = static_cast<int32_t>(slot * (days - len + 1));
  q->date_hi = q->date_lo + len - 1;
}

}  // namespace

std::vector<OlapQuery> MakeOlapQueries(uint64_t seed, const OlapSizes& sizes) {
  Rng rng(Mix(seed, 3));
  // Seeded rotations of the stratified discount/quantity/region choices.
  const int disc_off = static_cast<int>(rng.Uniform(9));
  const int qty_off = static_cast<int>(rng.Uniform(21));
  const int region_off = static_cast<int>(rng.Uniform(Regions().size()));
  const int n = sizes.instances;
  std::vector<OlapQuery> out;
  for (int k = 0; k < kQueryKinds; ++k) {
    for (int i = 0; i < n; ++i) {
      OlapQuery q;
      q.kind = static_cast<QueryKind>(k);
      q.disc_lo = (i + disc_off) % 9;
      q.qty_below = 20 + (i * 8 + qty_off) % 21;
      q.region = (i + region_off) % static_cast<int>(Regions().size());
      switch (q.kind) {
        case QueryKind::kCount:
        case QueryKind::kJoinDates:
          break;
        case QueryKind::kScanAgg:
        case QueryKind::kJoinCustomer:
          PickRange(&rng, sizes.days, 365, i, n, &q);
          break;
        case QueryKind::kGroupMode:
          PickRange(&rng, sizes.days, 730, i, n, &q);
          break;
        case QueryKind::kTopN:
          PickRange(&rng, sizes.days, 30, i, n, &q);
          break;
      }
      q.sql = RenderSql(q);
      out.push_back(std::move(q));
    }
  }
  return out;
}

const std::vector<Check>& ChecksOf(QueryKind kind) {
  static const std::vector<std::vector<Check>> checks = {
      {Check::kSum, Check::kSum, Check::kSum},
      {Check::kSum, Check::kSum},
      {Check::kKey, Check::kSum, Check::kSum},
      {Check::kKey, Check::kSum, Check::kSum},
      {Check::kKey, Check::kSum, Check::kSum, Check::kAvg},
      {Check::kRankedId, Check::kSum},
  };
  return checks[static_cast<int>(kind)];
}

Expected Evaluate(const OlapQuery& q, const OlapData& data,
                  const std::vector<const Facts*>& parts) {
  auto in_range = [&](const Facts& f, size_t i) {
    return f.date[i] >= q.date_lo && f.date[i] <= q.date_hi;
  };
  auto disc_qty = [&](const Facts& f, size_t i) {
    return f.disc[i] >= q.disc_lo && f.disc[i] <= q.disc_lo + 2 &&
           f.qty[i] < q.qty_below;
  };
  Expected e;
  switch (q.kind) {
    case QueryKind::kCount: {
      int64_t n = 0, qty = 0, max_date = 0;
      for (const Facts* f : parts) {
        n += static_cast<int64_t>(f->size());
        for (size_t i = 0; i < f->size(); ++i) {
          qty += f->qty[i];
          max_date = std::max<int64_t>(max_date, f->date[i]);
        }
      }
      e.rows.push_back({n, qty, max_date});
      break;
    }
    case QueryKind::kScanAgg: {
      int64_t sum = 0, n = 0;
      for (const Facts* f : parts) {
        for (size_t i = 0; i < f->size(); ++i) {
          if (in_range(*f, i) && disc_qty(*f, i)) {
            sum += f->revenue[i];
            ++n;
          }
        }
      }
      e.rows.push_back({sum, n});
      break;
    }
    case QueryKind::kJoinDates:
    case QueryKind::kJoinCustomer:
    case QueryKind::kGroupMode: {
      // Per group index (year offset, nation or ship mode): COUNT(*),
      // SUM(lo_revenue), SUM(lo_quantity), SUM(lo_extendedprice).
      struct Acc {
        int64_t n = 0, revenue = 0, qty = 0, price = 0;
      };
      std::vector<Acc> acc(std::max<size_t>(
          {static_cast<size_t>(YearOf(data.sizes.days - 1) - 1992 + 1),
           Nations().size(), ShipModes().size()}));
      for (const Facts* f : parts) {
        for (size_t i = 0; i < f->size(); ++i) {
          size_t g = 0;
          if (q.kind == QueryKind::kJoinDates) {
            if (!disc_qty(*f, i)) continue;
            g = static_cast<size_t>(YearOf(f->date[i]) - 1992);
          } else if (q.kind == QueryKind::kJoinCustomer) {
            const int nation = data.cust_nation[f->cust[i]];
            if (nation / 5 != q.region || !in_range(*f, i)) continue;
            g = static_cast<size_t>(nation);
          } else {
            if (!in_range(*f, i)) continue;
            g = f->mode[i];
          }
          Acc& a = acc[g];
          ++a.n;
          a.revenue += f->revenue[i];
          a.qty += f->qty[i];
          a.price += f->price[i];
        }
      }
      // Result rows in ORDER BY order of the group key.
      std::map<Cell, const Acc*> groups;
      for (size_t g = 0; g < acc.size(); ++g) {
        if (acc[g].n == 0) continue;
        Cell key = q.kind == QueryKind::kJoinDates
                       ? Cell(static_cast<int64_t>(1992 + g))
                   : q.kind == QueryKind::kJoinCustomer ? Cell(Nations()[g])
                                                        : Cell(ShipModes()[g]);
        groups.emplace(std::move(key), &acc[g]);
      }
      for (const auto& [key, a] : groups) {
        if (q.kind == QueryKind::kGroupMode) {
          e.rows.push_back({key, a->n, a->qty,
                            static_cast<double>(a->price) /
                                static_cast<double>(a->n)});
        } else {
          e.rows.push_back({key, a->revenue, a->n});
        }
      }
      break;
    }
    case QueryKind::kTopN: {
      std::vector<std::pair<int32_t, int32_t>> hits;  // (revenue, id)
      for (const Facts* f : parts) {
        for (size_t i = 0; i < f->size(); ++i) {
          if (in_range(*f, i)) hits.emplace_back(f->revenue[i], f->id[i]);
        }
      }
      auto better = [](const auto& a, const auto& b) {
        return a.first != b.first ? a.first > b.first : a.second < b.second;
      };
      const size_t n = std::min<size_t>(10, hits.size());
      std::partial_sort(hits.begin(), hits.begin() + n, hits.end(), better);
      for (size_t i = 0; i < n; ++i) {
        e.rows.push_back({static_cast<int64_t>(hits[i].second),
                          static_cast<int64_t>(hits[i].first)});
      }
      break;
    }
  }
  return e;
}

std::vector<Facts> MakeAppendBatches(uint64_t seed, const OlapData& data,
                                     int nbatches, int rows) {
  Rng rng(Mix(seed, 4));
  const OlapSizes& s = data.sizes;
  const int last_year = std::min(365, s.days);
  std::vector<Facts> out(nbatches);
  int32_t id = s.facts;
  for (Facts& batch : out) {
    for (int r = 0; r < rows; ++r) {
      const int32_t date =
          s.days - last_year + static_cast<int32_t>(rng.Uniform(last_year));
      AppendRandomFact(&rng, s, id++, date, &batch);
    }
  }
  return out;
}

}  // namespace perfbench
