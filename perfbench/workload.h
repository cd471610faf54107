#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// Seeded input generation and the result oracle of the end-to-end
// benchmark. Everything here is a pure function of the seed and the
// sizes: the server under test only ever sees the SQL text (and the
// prepared-statement parameters) produced here, and every answer it
// returns is checked against what this file computes from its own copy
// of the data.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "mal/interpreter.h"

namespace perfbench {

/// One result cell as the oracle states it: integers of every width
/// widen to int64, floats to double.
using Cell = std::variant<int64_t, double, std::string>;
using Row = std::vector<Cell>;

/// How one column of a query's result is checked.
enum class Check : uint8_t {
  kKey,       ///< ids and group keys: always bit-exact
  kSum,       ///< COUNT, SUM over non-negative values, MAX: exact, or
              ///< inside [lower, upper] while rows are being appended
  kAvg,       ///< AVG: equal to rounding; not bounded while appending
  kRankedId,  ///< id column of a top-N: exact, unchecked while appending
};

/// An expected answer: rows in result order.
struct Expected {
  std::vector<Row> rows;
};

/// Reads cell (row, col) of a decoded result.
Cell CellAt(const mammoth::mal::QueryResult& result, size_t col, size_t row);

/// Compares `got` with the oracle. With lower == upper (the same object
/// or equal contents) every column is checked exactly per its Check;
/// otherwise kSum columns must lie in [lower, upper], kAvg/kRankedId
/// columns are skipped and kKey columns must equal `lower`'s. Returns an
/// empty string when the result is right, else what differs.
std::string CheckResult(const mammoth::mal::QueryResult& got,
                        const std::vector<Check>& checks,
                        const Expected& lower, const Expected& upper);

/// Renders a value as a SQL literal.
std::string SqlInt(int64_t v);
std::string SqlStr(const std::string& s);

// --- oltp ---------------------------------------------------------------

struct OltpSizes {
  int customers = 100000;
  int lines_per_order = 5;
  int load_batch_rows = 1000;
};

struct OltpData {
  std::vector<std::string> name;
  std::vector<int64_t> balance;
  std::vector<int32_t> region;
};

OltpData MakeOltpData(uint64_t seed, const OltpSizes& sizes);
std::vector<std::string> OltpSchemaSql();
/// The multi-row INSERTs loading `customer`: how many, and the k-th.
/// They are rendered one at a time, so the load text is never held
/// whole.
size_t OltpLoadCount(const OltpSizes& sizes);
std::string OltpLoadSql(const OltpData& data, const OltpSizes& sizes,
                        size_t k);
/// User bytes of one customer row at its typed widths.
uint64_t CustomerRowBytes(const OltpData& data, int c_id);
/// User bytes of one order and of one order line (typed widths).
inline constexpr uint64_t kOrderRowBytes = 8 + 4 + 8;
inline constexpr uint64_t kLineRowBytes = 8 + 4 + 4 + 4;

inline constexpr char kPointReadSql[] =
    "SELECT c_id, c_name, c_balance FROM customer WHERE c_id = ?";
Expected PointReadExpected(const OltpData& data, int64_t c_id);
const std::vector<Check>& PointReadChecks();

/// One operation of an oltp connection: a prepared point read, or a
/// new-order transaction (its INSERTs, run between BEGIN and COMMIT).
struct OltpOp {
  bool is_read = true;
  int64_t c_id = 0;                 ///< read: the key looked up
  int64_t o_id = 0;                 ///< write: the new order's id
  int64_t total = 0;                ///< write: SUM(l_qty * price)
  std::vector<std::string> writes;  ///< write: INSERT orders, INSERT lines
  /// The operation as text (the statement or statements it sends).
  std::string Text() const;
};

/// The operation stream of connection `conn` out of `nconns`: ~90%
/// point reads, ~10% new orders. Order ids are conn, conn + nconns, ...
class OltpStream {
 public:
  OltpStream(uint64_t seed, int conn, int nconns, const OltpSizes& sizes);
  OltpOp Next();

 private:
  mammoth::Rng rng_;
  int conn_;
  int nconns_;
  OltpSizes sizes_;
  int64_t orders_ = 0;
};

// --- olap / htap --------------------------------------------------------

struct OlapSizes {
  int facts = 1000000;
  int days = 2556;  ///< 7 years of d_key
  int customers = 3000;
  int load_batch_rows = 2000;
  int instances = 32;  ///< query instances per kind
};

/// A set of lineorder rows, column-wise.
struct Facts {
  std::vector<int32_t> id, date, cust, qty, price, disc, revenue;
  std::vector<uint8_t> mode;  ///< index into ShipModes()
  size_t size() const { return id.size(); }
  void Append(int32_t id_, int32_t date_, int32_t cust_, int32_t qty_,
              int32_t price_, int32_t disc_, uint8_t mode_);
};

struct OlapData {
  OlapSizes sizes;
  Facts facts;
  std::vector<uint8_t> cust_nation;  ///< index into Nations()
};

const std::vector<std::string>& ShipModes();
const std::vector<std::string>& Nations();
const std::vector<std::string>& Regions();  ///< nation n is in region n/5

OlapData MakeOlapData(uint64_t seed, const OlapSizes& sizes);
std::vector<std::string> OlapSchemaSql();
/// The load: one INSERT per dimension table, then multi-row INSERTs of
/// the fact table. How many statements, and the k-th (rendered on
/// demand, as for oltp).
size_t OlapLoadCount(const OlapData& data);
std::string OlapLoadSql(const OlapData& data, size_t k);
inline constexpr char kCompressSql[] = "ALTER TABLE lineorder COMPRESS";
/// One multi-row INSERT of `rows` into lineorder.
std::string FactsInsertSql(const Facts& rows);
/// User bytes of one fact row at its typed widths.
uint64_t FactRowBytes(const Facts& facts, size_t i);

enum class QueryKind : uint8_t {
  kCount,
  kScanAgg,
  kJoinDates,
  kJoinCustomer,
  kGroupMode,
  kTopN,
};
inline constexpr int kQueryKinds = 6;
const char* KindName(QueryKind kind);

struct OlapQuery {
  QueryKind kind = QueryKind::kCount;
  int32_t date_lo = 0, date_hi = 0, disc_lo = 0, qty_below = 0, region = 0;
  std::string sql;
};

/// `sizes.instances` instances of every kind, kind-major.
std::vector<OlapQuery> MakeOlapQueries(uint64_t seed, const OlapSizes& sizes);
const std::vector<Check>& ChecksOf(QueryKind kind);
/// The answer over the union of `parts` (the loaded facts plus any
/// appended batches).
Expected Evaluate(const OlapQuery& q, const OlapData& data,
                  const std::vector<const Facts*>& parts);

/// Appended batches of the htap writers: `nbatches` batches of `rows`
/// rows with ids from data.sizes.facts on and dates in the last year.
std::vector<Facts> MakeAppendBatches(uint64_t seed, const OlapData& data,
                                     int nbatches, int rows);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
