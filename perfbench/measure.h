#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Measurement helpers of the end-to-end benchmark: the percentile rule,
// spans with self-time arithmetic, and the SERVER STATUS counter reader.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mal/interpreter.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Minimum number of samples that must lie beyond a reported high
/// percentile.
inline constexpr size_t kMinBeyond = 10;

/// A latency summary: the median and the highest percentile (at most
/// `want`) that keeps kMinBeyond samples beyond it, nearest-rank.
struct Tail {
  size_t n = 0;
  double p50 = 0;
  double high = 0;             ///< value at `high_pct`
  double high_pct = 0;         ///< the percentile actually reported
  size_t beyond = 0;           ///< samples strictly beyond it
};
Tail Summarize(std::vector<double> samples, double want = 99.0);
double Median(std::vector<double> samples);

/// One span: a timed call across a layer boundary.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0: a root
  uint64_t request = 0;  ///< spans of one request share it
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans of one thread, kept in memory until the run ends. Ids are
/// unique across logs with distinct `log_id`s.
class SpanLog {
 public:
  explicit SpanLog(uint32_t log_id) : next_(uint64_t{log_id} << 40) {}
  /// Opens a span and returns its id.
  uint64_t Begin(const char* name, uint64_t parent, uint64_t request);
  void End(uint64_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  uint64_t next_;
};

int64_t NowNs();

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children counted once).
std::map<uint64_t, int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Writes spans as CSV: id,parent,request,name,start_ns,end_ns,self_ns.
bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans);

/// SERVER STATUS as counter -> value.
using Counters = std::map<std::string, int64_t>;
Counters ParseStatus(const mammoth::mal::QueryResult& status);
/// after[name] - before[name] (0 when absent).
int64_t Delta(const Counters& before, const Counters& after,
              const std::string& name);

/// Bytes of every regular file under `dir`.
uint64_t DirBytes(const std::string& dir);
/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();
/// Current resident set size of this process in MiB (VmRSS).
double RssMb();
/// The first "cpu MHz" of /proc/cpuinfo (0 when unknown).
double CpuMhz();

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
