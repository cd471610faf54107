#include "measure.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "workload.h"

namespace perfbench {

Tail Summarize(std::vector<double> samples, double want) {
  Tail t;
  t.n = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  t.p50 = samples[(t.n - 1) / 2];
  if (t.n <= kMinBeyond) {
    // No percentile keeps enough samples beyond it: report the median.
    t.high = t.p50;
    t.high_pct = 50.0;
    t.beyond = t.n - 1 - (t.n - 1) / 2;
    return t;
  }
  // Nearest rank: the value at index i covers (i + 1) / n of the samples
  // and has n - 1 - i beyond it.
  const size_t want_idx =
      static_cast<size_t>(std::ceil(want / 100.0 * static_cast<double>(t.n))) -
      1;
  const size_t idx = std::min(want_idx, t.n - 1 - kMinBeyond);
  t.high = samples[idx];
  // Lowered below `want`: report the percentile the kept rank covers.
  t.high_pct = idx == want_idx ? want
                               : 100.0 * static_cast<double>(idx + 1) /
                                     static_cast<double>(t.n);
  t.beyond = t.n - 1 - idx;
  return t;
}

double Median(std::vector<double> samples) { return Summarize(samples).p50; }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

uint64_t SpanLog::Begin(const char* name, uint64_t parent, uint64_t request) {
  Span s;
  s.id = ++next_;
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.start_ns = NowNs();
  spans_.push_back(s);
  return s.id;
}

void SpanLog::End(uint64_t id) {
  const int64_t now = NowNs();
  // The span being closed is almost always the newest open one.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = now;
      return;
    }
  }
}

std::map<uint64_t, int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const Span& s : spans) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<uint64_t, int64_t> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    self[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  const auto self = SelfTimesNs(spans);
  out << "id,parent,request,name,start_ns,end_ns,self_ns\n";
  for (const Span& s : spans) {
    out << s.id << ',' << s.parent << ',' << s.request << ',' << s.name << ','
        << s.start_ns << ',' << s.end_ns << ',' << self.at(s.id) << '\n';
  }
  return static_cast<bool>(out);
}

Counters ParseStatus(const mammoth::mal::QueryResult& status) {
  Counters c;
  for (size_t r = 0; r < status.RowCount(); ++r) {
    c[std::get<std::string>(CellAt(status, 0, r))] =
        std::get<int64_t>(CellAt(status, 1, r));
  }
  return c;
}

int64_t Delta(const Counters& before, const Counters& after,
              const std::string& name) {
  auto get = [&](const Counters& m) {
    auto it = m.find(name);
    return it == m.end() ? int64_t{0} : it->second;
  };
  return get(after) - get(before);
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

namespace {

/// The number after `key` on the first line of `path` that starts with it.
double ReadField(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const size_t pos = line.find_first_of("0123456789", key.size());
    return pos == std::string::npos ? 0 : std::stod(line.substr(pos));
  }
  return 0;
}

}  // namespace

double PeakRssMb() { return ReadField("/proc/self/status", "VmHWM:") / 1024; }

double RssMb() { return ReadField("/proc/self/status", "VmRSS:") / 1024; }

double CpuMhz() { return ReadField("/proc/cpuinfo", "cpu MHz"); }

}  // namespace perfbench
