// Metric code of the perfbench harness: the op log and its censoring at
// a deadline, percentiles (pooled and per window), the recovery
// detector, the rate ladder, /proc thread accounting and the in-memory
// span store. Header-only and free of any wrs dependency so selftest.cpp
// can pin every rule on hand-made inputs.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A percentile as reported: its value, the percentile it really is, and
/// the sample count it came from.
struct Pct {
  double value = 0;
  double pct = 0;
  std::size_t n = 0;
};

/// Nearest-rank percentile `p` of `samples`, held to the rule that a
/// reported percentile has at least `beyond` samples above it. When `p`
/// would leave fewer, the highest percentile that keeps `beyond` samples
/// above it is reported instead (and named in Pct::pct). Below
/// `beyond` + 1 samples no rank qualifies and the minimum is reported.
/// Censored samples (ops unfinished at a deadline, entered at their age)
/// are ordinary samples here: a censored age is a lower bound, so it can
/// only move a percentile up, never hide a stall.
inline Pct percentile(std::vector<double> samples, double p,
                      std::size_t beyond = 10) {
  Pct out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < beyond) rank = n > beyond ? n - beyond : 1;
  out.value = samples[rank - 1];
  out.pct = std::min(p, 100.0 * static_cast<double>(rank) /
                            static_cast<double>(n));
  return out;
}

/// One completed op on the deployment clock, for the recovery detector.
struct OpPoint {
  double done_s = 0;      ///< completion time, seconds
  double latency_ms = 0;  ///< from the op's intended start
};

/// recovery_s: seconds from `edge_s` (the end of a slowdown) until the
/// last op slower than `factor` x `base_ms` (the pre-slowdown op p50)
/// completes. A healthy run always has some such ops in its tail, so
/// only ops inside the episode count: those completing in a `window_s`
/// window (counted from the edge) whose median op is itself slower than
/// the limit, within `horizon_s` of the edge. 0 when no window is slow.
inline double recovery_s(const std::vector<OpPoint>& ops, double edge_s,
                         double base_ms, double horizon_s,
                         double factor = 1.25, double window_s = 1.0) {
  const double limit = factor * base_ms;
  const auto windows = static_cast<std::size_t>(std::ceil(horizon_s / window_s));
  std::vector<std::vector<double>> lat(windows);
  for (const OpPoint& op : ops) {
    if (op.done_s < edge_s || op.done_s >= edge_s + horizon_s) continue;
    auto w = static_cast<std::size_t>((op.done_s - edge_s) / window_s);
    if (w < windows) lat[w].push_back(op.latency_ms);
  }
  std::vector<bool> slow(windows, false);
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double>& v = lat[w];
    if (v.empty()) continue;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    slow[w] = v[v.size() / 2] > limit;
  }
  double last = edge_s;
  for (const OpPoint& op : ops) {
    if (op.done_s < edge_s || op.done_s >= edge_s + horizon_s) continue;
    auto w = static_cast<std::size_t>((op.done_s - edge_s) / window_s);
    if (w < windows && slow[w] && op.latency_ms > limit) {
      last = std::max(last, op.done_s);
    }
  }
  return last - edge_s;
}

enum OpKind : std::uint8_t { kRead, kWrite, kSnap };

/// One arrival of an open- or closed-loop generator. `issued` and `done`
/// are atomic because on the socket runtime the transport loop thread
/// fills them while the driver thread owns the log.
struct OpRec {
  std::int64_t due = 0;
  std::atomic<std::int64_t> issued{-1};  ///< -1: shed, never issued
  std::atomic<std::int64_t> done{-1};    ///< -1: unfinished
  OpKind kind = kRead;
};
/// A deque: records never move, so callbacks keep pointers into it.
using OpLog = std::deque<OpRec>;

/// An OpLog read at a deadline: latencies from each op's intended start
/// (unfinished ops censored at their age), counts and generator lag.
struct LogSummary {
  std::vector<double> read_ms, write_ms, op_ms, snap_ms, lag_ms;
  std::vector<std::int64_t> read_due, write_due;  ///< parallel to *_ms
  std::vector<OpPoint> points;  ///< completed read/write ops
  std::size_t attempted = 0, completed = 0, shed = 0, unfinished = 0;
};

inline LogSummary summarize(const OpLog& log, std::int64_t deadline) {
  LogSummary s;
  for (const OpRec& r : log) {
    ++s.attempted;
    std::int64_t issued = r.issued.load(std::memory_order_acquire);
    std::int64_t done = r.done.load(std::memory_order_acquire);
    if (issued < 0) {
      ++s.shed;
      continue;
    }
    s.lag_ms.push_back((issued - r.due) / 1e6);
    bool finished = done >= 0 && done <= deadline;
    double ms = ((finished ? done : deadline) - r.due) / 1e6;
    if (!finished) ++s.unfinished;
    if (r.kind == kSnap) {
      s.snap_ms.push_back(ms);
      continue;
    }
    (r.kind == kRead ? s.read_ms : s.write_ms).push_back(ms);
    (r.kind == kRead ? s.read_due : s.write_due).push_back(r.due);
    s.op_ms.push_back(ms);
    if (finished) {
      ++s.completed;
      s.points.push_back({done / 1e9, ms});
    }
  }
  return s;
}

/// The p-th percentile of each of `windows` equal windows of [from, to),
/// samples placed by their due time; empty windows are skipped.
inline std::vector<Pct> window_percentiles(const std::vector<std::int64_t>& due,
                                           const std::vector<double>& ms,
                                           std::int64_t from, std::int64_t to,
                                           std::size_t windows, double p) {
  std::vector<std::vector<double>> by(windows);
  const double width = static_cast<double>(to - from) / static_cast<double>(windows);
  for (std::size_t i = 0; i < due.size() && i < ms.size(); ++i) {
    if (due[i] < from || due[i] >= to) continue;
    auto w = static_cast<std::size_t>(static_cast<double>(due[i] - from) / width);
    by[std::min(w, windows - 1)].push_back(ms[i]);
  }
  std::vector<Pct> out;
  for (const std::vector<double>& v : by) {
    if (!v.empty()) out.push_back(percentile(v, p));
  }
  return out;
}

/// The q-quantile (nearest rank) over window percentiles. Pct::n is the
/// total sample count, Pct::pct the lowest percentile any window could
/// report.
inline Pct window_quantile(const std::vector<Pct>& windows, double q) {
  Pct out;
  if (windows.empty()) return out;
  std::vector<double> values;
  out.pct = 100;
  for (const Pct& w : windows) {
    values.push_back(w.value);
    out.n += w.n;
    out.pct = std::min(out.pct, w.pct);
  }
  std::sort(values.begin(), values.end());
  out.value = values[static_cast<std::size_t>(
      std::lround(q * static_cast<double>(values.size() - 1)))];
  return out;
}

/// One step of an offered-rate ladder.
struct LadderStep {
  double rate = 0;              ///< offered ops/s, all clients together
  std::size_t shed = 0;         ///< arrivals dropped at the in-flight cap
  std::size_t unfinished = 0;   ///< ops still open at the step's deadline
  double p99_ms = 0;            ///< corrected op p99 (censored included)
};

/// max_rate_ops_s: the highest step with no shed op, no op unfinished at
/// the deadline and corrected op p99 <= `p99_limit_ms`; 0 when none.
inline double max_rate(const std::vector<LadderStep>& steps,
                       double p99_limit_ms) {
  double best = 0;
  for (const LadderStep& s : steps) {
    if (s.shed == 0 && s.unfinished == 0 && s.p99_ms <= p99_limit_ms) {
      best = std::max(best, s.rate);
    }
  }
  return best;
}

/// CPU times of one thread from /proc/<pid>/task/<tid>/stat.
struct TaskStat {
  std::uint64_t utime_ticks = 0;
  std::uint64_t stime_ticks = 0;
};

/// Parses a stat line. The command name is parenthesized and may itself
/// hold spaces and ')', so fields are counted from the LAST ')'. utime
/// and stime are fields 14 and 15 of the line (11 and 12 after it).
inline std::optional<TaskStat> parse_task_stat(std::string_view text) {
  std::size_t close = text.rfind(')');
  if (close == std::string_view::npos) return std::nullopt;
  std::istringstream in{std::string(text.substr(close + 1))};
  std::string field;
  TaskStat out;
  for (int i = 3; i <= 15; ++i) {
    if (!(in >> field)) return std::nullopt;
    if (i == 14 || i == 15) {
      char* end = nullptr;
      std::uint64_t v = std::strtoull(field.c_str(), &end, 10);
      if (end == field.c_str() || *end != '\0') return std::nullopt;
      (i == 14 ? out.utime_ticks : out.stime_ticks) = v;
    }
  }
  return out;
}

/// /proc/<pid>/task/<tid>/schedstat: on-CPU ns, run-queue wait ns,
/// timeslices.
struct SchedStat {
  std::uint64_t run_ns = 0;
  std::uint64_t wait_ns = 0;
  std::uint64_t slices = 0;
};

inline std::optional<SchedStat> parse_schedstat(std::string_view text) {
  std::istringstream in{std::string(text)};
  SchedStat out;
  if (!(in >> out.run_ns >> out.wait_ns >> out.slices)) return std::nullopt;
  return out;
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// VmHWM of this process in MiB (0 when /proc is unreadable).
inline double peak_rss_mb() {
  std::istringstream in(read_file("/proc/self/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// One span: a named interval on some clock, its parent span (-1 for a
/// root) and the op it belongs to (0 for none). `aux` holds one extra
/// time stamp where a span has one (an op span's issue time).
struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t aux = -1;
  std::int32_t parent = -1;
  std::uint64_t op = 0;
};

/// Spans kept in memory and written out once at exit. Recording is a
/// no-op when tracing is off, so the untraced run pays one branch. On
/// the socket runtime the transport loop thread records op spans while
/// the driver thread records phase spans, hence the lock.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }
  bool on() const { return on_; }

  /// Records a span; returns its index (usable as a parent), -1 when off.
  std::int32_t add(const char* name, std::int64_t start, std::int64_t end,
                   std::int32_t parent = -1, std::uint64_t op = 0,
                   std::int64_t aux = -1) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start, end, aux, parent, op});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  /// The recorded spans; call once no thread records any more.
  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: name, start, end, parent, op, aux.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start\":" << s.start
          << ",\"end\":" << s.end << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op << ",\"aux\":" << s.aux << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool on_;
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench
