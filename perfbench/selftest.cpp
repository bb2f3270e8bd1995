// Self-tests of the harness's metric code (metrics.h): censoring of
// unfinished ops, the ">= 10 samples beyond" percentile rule, windowed
// percentiles, the recovery_s detector, the ladder's max_rate_ops_s, the
// /proc stat/schedstat parsing and the span recorder. Run through `python3 perfbench/run.py
// --selftest`; exits 1 on the first failed expectation.
#include <sys/syscall.h>
#include <unistd.h>

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "metrics.h"

namespace pb = perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_rule() {
  // 1000 samples: p99 is rank 990 with exactly 10 samples beyond it.
  pb::Pct p = pb::percentile(one_to(1000), 99);
  expect(near(p.value, 990) && near(p.pct, 99) && p.n == 1000, "p99 of 1000");
  // 500 samples: rank 495 would leave 5 beyond; the rule lowers it to
  // rank 490, i.e. p98.
  p = pb::percentile(one_to(500), 99);
  expect(near(p.value, 490) && near(p.pct, 98), "p99 of 500 falls back to p98");
  // The median is untouched while it has 10 beyond it.
  p = pb::percentile(one_to(100), 50);
  expect(near(p.value, 50) && near(p.pct, 50), "p50 of 100");
  // Too few samples for any rank with 10 beyond: the minimum.
  p = pb::percentile(one_to(8), 99);
  expect(near(p.value, 1) && p.n == 8, "p99 of 8 samples");
  expect(pb::percentile({}, 50).n == 0, "empty sample set");
}

void censoring() {
  // Deadline 100: a finished op (due 0, done 40), one finished after the
  // deadline (counts as unfinished, censored at its age 100 - 10), one
  // never finished (censored at 100 - 50) and one shed.
  pb::OpLog log;
  auto add = [&](std::int64_t due, std::int64_t issued, std::int64_t done,
                 pb::OpKind kind) {
    pb::OpRec& r = log.emplace_back();
    r.due = due;
    r.issued.store(issued);
    r.done.store(done);
    r.kind = kind;
  };
  add(0, 5, 40, pb::kRead);
  add(10, 10, 150, pb::kRead);
  add(50, 52, -1, pb::kWrite);
  add(60, -1, -1, pb::kWrite);
  add(20, 20, 90, pb::kSnap);
  pb::LogSummary s = pb::summarize(log, 100);
  expect(s.attempted == 5 && s.completed == 1, "completed counts read/write only");
  expect(s.unfinished == 2 && s.shed == 1, "unfinished and shed counts");
  expect(s.read_ms.size() == 2 && near(s.read_ms[0], 40e-6) &&
             near(s.read_ms[1], 90e-6),
         "late read censored at its age at the deadline");
  expect(s.write_ms.size() == 1 && near(s.write_ms[0], 50e-6),
         "open write censored at its age, shed write excluded");
  expect(s.snap_ms.size() == 1 && near(s.snap_ms[0], 70e-6), "snapshots kept apart");
  expect(s.lag_ms.size() == 4 && near(s.lag_ms[0], 5e-6), "generator lag");
  // A stall must show in the tail: 990 fast ops and 10 censored ones.
  std::vector<double> v(990, 1.0);
  v.insert(v.end(), 11, 5000.0);
  expect(near(pb::percentile(v, 99).value, 5000.0), "censored stall reaches p99");
}

void windows() {
  // Three windows of 1000 samples; the middle one holds a stall.
  std::vector<std::int64_t> due;
  std::vector<double> ms;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 1000; ++i) {
      due.push_back(w * 100 + i % 100);
      ms.push_back(w == 1 && i > 960 ? 50.0 : i / 1000.0);
    }
  }
  std::vector<pb::Pct> w = pb::window_percentiles(due, ms, 0, 300, 3, 99);
  pb::Pct p = pb::window_quantile(w, 0.5);
  expect(near(p.value, 0.99) && p.n == 3000 && near(p.pct, 99),
         "median over windows keeps one stalled window out");
  expect(near(pb::window_quantile(w, 1.0).value, 50.0) &&
             near(pb::window_quantile(w, 0.0).value, 0.99),
         "window quantile extremes");
  expect(pb::percentile(ms, 99).value == 50.0, "the pooled p99 sees the stall");
}

void recovery() {
  // Base p50 100 ms; limit 125 ms. Edge at t = 10 s. Windows 10-11 and
  // 11-12 have slow medians; the last slow op in them completes at 11.8.
  // A lone slow op at 30 s sits in a healthy window and is ignored.
  std::vector<pb::OpPoint> ops;
  for (int i = 0; i < 10; ++i) ops.push_back({10.0 + i * 0.09, 300});
  for (int i = 0; i < 10; ++i) ops.push_back({11.0 + i * 0.08, 200});
  for (int i = 0; i < 70; ++i) ops.push_back({12.0 + i * 0.3, 100});
  ops.push_back({30.0, 400});
  expect(near(pb::recovery_s(ops, 10.0, 100, 60), 11.72 - 10.0), "recovery_s episode end");
  std::vector<pb::OpPoint> calm = {{10.5, 100}, {11.5, 90}, {12.1, 400},
                                   {12.2, 100}, {12.3, 90}};
  expect(near(pb::recovery_s(calm, 10.0, 100, 60), 0), "no slow window, no recovery");
  expect(near(pb::recovery_s(ops, 10.0, 100, 1.5), 11.48 - 10.0),
         "horizon bounds the search");
}

void ladder() {
  std::vector<pb::LadderStep> steps = {
      {1000, 0, 0, 35}, {1500, 0, 0, 120}, {2000, 5, 0, 40}};
  expect(near(pb::max_rate(steps, 100), 1000), "p99 over the limit fails a step");
  steps[1].p99_ms = 90;
  expect(near(pb::max_rate(steps, 100), 1500), "highest passing step");
  steps[0].unfinished = 1;
  expect(near(pb::max_rate(steps, 100), 1500), "steps are judged independently");
  steps[1].shed = 1;
  expect(near(pb::max_rate(steps, 100), 0), "shed and unfinished fail steps");
}

void proc_parsing() {
  // comm holds a space and a ')'; fields 14/15 are utime/stime.
  std::string stat =
      "4242 (we ird) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 "
      "731 262 0 0 20 0 2 0 100 1000 10";
  auto t = pb::parse_task_stat(stat);
  expect(t && t->utime_ticks == 731 && t->stime_ticks == 262, "stat utime/stime");
  expect(!pb::parse_task_stat("4242 (x) S 1 2"), "truncated stat rejected");
  expect(!pb::parse_task_stat("4242 no parens"), "stat without comm rejected");
  auto s = pb::parse_schedstat("123456789 4567 89\n");
  expect(s && s->run_ns == 123456789 && s->wait_ns == 4567 && s->slices == 89,
         "schedstat fields");
  expect(!pb::parse_schedstat("12 x"), "malformed schedstat rejected");
  // The live files of this thread parse.
  std::string dir = "/proc/self/task/" + std::to_string(syscall(SYS_gettid)) + "/";
  expect(pb::parse_task_stat(pb::read_file(dir + "stat")).has_value(), "live stat");
  expect(pb::parse_schedstat(pb::read_file(dir + "schedstat")).has_value(),
         "live schedstat");
  expect(pb::peak_rss_mb() > 0, "VmHWM read");
}

void tracer() {
  pb::Tracer off(false);
  expect(off.add("x", 0, 1) == -1 && off.spans().empty(), "tracing off records nothing");
  pb::Tracer on(true);
  std::int32_t root = on.add("phase.a", 0, 10);
  on.add("op", 2'000'000, 5'000'000, root, 7, 3'000'000);
  const pb::Span& op = on.spans()[1];
  expect(on.spans().size() == 2 && op.parent == root && op.op == 7 &&
             op.aux == 3'000'000,
         "span parent, op id and issue stamp");
}

}  // namespace

int main() {
  percentile_rule();
  censoring();
  windows();
  recovery();
  ladder();
  proc_parsing();
  tracer();
  if (failures == 0) std::cout << "perfbench selftest: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
