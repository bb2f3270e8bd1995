// perfbench harness: one repetition of one workload through the public
// wrs::Cluster API, printed as one JSON line. perfbench/run.py builds this
// binary, runs repetitions until its time is up and reduces them to
// medians; see perfbench/README.md for the metrics and the workloads.
//
//   perfbench_harness --workload geo-adapt|shard-mix|loopback-rw
//                     --seed N [--trace 0|1] [--spans FILE]
//
// The sim workloads (geo-adapt, shard-mix) report simulated time, so a
// protocol change shows exactly; loopback-rw reports wall time and CPU.
// Every repetition checks correctness (check_atomicity over the recorded
// history, the reassignment invariants on geo-adapt, preloaded keys on
// the others) and exits 1 when a check fails.
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <dirent.h>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/cluster.h"
#include "core/change.h"
#include "metrics.h"
#include "net/encode_arena.h"
#include "net/wire_codec.h"
#include "quorum/wmqs.h"
#include "runtime/socket_env.h"
#include "storage/abd_messages.h"
#include "storage/history.h"

namespace pb = perfbench;
using namespace wrs;
using pb::LogSummary;
using pb::OpLog;
using pb::OpRec;
using pb::kRead;
using pb::kSnap;
using pb::kWrite;

namespace {

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU (user + sys, all threads), seconds.
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- result ------------------------------------------------------------------

struct Result {
  std::map<std::string, double> metrics;
  std::map<std::string, pb::Pct> pcts;
  std::vector<std::string> errors;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void set(const std::string& name, double v) { metrics[name] = v; }
  void set_pct(const std::string& name, const pb::Pct& p) {
    metrics[name] = p.value;
    pcts[name] = p;
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out += ch;
  }
  return out;
}

void print_result(const std::string& workload, const Result& r) {
  std::ostringstream o;
  o.precision(10);
  o << "{\"workload\":\"" << workload << "\",\"correct\":"
    << (r.errors.empty() ? "true" : "false") << ",\"attempted\":"
    << r.attempted << ",\"failed\":" << r.failed << ",\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    o << (i ? "," : "") << '"' << json_escape(r.errors[i]) << '"';
  }
  o << "],\"metrics\":{";
  bool first = true;
  for (const auto& [k, v] : r.metrics) {
    o << (first ? "" : ",") << '"' << k << "\":" << v;
    first = false;
  }
  o << "},\"samples\":{";
  first = true;
  for (const auto& [k, p] : r.pcts) {
    o << (first ? "" : ",") << '"' << k << "\":{\"n\":" << p.n
      << ",\"pct\":" << p.pct << '}';
    first = false;
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

/// Registers the e2e latency metrics of a summary.
void latency_metrics(Result& r, const LogSummary& s) {
  r.set_pct("read_p50_ms", pb::percentile(s.read_ms, 50));
  r.set_pct("read_p99_ms", pb::percentile(s.read_ms, 99));
  r.set_pct("write_p50_ms", pb::percentile(s.write_ms, 50));
  r.set_pct("write_p99_ms", pb::percentile(s.write_ms, 99));
}

/// Workload-layer metrics of a summary.
void workload_metrics(Result& r, const LogSummary& s, std::size_t max_inflight) {
  r.set_pct("workload.gen_lag_p99_ms", pb::percentile(s.lag_ms, 99));
  r.set("workload.in_flight_max", static_cast<double>(max_inflight));
  r.set("workload.shed", static_cast<double>(s.shed));
  r.set("workload.unfinished", static_cast<double>(s.unfinished));
}

RegisterKey key_name(std::size_t i) { return "k" + std::to_string(i); }

Value make_value(std::uint32_t client, std::uint64_t seq, std::size_t size) {
  // Unique per write: check_atomicity identifies writes by value.
  Value v = "c" + std::to_string(client) + "#" + std::to_string(seq);
  if (v.size() < size) v.resize(size, 'x');
  return v;
}

/// Sum of counters whose name is in `types` ("msg.<TYPE>").
std::int64_t type_msgs(const Counters& c, std::initializer_list<const char*> types) {
  std::int64_t sum = 0;
  for (const char* t : types) sum += c.get(std::string("msg.") + t);
  return sum;
}

Counters counters_delta(const Counters& now, const Counters& before) {
  Counters d;
  for (const auto& [k, v] : now.map()) d.inc(k, v - before.get(k));
  return d;
}

/// Writes k0..k<keys-1> through client 0 with `window` writes outstanding
/// and waits until all are acknowledged (works on every runtime).
struct Preload {
  ShardRouter* router;
  ProcessId pid;
  HistoryRecorder* history;
  Env* env;
  std::size_t keys, value_size;
  Await<bool> all;
  std::size_t next = 0, done = 0;

  /// Callbacks hold the shared_ptr: on the socket runtime the last one
  /// may still be running when the waiting thread returns.
  static void issue(const std::shared_ptr<Preload>& st) {
    std::size_t i = st->next++;
    RegisterKey key = key_name(i);
    Value v = make_value(0xFFFF, i, st->value_size);
    std::size_t token =
        st->history->begin(OpRecord::Kind::kWrite, st->pid, st->env->now(), key);
    st->router->write(key, v, [st, token, v](const Tag& tag) {
      st->history->end_write(token, st->env->now(), tag, v);
      if (st->next < st->keys) issue(st);
      if (++st->done == st->keys) st->all.fulfill(true);
    });
  }
};

void preload(Cluster& c, std::size_t keys, std::size_t value_size,
             std::size_t window, HistoryRecorder& history) {
  ClientHandle client = c.client(0);
  auto st = std::make_shared<Preload>(Preload{&client.router(), client.id(),
                                              &history, &c.env(), keys,
                                              value_size, c.make_await<bool>()});
  c.post(client.id(), [st, window] {
    for (std::size_t i = 0; i < window && st->next < st->keys; ++i) {
      Preload::issue(st);
    }
  });
  if (!st->all.try_get(seconds(600)).has_value()) {
    throw std::runtime_error("preload did not finish");
  }
}

/// Keys `list_keys()` is missing out of the preloaded k0..k<n-1>.
std::size_t missing_preloaded(Cluster& c, std::size_t n) {
  auto keys = c.client(0).list_keys().try_get(seconds(120));
  if (!keys) return n;
  std::set<RegisterKey> have(keys->begin(), keys->end());
  std::size_t missing = 0;
  for (std::size_t i = 0; i < n; ++i) missing += have.count(key_name(i)) == 0;
  return missing;
}

void check_history(Result& r, const HistoryRecorder& h, const std::string& what) {
  if (auto bad = check_atomicity(h.completed())) {
    r.errors.push_back(what + ": " + *bad);
  }
}

// --- sim open loop -------------------------------------------------------------

struct LoadParams {
  std::uint32_t clients = 1;
  double rate_per_client = 1;
  std::size_t num_keys = 1;
  double read_ratio = 0.5;
  std::size_t value_size = 64;
  std::size_t max_in_flight = 64;
  std::size_t snapshot_every = 0;  ///< 0: no snapshots
  std::size_t snapshot_keys = 8;
};

/// Open-loop clients on the simulator: each client's arrivals tick on a
/// fixed clock, an arrival finding `max_in_flight` ops open is shed, and
/// every op is timed from its tick. Snapshots ride along every
/// `snapshot_every` completed ops, as WorkloadClient mixes them in.
class SimLoad {
 public:
  SimLoad(Cluster& c, LoadParams p, std::uint64_t seed, HistoryRecorder& h,
          pb::Tracer& tracer)
      : c_(c), p_(p), history_(h), tracer_(tracer) {
    for (std::uint32_t k = 0; k < p.clients; ++k) {
      ClientHandle handle = c.client(k);
      clients_.push_back(
          Client{handle.id(), &handle.router(), Rng(seed * 7919 + k), 0, 0, 0});
    }
  }

  /// Arrivals tick over [t0, until); the caller drives the simulator.
  void start(TimeNs t0, TimeNs until) {
    t0_ = t0;
    until_ = until;
    for (std::uint32_t k = 0; k < clients_.size(); ++k) schedule(k, 0);
  }

  /// Stops snapshot mixing after the deadline (arrivals stop by themselves).
  void stop() { stopped_ = true; }

  const OpLog& log() const { return log_; }
  std::size_t max_in_flight() const { return max_seen_; }

 private:
  struct Client {
    ProcessId pid;
    ShardRouter* router;
    Rng rng;
    std::size_t in_flight;
    std::size_t since_snap;
    std::uint64_t seq;
  };

  TimeNs due_of(std::uint64_t tick) const {
    return t0_ + static_cast<TimeNs>(std::llround(
                     static_cast<double>(tick) * 1e9 / p_.rate_per_client));
  }

  void schedule(std::uint32_t k, std::uint64_t tick) {
    TimeNs due = due_of(tick);
    if (due >= until_) return;
    c_.env().schedule(clients_[k].pid, due - c_.now(),
                      [this, k, tick, due] { arrive(k, tick, due); });
  }

  void arrive(std::uint32_t k, std::uint64_t tick, TimeNs due) {
    Client& cl = clients_[k];
    OpRec& rec = log_.emplace_back();
    rec.due = due;
    rec.kind = cl.rng.uniform() < p_.read_ratio ? kRead : kWrite;
    if (cl.in_flight >= p_.max_in_flight) {
      schedule(k, tick + 1);  // shed: the record stays un-issued
      return;
    }
    issue(k, rec);
    schedule(k, tick + 1);
  }

  void issue(std::uint32_t k, OpRec& rec) {
    Client& cl = clients_[k];
    TimeNs now = c_.now();
    rec.issued.store(now);
    ++cl.in_flight;
    max_seen_ = std::max(max_seen_, cl.in_flight);
    RegisterKey key = key_name(cl.rng.below(p_.num_keys));
    std::uint64_t op = log_.size();
    if (rec.kind == kRead) {
      std::size_t token = history_.begin(OpRecord::Kind::kRead, cl.pid, now, key);
      cl.router->read(key, [this, k, &rec, token, op](const TaggedValue& tv) {
        history_.end_read(token, c_.now(), tv);
        done(k, rec, op);
      });
    } else {
      Value v = make_value(k, cl.seq++, p_.value_size);
      std::size_t token = history_.begin(OpRecord::Kind::kWrite, cl.pid, now, key);
      cl.router->write(key, v, [this, k, &rec, token, op, v](const Tag& tag) {
        history_.end_write(token, c_.now(), tag, v);
        done(k, rec, op);
      });
    }
  }

  void done(std::uint32_t k, OpRec& rec, std::uint64_t op) {
    Client& cl = clients_[k];
    TimeNs now = c_.now();
    rec.done.store(now);
    --cl.in_flight;
    tracer_.add("op", rec.due, now, -1, op, rec.issued.load());
    if (rec.kind == kSnap || p_.snapshot_every == 0 || stopped_) return;
    if (++cl.since_snap < p_.snapshot_every) return;
    cl.since_snap = 0;
    snapshot(k);
  }

  void snapshot(std::uint32_t k) {
    Client& cl = clients_[k];
    std::set<RegisterKey> keys;
    std::size_t want = std::min(p_.snapshot_keys, p_.num_keys);
    while (keys.size() < want) keys.insert(key_name(cl.rng.below(p_.num_keys)));
    OpRec& rec = log_.emplace_back();
    TimeNs now = c_.now();
    rec.due = now;
    rec.kind = kSnap;
    rec.issued.store(now);
    ++cl.in_flight;
    std::uint64_t op = log_.size();
    std::size_t token = history_.begin_snapshot(cl.pid, now);
    cl.router->snapshot(
        std::vector<RegisterKey>(keys.begin(), keys.end()),
        [this, k, &rec, token, op](const ShardRouter::SnapshotResult& res) {
          history_.end_snapshot(token, c_.now(), res.cut);
          TimeNs end = c_.now();
          rec.done.store(end);
          --clients_[k].in_flight;
          tracer_.add("snapshot", rec.due, end, -1, op);
        });
  }

  Cluster& c_;
  LoadParams p_;
  HistoryRecorder& history_;
  pb::Tracer& tracer_;
  std::vector<Client> clients_;
  OpLog log_;
  TimeNs t0_ = 0, until_ = 0;
  std::size_t max_seen_ = 0;
  bool stopped_ = false;
};

// --- geo-adapt -----------------------------------------------------------------

constexpr TimeNs kGeoWarmup = seconds(20);
constexpr TimeNs kGeoMeasure = seconds(180);
constexpr TimeNs kGeoSlowFrom = seconds(60);
constexpr TimeNs kGeoSlowTo = seconds(120);
constexpr double kGeoSlowFactor = 4.0;
/// Arrivals stop at the end of the measured window; ops still open this
/// long after it are unfinished.
constexpr TimeNs kGeoGrace = seconds(5);

/// RTT of the cheapest weighted quorum from site 0: servers joined in
/// order of their RTT from the client site (times their slow factor)
/// until their weight forms a quorum; the RTT of the last one joined.
double ideal_quorum_rtt_ms(const WanProfile& wan, const WeightMap& w,
                           const std::vector<double>& slow) {
  Wmqs q(w);
  std::vector<std::pair<double, ProcessId>> by_rtt;
  for (ProcessId s : w.servers()) {
    by_rtt.push_back({wan.rtt_ms[0][s % wan.sites.size()] * slow[s], s});
  }
  std::sort(by_rtt.begin(), by_rtt.end());
  std::vector<ProcessId> members;
  for (const auto& [rtt, s] : by_rtt) {
    members.push_back(s);
    if (q.is_quorum(members)) return rtt;
  }
  return by_rtt.empty() ? 0 : by_rtt.back().first;
}

Result geo_adapt(std::uint64_t seed, pb::Tracer& tracer) {
  Result r;
  const std::uint32_t n = 5, f = 1;
  const WanProfile wan = wan5_profile();
  HistoryRecorder history;

  std::int64_t w0 = wall_ns();
  AdaptiveParams ap;  // EXP-L1's dynamic deployment
  ap.probe_interval = ms(250);
  ap.eval_interval = ms(500);
  ap.step = Weight(1, 10);
  ap.slow_factor = 1.25;
  Cluster c = Cluster::builder()
                  .servers(n)
                  .faults(f)
                  .wan(wan, /*client_site=*/0)
                  .adaptive(ap)
                  .clients(2)
                  .seed(seed)
                  .build();
  std::int64_t w1 = wall_ns();
  c.run_for(kGeoWarmup);
  std::int64_t w2 = wall_ns();
  tracer.add("setup.build", w0, w1);
  tracer.add("setup.warmup", w1, w2);
  r.set("api.build_s", (w1 - w0) / 1e9);
  r.set("api.preload_s", 0);
  r.set("setup_s", (w2 - w0) / 1e9);

  LoadParams lp;
  lp.clients = 2;
  lp.rate_per_client = 40;
  lp.num_keys = 64;
  lp.value_size = 64;
  SimLoad load(c, lp, seed, history, tracer);

  const TimeNs t0 = c.now();
  const Counters traffic0 = c.traffic();
  std::uint64_t transfers0 = 0;
  for (ProcessId s = 0; s < n; ++s) transfers0 += c.adaptive_node(s).transfers_issued();
  const double cpu0 = process_cpu_s();
  load.start(t0, t0 + kGeoMeasure);

  const ProcessId observer = 2;  // saopaulo: never slowed
  const Weight total0 = Weight(static_cast<std::int64_t>(n));
  const Weight floor = rp_integrity_floor(total0, n, f);
  std::vector<double> slow(n, 1.0);
  double quorum_size_sum = 0, ideal_rtt_sum = 0;
  std::size_t samples = 0, bad_samples = 0, unsettled_samples = 0;
  std::vector<double> rc_ms;
  std::size_t rc_issued = 0;
  double reaction_s = -1;
  Weight slowed_weight_at_edge;
  ChangeSet last_changes;

  // 100 ms steps: weight polling for the monitor's reaction time; every
  // tenth step is the 1 Hz weights_snapshot()/read_changes() pair.
  const TimeNs step = ms(100);
  for (TimeNs at = 0; at < kGeoMeasure; at += step) {
    if (at == kGeoSlowFrom) {
      c.slow(0, kGeoSlowFactor);
      c.slow(1, kGeoSlowFactor);
      slow[0] = slow[1] = kGeoSlowFactor;
      slowed_weight_at_edge = c.server(observer).weight_of(0) +
                              c.server(observer).weight_of(1);
    }
    if (at == kGeoSlowTo) {
      c.clear_slow(0);
      c.clear_slow(1);
      slow[0] = slow[1] = 1.0;
    }
    if (at > kGeoSlowFrom && reaction_s < 0 &&
        c.server(observer).weight_of(0) + c.server(observer).weight_of(1) !=
            slowed_weight_at_edge) {
      reaction_s = (at - kGeoSlowFrom) / 1e9;
    }
    if (at % seconds(1) == 0) {
      // Conservation holds over SETTLED state: the initial grants plus
      // every transfer both of whose halves the observer holds (a sample
      // may catch one half of a transfer in flight).
      ReassignNode* node = &c.server(observer).node();
      c.post(observer, [&, node] {
        Weight settled;
        const ChangeSet& cs = node->changes();
        for (const Change& ch : cs.all()) {
          if (ch.counter() == kInitialChangeCounter ||
              cs.count_pair(ch.issuer(), ch.counter()) == 2) {
            settled += ch.delta;
          }
        }
        if (settled != total0) ++unsettled_samples;
      });
      TimeNs issued = c.now();
      std::vector<double> slow_now = slow;
      c.server(observer).weights_snapshot().on_ready(
          [&, issued, slow_now](const WeightMap& w) {
            tracer.add("core.weights_snapshot", issued, c.now());
            ++samples;
            for (ProcessId s : w.servers()) bad_samples += !(w.of(s) > floor);
            quorum_size_sum += static_cast<double>(Wmqs(w).min_quorum_size());
            ideal_rtt_sum += ideal_quorum_rtt_ms(wan, w, slow_now);
          });
      ++rc_issued;
      c.server(observer).read_changes(0).on_ready(
          [&, issued](const ChangeSet& cs) {
            TimeNs end = c.now();
            tracer.add("core.read_changes", issued, end);
            rc_ms.push_back((end - issued) / 1e6);
            last_changes = cs;
          });
    }
    c.run_for(step);
  }
  c.run_for(kGeoGrace);
  const TimeNs deadline = t0 + kGeoMeasure + kGeoGrace;
  load.stop();
  const double cpu1 = process_cpu_s();
  const Counters traffic = counters_delta(c.traffic(), traffic0);
  std::uint64_t transfers = 0;
  for (ProcessId s = 0; s < n; ++s) transfers += c.adaptive_node(s).transfers_issued();
  transfers -= transfers0;
  tracer.add("phase.measure", t0, deadline);

  LogSummary s = pb::summarize(load.log(), deadline);
  const double done_ops = static_cast<double>(s.completed);
  r.attempted = s.attempted;
  r.failed = s.shed + s.unfinished;
  r.set("throughput_ops_s", done_ops / (kGeoMeasure / 1e9));
  latency_metrics(r, s);
  r.set("msgs_per_op", ratio(traffic.get("msgs"), done_ops));
  r.set("bytes_per_op", ratio(traffic.get("bytes"), done_ops));
  r.set("cpu_per_op_us", ratio((cpu1 - cpu0) * 1e6, done_ops));

  // recovery_s: the slowdown's end edge against the pre-slowdown op p50.
  std::vector<double> pre;
  const double t0_s = t0 / 1e9;
  for (const pb::OpPoint& p : s.points) {
    if (p.done_s < t0_s + kGeoSlowFrom / 1e9) pre.push_back(p.latency_ms);
  }
  const double base_ms = pb::percentile(pre, 50).value;
  r.set("recovery_s", pb::recovery_s(s.points, t0_s + kGeoSlowTo / 1e9, base_ms,
                                     (kGeoMeasure - kGeoSlowTo) / 1e9));
  r.set("failed_ratio", ratio(static_cast<double>(r.failed),
                              static_cast<double>(r.attempted)));
  workload_metrics(r, s, load.max_in_flight());

  // storage
  ShardRouter& r0 = c.client(0).router();
  ShardRouter& r1 = c.client(1).router();
  r.set("storage.restarts_per_op", ratio(r0.restarts() + r1.restarts(), done_ops));
  r.set("storage.retransmits", static_cast<double>(r0.retransmits() + r1.retransmits()));
  r.set("storage.phase_msgs_per_op",
        ratio(type_msgs(traffic, {"R", "R_A", "W", "W_A"}), done_ops));
  std::uint64_t hits_max = 0, hits_sum = 0;
  for (ProcessId sv = 0; sv < n; ++sv) {
    std::uint64_t h = c.adaptive_node(sv).storage().server().hits_total();
    hits_max = std::max(hits_max, h);
    hits_sum += h;
  }
  r.set("storage.hits_max_share", ratio(hits_max, hits_sum));

  // quorum, core, monitor
  r.set("quorum.min_quorum_size", ratio(quorum_size_sum, samples));
  r.set("quorum.ideal_rtt_ms", ratio(ideal_rtt_sum, samples));
  r.set("core.transfers", static_cast<double>(transfers));
  r.set("core.msgs_per_transfer",
        ratio(type_msgs(traffic, {"T", "T_ACK", "RB", "WC", "WC_ACK", "SYNC"}),
              static_cast<double>(transfers)));
  r.set_pct("core.read_changes_p50_ms", pb::percentile(rc_ms, 50));
  r.set_pct("core.read_changes_p99_ms", pb::percentile(rc_ms, 99));
  r.set("core.change_set_entries", static_cast<double>(last_changes.size()));
  r.set("monitor.msgs_per_s",
        type_msgs(traffic, {"PING", "PONG", "RTT_REPORT"}) /
            ((kGeoMeasure + kGeoGrace) / 1e9));
  r.set("monitor.reaction_s", reaction_s < 0 ? (kGeoSlowTo - kGeoSlowFrom) / 1e9
                                             : reaction_s);

  // correctness
  r.check(samples == rc_issued && rc_ms.size() == rc_issued,
          "geo-adapt: a weights_snapshot/read_changes call never resolved");
  r.check(bad_samples == 0, "geo-adapt: " + std::to_string(bad_samples) +
                                " sampled weights at or below the RP-Integrity floor");
  r.check(unsettled_samples == 0,
          "geo-adapt: " + std::to_string(unsettled_samples) +
              " samples whose settled change set does not conserve weight");
  check_history(r, history, "geo-adapt");
  return r;
}

// --- shard-mix -------------------------------------------------------------------

constexpr double kLadder[] = {1000, 1500, 2000};
constexpr TimeNs kStepLength = seconds(30);
constexpr TimeNs kStepGrace = seconds(2);
constexpr std::size_t kMixKeys = 256;
constexpr double kP99LimitMs = 100;

Result shard_mix(std::uint64_t seed, pb::Tracer& tracer) {
  Result r;
  std::vector<pb::LadderStep> steps;
  std::vector<double> setups;
  bool nominal = true;
  for (double rate : kLadder) {
    HistoryRecorder history;
    std::int64_t w0 = wall_ns();
    ClusterBuilder b = Cluster::builder()
                           .servers(3)
                           .faults(1)
                           .shards(4)
                           .clients(4)
                           .service_time(ms(1))
                           .rebalance()
                           .seed(seed + static_cast<std::uint64_t>(rate));
    b.uniform_latency(us(100), us(500));
    Cluster c = b.build();
    std::int64_t w1 = wall_ns();
    preload(c, kMixKeys, 64, 64, history);
    std::int64_t w2 = wall_ns();
    setups.push_back((w2 - w0) / 1e9);
    std::int32_t phase = tracer.add("phase.step", c.now(), c.now() + kStepLength);
    tracer.add("setup.build", w0, w1, phase);
    tracer.add("setup.preload", w1, w2, phase);
    if (nominal) {
      r.set("api.build_s", (w1 - w0) / 1e9);
      r.set("api.preload_s", (w2 - w1) / 1e9);
    }

    LoadParams lp;
    lp.clients = 4;
    lp.rate_per_client = rate / 4;
    lp.num_keys = kMixKeys;
    lp.value_size = 64;
    lp.snapshot_every = 25;
    lp.snapshot_keys = 8;
    SimLoad load(c, lp, seed, history, tracer);
    const Counters traffic0 = c.traffic();
    const double cpu0 = process_cpu_s();
    const TimeNs t0 = c.now();
    load.start(t0, t0 + kStepLength);
    c.run_for(kStepLength + kStepGrace);
    load.stop();
    const TimeNs deadline = t0 + kStepLength + kStepGrace;
    const double cpu1 = process_cpu_s();
    const Counters traffic = counters_delta(c.traffic(), traffic0);

    LogSummary s = pb::summarize(load.log(), deadline);
    steps.push_back({rate, s.shed, s.unfinished, pb::percentile(s.op_ms, 99).value});
    if (!nominal) {
      check_history(r, history, "shard-mix @" + std::to_string(int(rate)));
      continue;
    }
    nominal = false;
    const double done_ops = static_cast<double>(s.completed);
    r.attempted = s.attempted;
    r.failed = s.shed + s.unfinished;
    r.set("throughput_ops_s", done_ops / (kStepLength / 1e9));
    latency_metrics(r, s);
    r.set_pct("snapshot_p50_ms", pb::percentile(s.snap_ms, 50));
    r.set_pct("snapshot_p99_ms", pb::percentile(s.snap_ms, 99));
    r.set("msgs_per_op", ratio(traffic.get("msgs"), done_ops));
    r.set("bytes_per_op", ratio(traffic.get("bytes"), done_ops));
    r.set("cpu_per_op_us", ratio((cpu1 - cpu0) * 1e6, done_ops));
      r.set("failed_ratio", ratio(static_cast<double>(r.failed),
                                static_cast<double>(r.attempted)));
    workload_metrics(r, s, load.max_in_flight());

    // shard
    std::uint64_t restarts = 0, retransmits = 0, redirects = 0, rounds = 0,
                  fallbacks = 0, cuts = 0;
    for (std::uint32_t k = 0; k < 4; ++k) {
      ShardRouter& rt = c.client(k).router();
      restarts += rt.restarts();
      retransmits += rt.retransmits();
      redirects += rt.redirects();
      rounds += rt.snapshot_rounds();
      fallbacks += rt.snapshot_fallbacks();
      cuts += rt.snapshots_taken();
    }
    const double cuts_d = static_cast<double>(cuts);
    r.set("shard.redirects_per_kop", ratio(redirects * 1000.0, done_ops));
    r.set("shard.snapshot_rounds_per_cut", ratio(rounds, cuts_d));
    r.set("shard.snapshot_fallback_ratio", ratio(fallbacks, cuts_d));

    // storage (servers) and per-shard load
    std::uint64_t fences = 0, expired = 0, parked = 0, dropped = 0, collects = 0,
                  hits_max = 0, hits_sum = 0;
    std::vector<double> shard_hits(4, 0);
    for (ProcessId sv : c.all_server_ids()) {
      AbdServer& srv = c.storage_node(sv).server();
      fences += srv.snap_fences_installed();
      expired += srv.snap_fences_expired();
      parked += srv.frozen_parked();
      dropped += srv.parked_dropped();
      collects += srv.snap_collects_served();
      hits_max = std::max(hits_max, srv.hits_total());
      hits_sum += srv.hits_total();
      shard_hits[srv.shard()] += static_cast<double>(srv.hits_total());
    }
    double mean_hits = (shard_hits[0] + shard_hits[1] + shard_hits[2] + shard_hits[3]) / 4;
    r.set("shard.ops_imbalance",
          ratio(*std::max_element(shard_hits.begin(), shard_hits.end()), mean_hits));
    r.set("storage.restarts_per_op", ratio(restarts, done_ops));
    r.set("storage.retransmits", static_cast<double>(retransmits));
    r.set("storage.phase_msgs_per_op",
          ratio(type_msgs(traffic, {"R", "R_A", "W", "W_A"}), done_ops));
    r.set("storage.snap_fences_per_cut", ratio(fences, cuts_d));
    r.set("storage.snap_fences_expired", static_cast<double>(expired));
    r.set("storage.frozen_parked_per_kop", ratio(parked * 1000.0, done_ops));
    r.set("storage.parked_dropped", static_cast<double>(dropped));
    r.set("storage.snap_collects_per_cut", ratio(collects, cuts_d));
    r.set("storage.hits_max_share", ratio(hits_max, hits_sum));

    // rebalance
    RebalanceStats rs = c.rebalance_stats();
    r.set("rebalance.moved", static_cast<double>(rs.moved));
    r.set("rebalance.skewed_ratio", ratio(rs.skewed, rs.rounds));
    r.set("rebalance.refused", static_cast<double>(c.migration_stats().refused));

    // correctness at the nominal step
    std::size_t missing = missing_preloaded(c, kMixKeys);
    r.check(missing == 0, "shard-mix: " + std::to_string(missing) +
                              " preloaded keys missing from list_keys()");
    check_history(r, history, "shard-mix @" + std::to_string(int(rate)));
    c.rebalancer().stop();
  }
  std::sort(setups.begin(), setups.end());
  r.set("setup_s", setups[setups.size() / 2]);
  r.set("max_rate_ops_s", pb::max_rate(steps, kP99LimitMs));
  for (const pb::LadderStep& st : steps) {
    std::string tag = "ladder." + std::to_string(int(st.rate));
    r.set(tag + ".p99_ms", st.p99_ms);
    r.set(tag + ".shed", static_cast<double>(st.shed));
    r.set(tag + ".unfinished", static_cast<double>(st.unfinished));
  }
  return r;
}

// --- loopback-rw -------------------------------------------------------------------

constexpr std::size_t kLoopKeys = 16 * 1024;
constexpr std::size_t kLoopValue = 256;
constexpr double kPhaseARate = 5000;
/// Each repetition runs kCycles of (phase A, phase B).
constexpr std::size_t kCycles = 4;
constexpr TimeNs kPhaseA = seconds(1);
constexpr TimeNs kPhaseB = ms(750);
/// Wall-clock metrics are read per short window and reduced over the
/// windows. Outside stalls (the scheduler, or a hypervisor descheduling a
/// vCPU) only ever add time, and on a shared virtual machine they hit
/// from a third to nearly all of the 100 ms windows, in amounts that
/// drift from run to run. So latency is the lowest of the windows'
/// percentiles (the least disturbed window) and phase B's capacity the
/// upper quartile of the windows' rates (a phase-B window is busy end to
/// end, so its rate is steadier than a tail). A slower code path moves
/// every window.
constexpr double kCleanLatency = 0.0;
constexpr double kCleanRate = 0.75;
constexpr std::size_t kWindows = 10;  ///< latency windows per phase A
constexpr std::size_t kPhaseBWindows = 3;
constexpr std::size_t kPhaseBWindow = 32;
constexpr std::size_t kPhaseACap = 1024;

struct ThreadCpu {
  pb::SchedStat sched;
  pb::TaskStat stat;
};

ThreadCpu thread_cpu(long tid) {
  std::string dir = "/proc/self/task/" + std::to_string(tid) + "/";
  ThreadCpu t;
  if (auto s = pb::parse_schedstat(pb::read_file(dir + "schedstat"))) t.sched = *s;
  if (auto s = pb::parse_task_stat(pb::read_file(dir + "stat"))) t.stat = *s;
  return t;
}

std::vector<long> thread_ids() {
  std::vector<long> out;
  if (DIR* d = opendir("/proc/self/task")) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] != '.') out.push_back(std::strtol(e->d_name, nullptr, 10));
    }
    closedir(d);
  }
  return out;
}

/// Socket runtime load: the driver thread ticks phase A's open loop and
/// posts each op into the client's context; completions (and all of
/// phase B's closed loop) run on the transport loop thread.
class SocketLoad {
 public:
  SocketLoad(Cluster& c, std::uint64_t seed, HistoryRecorder& h, pb::Tracer& tracer)
      : c_(c),
        client_(c.client(0)),
        router_(&client_.router()),
        rng_(seed),
        rng_b_(seed ^ 0x5eedb),
        history_(h),
        tracer_(tracer) {}

  /// Phase A: fixed-rate open loop for `length`, driven from this thread.
  void open_loop(double rate, TimeNs length) {
    const TimeNs t0 = c_.now();
    const std::int64_t wall_t0 = wall_ns();
    for (std::uint64_t tick = 0;; ++tick) {
      TimeNs offset = static_cast<TimeNs>(std::llround(tick * 1e9 / rate));
      if (offset >= length) break;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(wall_t0 + offset)));
      OpRec& rec = log_a_.emplace_back();
      rec.due = t0 + offset;
      bool read = rng_.uniform() < 0.5;
      rec.kind = read ? kRead : kWrite;
      RegisterKey key = key_name(rng_.below(kLoopKeys));
      if (in_flight_.load(std::memory_order_relaxed) >= kPhaseACap) continue;
      std::size_t cur = in_flight_.fetch_add(1) + 1;
      max_seen_ = std::max(max_seen_, cur);
      Value v = read ? Value() : make_value(0, seq_++, kLoopValue);
      std::uint64_t op = log_a_.size();
      c_.post(client_.id(), [this, &rec, key = std::move(key), v = std::move(v), op] {
        issue(rec, key, v, op, /*closed=*/false);
      });
    }
  }

  /// Phase B: `window` ops outstanding on the loop thread until stop().
  void closed_loop_start(std::size_t window) {
    stop_b_.store(false);
    c_.post(client_.id(), [this, window] {
      for (std::size_t i = 0; i < window; ++i) next_closed();
    });
  }
  void closed_loop_stop() { stop_b_.store(true); }
  std::uint64_t closed_completed() const { return completed_b_.load(); }

  /// Waits until no op is open (or `grace` passes); true when drained.
  bool drain(std::chrono::milliseconds grace) {
    auto until = std::chrono::steady_clock::now() + grace;
    while (in_flight_.load(std::memory_order_acquire) != 0) {
      if (std::chrono::steady_clock::now() > until) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  const OpLog& log_a() const { return log_a_; }
  std::size_t max_in_flight() const { return max_seen_; }

 private:
  void next_closed() {
    if (stop_b_.load(std::memory_order_relaxed)) return;
    in_flight_.fetch_add(1);
    bool read = rng_b_.uniform() < 0.5;
    RegisterKey key = key_name(rng_b_.below(kLoopKeys));
    Value v = read ? Value() : make_value(1, seq_b_++, kLoopValue);
    OpRec& rec = log_b_.emplace_back();
    rec.due = c_.now();
    rec.kind = read ? kRead : kWrite;
    issue(rec, key, v, 0, /*closed=*/true);
  }

  void issue(OpRec& rec, const RegisterKey& key, const Value& v, std::uint64_t op,
             bool closed) {
    TimeNs now = c_.now();
    rec.issued.store(now, std::memory_order_release);
    ProcessId pid = client_.id();
    auto finish = [this, &rec, op, closed] {
      TimeNs end = c_.now();
      if (!closed) tracer_.add("op", rec.due, end, -1, op, rec.issued.load());
      rec.done.store(end, std::memory_order_release);
      if (closed) {
        completed_b_.fetch_add(1);
        next_closed();  // before the decrement: drain() must not see 0 early
      }
      in_flight_.fetch_sub(1, std::memory_order_release);
    };
    if (rec.kind == kRead) {
      std::size_t token = history_.begin(OpRecord::Kind::kRead, pid, now, key);
      router_->read(key, [this, token, finish](const TaggedValue& tv) {
        history_.end_read(token, c_.now(), tv);
        finish();
      });
    } else {
      std::size_t token = history_.begin(OpRecord::Kind::kWrite, pid, now, key);
      router_->write(key, v, [this, token, v, finish](const Tag& tag) {
        history_.end_write(token, c_.now(), tag, v);
        finish();
      });
    }
  }

  Cluster& c_;
  ClientHandle client_;
  ShardRouter* router_;
  Rng rng_;                       ///< driver thread (phase A)
  Rng rng_b_;                     ///< loop thread (phase B)
  std::uint64_t seq_ = 0, seq_b_ = 0;
  HistoryRecorder& history_;
  pb::Tracer& tracer_;
  OpLog log_a_;                   ///< appended by the driver thread
  OpLog log_b_;                   ///< appended by the loop thread
  std::atomic<std::size_t> in_flight_{0};
  std::size_t max_seen_ = 0;
  std::atomic<bool> stop_b_{false};
  std::atomic<std::uint64_t> completed_b_{0};
};

volatile std::size_t g_sink = 0;  // keeps the timed codec loops alive

/// ns per message of WireCodec encode (arena) and decode over phase A's
/// per-type mix of R, R_A, W, W_A frames, weighted by their counts.
std::pair<double, double> codec_ns_per_msg(const Counters& mix, pb::Tracer& tracer) {
  auto changes = std::make_shared<const ChangeSet>(ChangeSet::initial(WeightMap::uniform(3)));
  TaggedValue reg{Tag{42, client_id(0)}, Value(kLoopValue, 'v')};
  struct Kind {
    const char* type;
    MsgPtr msg;
  };
  const Kind kinds[] = {
      {"R", std::make_shared<ReadReq>(7, "k1234", 1, 1)},
      {"R_A", std::make_shared<ReadAck>(7, reg, changes, 1)},
      {"W", std::make_shared<WriteReq>(7, reg, "k1234", 2, 1)},
      {"W_A", std::make_shared<WriteAck>(7, changes, 2)},
  };
  constexpr int kIters = 20000;
  double enc = 0, dec = 0, weight = 0;
  net::EncodeArena arena;
  for (const Kind& k : kinds) {
    double w = static_cast<double>(mix.get(std::string("msg.") + k.type));
    if (w <= 0) continue;
    net::Segment frame = net::WireCodec::encode_frame_arena(arena, 0, client_id(0), *k.msg);
    std::int64_t e0 = wall_ns();
    std::size_t sink = 0;
    for (int i = 0; i < kIters; ++i) {
      net::Segment s = net::WireCodec::encode_frame_arena(arena, 0, client_id(0), *k.msg);
      sink += s.size();
    }
    std::int64_t e1 = wall_ns();
    for (int i = 0; i < kIters; ++i) {
      auto d = net::WireCodec::decode_frame(frame.data() + 4, frame.size() - 4);
      sink += d.has_value();
    }
    std::int64_t e2 = wall_ns();
    g_sink = g_sink + sink;
    tracer.add("net.encode", e0, e1);
    tracer.add("net.decode", e1, e2);
    enc += w * (e1 - e0) / kIters;
    dec += w * (e2 - e1) / kIters;
    weight += w;
  }
  return {ratio(enc, weight), ratio(dec, weight)};
}

Result loopback_rw(std::uint64_t seed, pb::Tracer& tracer) {
  Result r;
  HistoryRecorder history;
  const long main_tid = syscall(SYS_gettid);

  std::int64_t w0 = wall_ns();
  Cluster c = Cluster::builder()
                  .servers(3)
                  .faults(1)
                  .shards(2)
                  .clients(1)
                  .transport(Transport::kSocket)
                  .seed(seed)
                  .build();
  std::int64_t w1 = wall_ns();
  preload(c, kLoopKeys, kLoopValue, 256, history);
  std::int64_t w2 = wall_ns();
  tracer.add("setup.build", w0, w1);
  tracer.add("setup.preload", w1, w2);
  r.set("api.build_s", (w1 - w0) / 1e9);
  r.set("api.preload_s", (w2 - w1) / 1e9);
  r.set("setup_s", (w2 - w0) / 1e9);

  std::vector<long> loop_tids;
  for (long tid : thread_ids()) {
    if (tid != main_tid) loop_tids.push_back(tid);
  }
  auto loop_cpu = [&] {
    ThreadCpu sum;
    for (long tid : loop_tids) {
      ThreadCpu t = thread_cpu(tid);
      sum.sched.run_ns += t.sched.run_ns;
      sum.sched.wait_ns += t.sched.wait_ns;
      sum.stat.utime_ticks += t.stat.utime_ticks;
      sum.stat.stime_ticks += t.stat.stime_ticks;
    }
    return sum;
  };

  SocketLoad load(c, seed, history, tracer);

  // Phases A and B alternate in short cycles, so each samples the whole
  // repetition instead of one stretch of it.
  struct Usage {
    ThreadCpu loop, driver;
    double cpu_s = 0, wall_s = 0;
    Counters traffic;
  };
  auto usage = [&] {
    return Usage{loop_cpu(), thread_cpu(main_tid), process_cpu_s(), wall_ns() / 1e9,
                 c.traffic()};
  };
  const Counters traffic_start = c.traffic();
  Counters traffic_a;
  double cpu_a = 0, wall_a = 0, loop_run_a = 0, loop_wait_a = 0, driver_a = 0;
  double loop_user_ticks = 0, loop_sys_ticks = 0;
  std::vector<double> rates;
  bool drained = true;
  std::vector<TimeNs> cycle_starts;
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    // Phase A: fixed-rate open loop; CPU and traffic are taken over the
    // cycle including its drain.
    const Usage u0 = usage();
    const TimeNs t0 = c.now();
    cycle_starts.push_back(t0);
    load.open_loop(kPhaseARate, kPhaseA);
    tracer.add("phase.a", t0, c.now());
    drained = load.drain(std::chrono::milliseconds(2000)) && drained;
    const Usage u1 = usage();
    cpu_a += u1.cpu_s - u0.cpu_s;
    wall_a += u1.wall_s - u0.wall_s;
    loop_run_a += (u1.loop.sched.run_ns - u0.loop.sched.run_ns) / 1e9;
    loop_wait_a += (u1.loop.sched.wait_ns - u0.loop.sched.wait_ns) / 1e3;
    loop_user_ticks += u1.loop.stat.utime_ticks - u0.loop.stat.utime_ticks;
    loop_sys_ticks += u1.loop.stat.stime_ticks - u0.loop.stat.stime_ticks;
    driver_a += (u1.driver.sched.run_ns - u0.driver.sched.run_ns) / 1e3;
    traffic_a.merge(counters_delta(u1.traffic, u0.traffic));

    // Phase B: closed loop, completions per wall second per window.
    const TimeNs tb = c.now();
    load.closed_loop_start(kPhaseBWindow);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // ramp
    std::uint64_t n_prev = load.closed_completed();
    std::int64_t w_prev = wall_ns();
    for (std::size_t w = 0; w < kPhaseBWindows; ++w) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(kPhaseB / kPhaseBWindows));
      const std::uint64_t n_now = load.closed_completed();
      const std::int64_t w_now = wall_ns();
      rates.push_back((n_now - n_prev) / ((w_now - w_prev) / 1e9));
      n_prev = n_now;
      w_prev = w_now;
    }
    load.closed_loop_stop();
    drained = load.drain(std::chrono::milliseconds(5000)) && drained;
    tracer.add("phase.b", tb, c.now());
  }
  const TimeNs ta_end = c.now();
  const Counters traffic_all = counters_delta(c.traffic(), traffic_start);

  // Phase A's ops are judged after the last drain: one still open then
  // is unfinished and censored at its age.
  LogSummary s = pb::summarize(load.log_a(), ta_end);
  const double ops_a = static_cast<double>(s.completed);
  r.attempted = s.attempted;
  r.failed = s.shed + s.unfinished;
  for (auto [name, p] : {std::pair{"_p50_ms", 50.0}, std::pair{"_p99_ms", 99.0}}) {
    std::vector<pb::Pct> reads, writes;
    for (TimeNs t0 : cycle_starts) {
      for (const pb::Pct& w : pb::window_percentiles(s.read_due, s.read_ms, t0,
                                                     t0 + kPhaseA, kWindows, p)) {
        reads.push_back(w);
      }
      for (const pb::Pct& w : pb::window_percentiles(s.write_due, s.write_ms, t0,
                                                     t0 + kPhaseA, kWindows, p)) {
        writes.push_back(w);
      }
    }
    r.set_pct(std::string("read") + name, pb::window_quantile(reads, kCleanLatency));
    r.set_pct(std::string("write") + name, pb::window_quantile(writes, kCleanLatency));
  }
  r.set("cpu_per_op_us", ratio(cpu_a * 1e6, ops_a));
  workload_metrics(r, s, std::max(load.max_in_flight(), kPhaseBWindow));
  // Goodput at the nominal rate, as on the sim workloads. Phase B's
  // capacity drifts with the machine's speed by more than any bound a
  // gate could hold, so it is reported unbounded (peak_ops_s).
  r.set("throughput_ops_s", ops_a / (kCycles * kPhaseA / 1e9));
  std::sort(rates.begin(), rates.end());
  r.set("peak_ops_s", rates[static_cast<std::size_t>(
                          std::lround(kCleanRate * (rates.size() - 1)))]);

  r.set("runtime.loop_busy_ratio", ratio(loop_run_a, wall_a * loop_tids.size()));
  r.set("runtime.loop_runq_wait_us_per_op", ratio(loop_wait_a, ops_a));
  r.set("runtime.loop_sys_share", ratio(loop_sys_ticks, loop_user_ticks + loop_sys_ticks));
  r.set("runtime.driver_cpu_us_per_op", ratio(driver_a, ops_a));

  // net (phase A mix)
  for (const char* t : {"R", "R_A", "W", "W_A"}) {
    r.set(std::string("net.msgs_per_op.") + t,
          ratio(traffic_a.get(std::string("msg.") + t), ops_a));
  }
  r.set("net.bytes_per_msg", ratio(traffic_a.get("bytes"), traffic_a.get("msgs")));
  if (tracer.on()) {
    auto [enc, dec] = codec_ns_per_msg(traffic_a, tracer);
    r.set("net.encode_ns_per_msg", enc);
    r.set("net.decode_ns_per_msg", dec);
  }

  // msgs/bytes over both phases
  const double ops_ab = ops_a + static_cast<double>(load.closed_completed());
  r.set("msgs_per_op", ratio(traffic_all.get("msgs"), ops_ab));
  r.set("bytes_per_op", ratio(traffic_all.get("bytes"), ops_ab));
  r.set("failed_ratio", ratio(static_cast<double>(r.failed),
                              static_cast<double>(r.attempted)));
  r.check(drained, "loopback-rw: ops still open after a phase's drain");

  const net::SocketTransport& tr = c.sockets()->transport();
  r.set("net.conns_opened", static_cast<double>(tr.conns_opened()));
  r.set("net.frames_dropped", static_cast<double>(tr.frames_dropped()));

  std::size_t missing = missing_preloaded(c, kLoopKeys);
  r.check(missing == 0, "loopback-rw: " + std::to_string(missing) +
                            " preloaded keys missing from list_keys()");
  check_history(r, history, "loopback-rw");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans;
  std::uint64_t seed = 1;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::stoull(v);
    else if (k == "--trace") trace = v == "1";
    else if (k == "--spans") spans = v;
    else {
      std::cerr << "unknown flag " << k << "\n";
      return 2;
    }
  }
  pb::Tracer tracer(trace);
  Result r;
  try {
    if (workload == "geo-adapt") r = geo_adapt(seed, tracer);
    else if (workload == "shard-mix") r = shard_mix(seed, tracer);
    else if (workload == "loopback-rw") r = loopback_rw(seed, tracer);
    else {
      std::cerr << "unknown workload '" << workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << workload << ": " << e.what() << "\n";
    return 1;
  }
  r.set("peak_rss_mb", pb::peak_rss_mb());
  if (trace && !spans.empty() && !tracer.write(spans)) {
    r.errors.push_back("could not write spans to " + spans);
  }
  print_result(workload, r);
  return r.errors.empty() ? 0 : 1;
}
