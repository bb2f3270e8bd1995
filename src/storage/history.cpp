#include "storage/history.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace wrs {

std::size_t HistoryRecorder::begin(OpRecord::Kind kind, ProcessId process,
                                   TimeNs start, RegisterKey key) {
  std::lock_guard lock(mu_);
  OpRecord& rec = open_[next_token_];
  rec.kind = kind;
  rec.process = process;
  rec.key = std::move(key);
  rec.start = start;
  return next_token_++;
}

OpRecord HistoryRecorder::take_open(std::size_t token) {
  auto it = open_.find(token);
  if (it == open_.end()) {
    throw std::out_of_range("HistoryRecorder: unknown or closed token");
  }
  OpRecord rec = std::move(it->second);
  open_.erase(it);
  return rec;
}

void HistoryRecorder::end_read(std::size_t token, TimeNs end,
                               const TaggedValue& result) {
  std::lock_guard lock(mu_);
  OpRecord rec = take_open(token);
  rec.end = end;
  rec.tag = result.tag;
  rec.value = result.value;
  completed_.push_back(std::move(rec));
}

void HistoryRecorder::end_write(std::size_t token, TimeNs end, const Tag& tag,
                                const Value& value) {
  std::lock_guard lock(mu_);
  OpRecord rec = take_open(token);
  rec.end = end;
  rec.tag = tag;
  rec.value = value;
  completed_.push_back(std::move(rec));
}

std::size_t HistoryRecorder::begin_snapshot(ProcessId process, TimeNs start) {
  std::lock_guard lock(mu_);
  // The open record carries the snapshot's identity and start;
  // end_snapshot completes one copy of it per cut key.
  OpRecord& rec = open_[next_token_];
  rec.kind = OpRecord::Kind::kRead;
  rec.process = process;
  rec.start = start;
  rec.snap_id = ++next_snap_id_;
  return next_token_++;
}

void HistoryRecorder::end_snapshot(
    std::size_t token, TimeNs end,
    const std::vector<std::pair<RegisterKey, TaggedValue>>& cut) {
  std::lock_guard lock(mu_);
  const OpRecord tmpl = take_open(token);
  for (const auto& [key, reg] : cut) {
    OpRecord& rec = completed_.emplace_back(tmpl);
    rec.key = key;
    rec.end = end;
    rec.tag = reg.tag;
    rec.value = reg.value;
  }
}

const std::vector<OpRecord>& HistoryRecorder::completed() const {
  // The lock orders this read after every close made so far; the
  // contract (recording has stopped) keeps later closes out.
  std::lock_guard lock(mu_);
  return completed_;
}

std::size_t HistoryRecorder::completed_count() const {
  std::lock_guard lock(mu_);
  return completed_.size();
}

namespace {

std::string describe(const OpRecord& op) {
  std::ostringstream os;
  if (op.snap_id != 0) {
    os << "snapshot#" << op.snap_id << " entry";
  } else {
    os << (op.kind == OpRecord::Kind::kRead ? "read" : "write");
  }
  os << " by " << process_name(op.process);
  if (!op.key.empty()) os << " key=\"" << op.key << "\"";
  os << " [" << op.start << "," << op.end << "] tag=" << op.tag.str()
     << " value=\"" << op.value << "\"";
  return os.str();
}

/// Checks one register's (single-key) sub-history.
///
/// Fuzz-length histories made the original pairwise scans (A2: reads x
/// writes, A3: reads x reads) the bottleneck, so both are sort + sweep:
/// order the candidate predecessors by completion time, the successors by
/// start time, and carry the running maximum tag (with the op that set
/// it) across the sweep — O(n log n) total, and the reported violation
/// still names both offending operations with their (process, key, tag,
/// interval).
std::optional<std::string> check_single_key(
    const std::vector<const OpRecord*>& ops) {
  std::vector<const OpRecord*> reads;
  std::vector<const OpRecord*> writes;
  for (const OpRecord* op : ops) {
    (op->kind == OpRecord::Kind::kRead ? reads : writes).push_back(op);
  }

  // (A4) unique write tags, strictly increasing per writer.
  std::map<Tag, const OpRecord*> by_tag;
  for (const auto* w : writes) {
    auto [it, inserted] = by_tag.emplace(w->tag, w);
    if (!inserted) {
      return "duplicate write tag: " + describe(*w) + " vs " +
             describe(*it->second);
    }
  }
  std::map<ProcessId, std::vector<const OpRecord*>> per_writer;
  for (const auto* w : writes) per_writer[w->process].push_back(w);
  for (auto& [pid, ws] : per_writer) {
    std::sort(ws.begin(), ws.end(), [](const auto* a, const auto* b) {
      return a->start < b->start;
    });
    for (std::size_t i = 1; i < ws.size(); ++i) {
      if (!(ws[i - 1]->tag < ws[i]->tag)) {
        return "non-monotone tags from one writer: " + describe(*ws[i - 1]) +
               " then " + describe(*ws[i]);
      }
    }
  }

  // (A1) tag validity (O(log n) lookups against the by_tag index).
  for (const auto* r : reads) {
    if (r->tag == kInitialTag) {
      // Reading the initial value is fine as long as (A2) below holds.
      continue;
    }
    auto it = by_tag.find(r->tag);
    if (it == by_tag.end()) {
      return "read of a tag never written: " + describe(*r);
    }
    const OpRecord* w = it->second;
    if (w->start > r->end) {
      return "read returned a write from its future: " + describe(*r) +
             " vs " + describe(*w);
    }
    if (w->value != r->value) {
      return "read value does not match the write with its tag: " +
             describe(*r) + " vs " + describe(*w);
    }
  }

  // Shared sweep machinery for (A2) and (A3): predecessors sorted by end,
  // successors sorted by start; a two-pointer walk folds every
  // predecessor with pred->end < succ->start into a running max tag.
  auto sweep = [](std::vector<const OpRecord*>& preds,
                  std::vector<const OpRecord*>& succs,
                  const char* what) -> std::optional<std::string> {
    std::sort(preds.begin(), preds.end(), [](const auto* a, const auto* b) {
      return a->end < b->end;
    });
    std::sort(succs.begin(), succs.end(), [](const auto* a, const auto* b) {
      return a->start < b->start;
    });
    const OpRecord* max_pred = nullptr;  // highest tag completed so far
    std::size_t next = 0;
    for (const auto* s : succs) {
      while (next < preds.size() && preds[next]->end < s->start) {
        if (max_pred == nullptr || max_pred->tag < preds[next]->tag) {
          max_pred = preds[next];
        }
        ++next;
      }
      if (max_pred != nullptr && s->tag < max_pred->tag) {
        return std::string(what) + ": " + describe(*s) + " missed " +
               describe(*max_pred);
      }
    }
    return std::nullopt;
  };

  // (A2) regularity: a read is at least as new as every write completed
  // before it started.
  if (auto err = sweep(writes, reads,
                       "stale read (write completed before it started)")) {
    return err;
  }

  // (A3) Definition 6: no new/old inversion between non-overlapping reads.
  std::vector<const OpRecord*> reads_by_end = reads;
  if (auto err = sweep(reads_by_end, reads, "new/old inversion")) {
    return err;
  }

  return std::nullopt;
}

/// (S1): the cut's entries must share an instant T — for every entry,
/// T >= the start of the write producing its (non-initial) tag, and T <
/// the end of every op on its key carrying a strictly higher tag (that
/// op proves the higher tag was committed by then). The check folds the
/// per-entry constraints into one [lower, upper] window and reports the
/// two operations that squeeze it shut.
std::optional<std::string> check_cut_consistency(
    const std::vector<const OpRecord*>& entries,
    const std::map<RegisterKey, std::vector<const OpRecord*>>& by_key) {
  TimeNs lower = std::numeric_limits<TimeNs>::min();
  TimeNs upper = std::numeric_limits<TimeNs>::max();
  const OpRecord* lower_op = nullptr;
  const OpRecord* upper_op = nullptr;
  for (const OpRecord* e : entries) {
    for (const OpRecord* op : by_key.at(e->key)) {
      if (op->kind == OpRecord::Kind::kWrite && op->tag == e->tag &&
          op->start > lower) {
        lower = op->start;
        lower_op = op;
      }
      if (e->tag < op->tag && op->end < upper) {
        upper = op->end;
        upper_op = op;
      }
    }
  }
  if (upper >= lower || lower_op == nullptr || upper_op == nullptr) {
    return std::nullopt;
  }
  std::string err = "inconsistent snapshot cut: entry tags cannot coexist — ";
  err += describe(*upper_op);
  err += " proves its key moved on before ";
  err += describe(*lower_op);
  err += " even began";
  return err;
}

}  // namespace

std::optional<std::string> check_atomicity(const std::vector<OpRecord>& ops) {
  // Each named register is an independent atomic object: partition by key
  // and check every per-key projection on its own (snapshot entries
  // participate as ordinary reads).
  std::map<RegisterKey, std::vector<const OpRecord*>> by_key;
  for (const auto& op : ops) by_key[op.key].push_back(&op);
  for (const auto& [key, key_ops] : by_key) {
    if (auto err = check_single_key(key_ops)) {
      if (key.empty()) return err;
      // Built by append: chained operator+ trips gcc-12's -Wrestrict
      // false positive (PR105329) at -O2.
      std::string prefixed = "[key \"";
      prefixed += key;
      prefixed += "\"] ";
      prefixed += *err;
      return prefixed;
    }
  }

  // Cross-key snapshot checks.
  std::map<std::uint64_t, std::vector<const OpRecord*>> cuts;
  for (const auto& op : ops) {
    if (op.snap_id != 0) cuts[op.snap_id].push_back(&op);
  }
  if (cuts.empty()) return std::nullopt;

  // (S1) every cut is a consistent instant.
  for (const auto& [sid, entries] : cuts) {
    if (auto err = check_cut_consistency(entries, by_key)) return err;
  }

  // (S2) cuts sharing keys are pairwise comparable: one dominates the
  // other on every shared key. Snapshot counts are small (tens), so the
  // pairwise scan over per-cut key indexes is cheap.
  std::vector<std::map<RegisterKey, const OpRecord*>> indexed;
  indexed.reserve(cuts.size());
  for (const auto& [sid, entries] : cuts) {
    std::map<RegisterKey, const OpRecord*> m;
    for (const OpRecord* e : entries) m[e->key] = e;
    indexed.push_back(std::move(m));
  }
  for (std::size_t a = 0; a < indexed.size(); ++a) {
    for (std::size_t b = a + 1; b < indexed.size(); ++b) {
      const OpRecord* a_newer = nullptr;  // a key where cut a leads
      const OpRecord* b_newer = nullptr;  // a key where cut b leads
      for (const auto& [key, ea] : indexed[a]) {
        auto it = indexed[b].find(key);
        if (it == indexed[b].end()) continue;
        const OpRecord* eb = it->second;
        if (eb->tag < ea->tag) a_newer = ea;
        if (ea->tag < eb->tag) b_newer = eb;
      }
      if (a_newer != nullptr && b_newer != nullptr) {
        std::string err = "crossing snapshot cuts: ";
        err += describe(*a_newer);
        err += " is newer on its key while ";
        err += describe(*b_newer);
        err += " is newer on another shared key";
        return err;
      }
    }
  }
  return std::nullopt;
}

}  // namespace wrs
