// Operation-history recording and atomicity checking.
//
// The checker verifies the guarantees of an atomic MWMR register over a
// recorded concurrent history, using tag order as the version order:
//
//  (A1) tag validity  — every read returns the initial tag or the tag of
//       some write whose invocation precedes the read's response;
//  (A2) regularity    — a read returns a tag >= the tag of every write
//       that completed before the read started;
//  (A3) Definition 6  — for two reads r1, r2 where r1 completes before r2
//       starts, tag(r2) >= tag(r1) (no new/old inversion);
//  (A4) write tags are unique and strictly increase per writer.
//
// These conditions are exactly atomicity for tag-ordered registers where
// a read returns only a tag already stored at a weighted quorum (by its
// write-back, or by servers that held it), so reads linearize at tag
// order.
//
// Snapshots (ShardRouter::snapshot) record one read-like entry per cut
// key, all sharing the snapshot's [start, end] interval and a unique
// snap_id. Each entry participates in the per-key checks above as an
// ordinary read, and the cut as a whole must be CONSISTENT across keys:
//
//  (S1) cut consistency — some instant T exists at which every entry's
//       tag was current: T >= the start of the write producing each
//       non-initial entry tag, and T < the end of every operation that
//       returned/wrote a HIGHER tag on an entry's key (such an operation
//       proves the higher tag was committed by its end);
//  (S2) cut comparability — two cuts sharing keys are ordered: one
//       dominates the other (per-key tag comparison) on EVERY shared
//       key. Crossing cuts (j newer here, k newer there) cannot both be
//       instants of the same linearization.
#pragma once

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "storage/tag.h"

namespace wrs {

struct OpRecord {
  enum class Kind { kRead, kWrite };
  Kind kind = Kind::kRead;
  ProcessId process = kNoProcess;
  RegisterKey key;  // register the op targeted ("" = the paper's)
  TimeNs start = 0;
  TimeNs end = 0;
  Tag tag;      // tag read / tag written
  Value value;  // value read / value written
  /// 0 = a plain operation. Non-zero groups the entries of one atomic
  /// snapshot: every record with the same snap_id is one key of that
  /// snapshot's cut (kind kRead, shared [start, end]).
  std::uint64_t snap_id = 0;
};

/// Internally synchronized: on the thread runtime the recording clients
/// run on different worker threads. An op is held by token while open and
/// moved into the completed list when it ends, so a long run keeps one
/// copy of each record.
class HistoryRecorder {
 public:
  /// Begins an operation; returns a token to close it with. Closing an
  /// unknown (or already closed) token throws std::out_of_range.
  std::size_t begin(OpRecord::Kind kind, ProcessId process, TimeNs start,
                    RegisterKey key = {});
  void end_read(std::size_t token, TimeNs end, const TaggedValue& result);
  void end_write(std::size_t token, TimeNs end, const Tag& tag,
                 const Value& value);

  /// Begins an atomic snapshot; returns a token to close it with. The
  /// snapshot is assigned a recorder-unique snap_id.
  std::size_t begin_snapshot(ProcessId process, TimeNs start);
  /// Completes a snapshot: records one read-like entry per cut pair, all
  /// sharing the snapshot's interval and snap_id. A snapshot never
  /// closed (crashed client) leaves no completed records, like any
  /// unfinished op.
  void end_snapshot(std::size_t token, TimeNs end,
                    const std::vector<std::pair<RegisterKey, TaggedValue>>& cut);

  /// Completed records only, in completion order (unfinished ops are
  /// ignored by the checker — crashes may legitimately leave them open).
  /// Call it after recording stops: the reference is read without the
  /// lock, so no client may still be closing ops.
  const std::vector<OpRecord>& completed() const;

  /// Safe to poll while clients are still recording.
  std::size_t completed_count() const;

 private:
  /// Removes and returns open op `token`; the caller holds mu_.
  OpRecord take_open(std::size_t token);

  mutable std::mutex mu_;
  std::unordered_map<std::size_t, OpRecord> open_;
  std::vector<OpRecord> completed_;
  std::size_t next_token_ = 0;
  std::uint64_t next_snap_id_ = 0;
};

/// Returns nullopt when the history is atomic; otherwise a description of
/// the first violation found, naming the offending operations with their
/// (process, key, tag, [start, end]) so a chaos-fuzz failure is
/// actionable without replaying. Each named register is an independent
/// atomic object, so the history is partitioned by key and every per-key
/// sub-history checked on its own (a multi-key pipelined history is
/// atomic iff each per-key projection is).
///
/// Scales to fuzz-length histories: the (A2) read-vs-completed-write and
/// (A3) read-vs-read checks are per-key sort + sweep with a running
/// maximum tag — O(n log n) overall, not the previous O(n^2) pairwise
/// scan.
///
/// Records with a snap_id additionally run the cross-key cut checks
/// (S1)/(S2) described above — a history with snapshots is atomic iff
/// every per-key projection is atomic AND every cut is a consistent,
/// pairwise-comparable instant.
std::optional<std::string> check_atomicity(const std::vector<OpRecord>& ops);

}  // namespace wrs
