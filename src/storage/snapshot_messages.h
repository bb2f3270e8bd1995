// Wire messages of the cross-shard atomic snapshot (ShardRouter::snapshot).
//
// A snapshot returns a consistent cut across keys that may live on
// different replica groups. The client drives it in two regimes:
//
//   Fast path — double collect. One SnapReq per involved shard asks a
//   quorum for the (tag, value) of every requested key in a single
//   round (the multi-key analogue of a one-round read); the
//   client keeps the per-key max tag plus a unanimity bit. Two
//   consecutive collects observing the SAME tag for every key form a
//   consistent cut (any interfering write would have bumped a tag —
//   the ABD tag plays the modification-counter role of the classic
//   double-collect snapshot). Keys whose max tag was NOT unanimous in
//   the confirming collect get a phase-2-style write-back (an ordinary
//   WriteReq with the same tag) before the cut is returned, so no
//   uncommitted tag can leak into the cut.
//
//   Fallback — fenced snapshot (the scan-embedded-in-update adaptation).
//   After a bounded number of failed collect rounds under write
//   pressure, the client sends SnapFreeze to each involved shard: every
//   server parks client requests (and migration freezes) for the named
//   keys behind a per-key snap fence and answers with its replicas.
//   The client computes the per-key max over a quorum of freeze acks,
//   then SnapRelease installs those (tag, value)s tag-monotonically,
//   lifts the fences, and drains the parked requests — the scanner
//   embeds its scan result into its own releasing update, so the
//   snapshot completes in two rounds per shard regardless of writer
//   contention. The cut linearizes after the last freeze quorum and
//   before the first release: a write completing before that point was
//   applied at a quorum-intersection server and is seen by the freeze
//   read; a write parked at an intersection server completes only after
//   the release and linearizes after the cut.
//
//   Fences are leases: each server auto-releases a snap fence after a
//   TTL so a crashed snapshot client cannot park a key forever. The
//   release ack's `held` bit reports whether the fence was still up; a
//   client seeing held=false discards the round and retries.
//
// All four types are MsgPool-allocated (make_msg) and arena-encoded
// like every other protocol message — the snapshot path adds zero
// steady-state allocations per message.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/abd_messages.h"

namespace wrs {

/// Client-unique snapshot instance id: (client pid << 32) | counter.
using SnapId = std::uint64_t;

/// One key's slice of a SnapAck: its replica plus the server-side state
/// the client needs to route around (migration fences and moved keys).
/// SnapRelease reuses the struct for its installs (flag/owner/epoch are
/// ignored there).
struct SnapEntry {
  enum Flag : std::uint8_t {
    kOk = 0,      ///< served from a live replica
    kFrozen = 1,  ///< parked behind a migration or foreign snap fence
    kMoved = 2,   ///< this group no longer owns the key (see owner/epoch)
  };
  RegisterKey key;
  TaggedValue reg;
  std::uint8_t flag = kOk;
  ShardId owner = 0;        ///< valid when flag == kMoved
  std::uint64_t epoch = 0;  ///< valid when flag == kMoved

  std::size_t wire_bytes() const {
    return 4 + key.size() + 12 + reg.value.size() + 1 + 4 + 8;
  }
};

/// <SNAP, opId, seq, g, keys> — one collect round: read the current
/// (tag, value) of every listed key at group `g` in a single round trip.
class SnapReq : public MessageBase<SnapReq> {
 public:
  SnapReq(OpId op_id, std::vector<RegisterKey> keys, std::uint32_t seq = 0,
          ShardId shard = 0)
      : op_id_(op_id), seq_(seq), shard_(shard), keys_(std::move(keys)) {}
  OpId op_id() const { return op_id_; }
  std::uint32_t seq() const { return seq_; }
  ShardId shard() const { return shard_; }
  const std::vector<RegisterKey>& keys() const { return keys_; }
  std::string type_name() const override { return "SNAP"; }
  std::size_t wire_size() const override {
    std::size_t k = 0;
    for (const auto& key : keys_) k += key.size() + 4;
    return kHeaderBytes + 16 + k;
  }

 private:
  OpId op_id_;
  std::uint32_t seq_;
  ShardId shard_;
  std::vector<RegisterKey> keys_;
};

/// <SNAP_A, opId, seq, entries, held, C> — reply to SnapReq, SnapFreeze
/// AND SnapRelease. Collect/freeze acks carry one entry per requested
/// key; release acks carry none and report fence liveness in `held`.
class SnapAck : public MessageBase<SnapAck> {
 public:
  SnapAck(OpId op_id, std::vector<SnapEntry> entries, ChangeSetPtr changes,
          std::uint32_t seq = 0, bool held = true)
      : op_id_(op_id),
        seq_(seq),
        held_(held),
        entries_(std::move(entries)),
        changes_(std::move(changes)) {}
  OpId op_id() const { return op_id_; }
  std::uint32_t seq() const { return seq_; }
  bool held() const { return held_; }
  const std::vector<SnapEntry>& entries() const { return entries_; }
  const ChangeSetPtr& changes() const { return changes_; }
  std::string type_name() const override { return "SNAP_A"; }
  std::size_t wire_size() const override {
    std::size_t e = 0;
    for (const auto& entry : entries_) e += entry.wire_bytes();
    return kHeaderBytes + 13 + 4 + e + 1 +
           (changes_ ? changes_->wire_size() : 0);
  }

 private:
  OpId op_id_;
  std::uint32_t seq_;
  bool held_;
  std::vector<SnapEntry> entries_;
  ChangeSetPtr changes_;
};

/// <SNAP_FRZ, opId, seq, g, snapId, keys> — fallback round 1: fence the
/// listed keys at group `g` under `snap_id` (client requests and
/// migration freezes park behind the fence) and reply with the replicas;
/// acked by SnapAck. Idempotent per (snap_id, key) — retransmits refresh
/// the fence TTL instead of double-fencing.
class SnapFreeze : public MessageBase<SnapFreeze> {
 public:
  SnapFreeze(OpId op_id, SnapId snap_id, std::vector<RegisterKey> keys,
             std::uint32_t seq = 0, ShardId shard = 0)
      : op_id_(op_id),
        snap_id_(snap_id),
        seq_(seq),
        shard_(shard),
        keys_(std::move(keys)) {}
  OpId op_id() const { return op_id_; }
  SnapId snap_id() const { return snap_id_; }
  std::uint32_t seq() const { return seq_; }
  ShardId shard() const { return shard_; }
  const std::vector<RegisterKey>& keys() const { return keys_; }
  std::string type_name() const override { return "SNAP_FRZ"; }
  std::size_t wire_size() const override {
    std::size_t k = 0;
    for (const auto& key : keys_) k += key.size() + 4;
    return kHeaderBytes + 24 + k;
  }

 private:
  OpId op_id_;
  SnapId snap_id_;
  std::uint32_t seq_;
  ShardId shard_;
  std::vector<RegisterKey> keys_;
};

/// <SNAP_REL, opId, seq, g, snapId, installs> — fallback round 2: one
/// entry per fenced key. Entries flagged kOk adopt their (tag, value)
/// tag-monotonically; entries with any other flag only lift the fence
/// (the abort path sends all keys lift-only). Either way the fence is
/// removed and parked requests drain. Acked by SnapAck whose `held` bit
/// is true iff every named fence was still up under this snap_id (a
/// TTL-expired fence makes the client discard the round).
class SnapRelease : public MessageBase<SnapRelease> {
 public:
  SnapRelease(OpId op_id, SnapId snap_id, std::vector<SnapEntry> installs,
              std::uint32_t seq = 0, ShardId shard = 0)
      : op_id_(op_id),
        snap_id_(snap_id),
        seq_(seq),
        shard_(shard),
        installs_(std::move(installs)) {}
  OpId op_id() const { return op_id_; }
  SnapId snap_id() const { return snap_id_; }
  std::uint32_t seq() const { return seq_; }
  ShardId shard() const { return shard_; }
  const std::vector<SnapEntry>& installs() const { return installs_; }
  std::string type_name() const override { return "SNAP_REL"; }
  std::size_t wire_size() const override {
    std::size_t e = 0;
    for (const auto& entry : installs_) e += entry.wire_bytes();
    return kHeaderBytes + 24 + 4 + e;
  }

 private:
  OpId op_id_;
  SnapId snap_id_;
  std::uint32_t seq_;
  ShardId shard_;
  std::vector<SnapEntry> installs_;
};

}  // namespace wrs
