// Wire messages of the (dynamic-weighted) ABD register protocol
// (Algorithms 5 and 6). The same messages serve the static baseline —
// then `changes` is null, every version is 0 and no set is piggybacked.
//
// Operation multiplexing: every request carries the issuing client's
// OpId (identifies the storage operation; unique across every client in
// the process so co-located clients never confuse replies) plus a `seq`
// (the operation's phase-attempt counter, bumped on every phase start
// and change-set restart). Servers echo both verbatim; the client
// routes a reply to the operation by OpId and discards it as stale when
// the seq does not match the operation's current attempt.
//
// Version-gated piggybacking: in the paper every R_A/W_A carries the
// server's whole change set C'. Here an R_A/W_A/KEYS_A carries C' and
// its SetVersion only when the requester may lack part of it, and
// neither otherwise. R/W/KEYS requests carry the versions the client last
// merged, one per server of its group (KnownVersions); a server whose
// current version equals the requester's entry for it omits the set. A
// version names exactly one set (a server's set only grows within one
// incarnation), and a client records a version only once its own set
// contains that set, so an omitted set is one whose merge would have
// added nothing: every restart decision is the paper's (the delta-state
// idea for grow-only join-semilattices, Almeida et al., JPDC 2018).
//
// wire_size() of every message here is kHeaderBytes plus the body
// exactly as the socket codec encodes it (strings and nested frames
// with their length prefixes), so simulated and socket byte counts
// differ only in the header (pinned by test_codec_fuzz).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/change_set.h"
#include "runtime/message.h"
#include "storage/tag.h"

namespace wrs {

/// Shared immutable change-set payload. Replies from servers carry the
/// server's current set unless the requester already holds it; null in
/// static deployments.
using ChangeSetPtr = std::shared_ptr<const ChangeSet>;

/// A server's change-set version: the server's incarnation in the high
/// 32 bits, the size of its set in the low 32. A set only grows within
/// one incarnation, so a version names exactly one set. 0 = no version
/// (no set piggybacked, or nothing merged yet).
using SetVersion = std::uint64_t;

/// The SetVersion a client last merged from each server of its group,
/// by group position. Inline and fixed-capacity, so carrying it costs a
/// request no allocation; a group larger than kCapacity sends none, and
/// then every server ships its set.
class KnownVersions {
 public:
  static constexpr std::size_t kCapacity = 8;

  /// `n` servers, none merged yet; n > kCapacity gives an empty vector.
  static KnownVersions for_group(std::size_t n) {
    KnownVersions k;
    if (n <= kCapacity) k.size_ = static_cast<std::uint8_t>(n);
    return k;
  }

  std::size_t size() const { return size_; }
  /// The version recorded for group position `pos` (0 past the end).
  SetVersion at(std::size_t pos) const {
    return pos < size_ ? versions_[pos] : 0;
  }
  void set(std::size_t pos, SetVersion v) {
    if (pos < size_) versions_[pos] = v;
  }
  /// Appends one entry; false when full (the decoder's bound).
  bool push_back(SetVersion v) {
    if (size_ == kCapacity) return false;
    versions_[size_++] = v;
    return true;
  }

  /// As the codec encodes it: a u8 count, then one u64 per entry.
  std::size_t wire_size() const { return 1 + 8 * std::size_t{size_}; }

 private:
  std::uint8_t size_ = 0;
  std::array<SetVersion, kCapacity> versions_{};
};

/// Wire bytes of an ABD reply's piggyback: a presence byte, then the set
/// and its SetVersion (a u64) together, or neither.
inline std::size_t piggyback_wire_size(const ChangeSetPtr& c) {
  return 1 + (c ? c->wire_size() + 8 : 0);
}

/// Identifies one client storage operation across all its phases and
/// restarts. Process-wide unique (see AbdClient::fresh_op_id).
using OpId = std::uint64_t;

/// Sharded deployments run several replica groups in one runtime, so
/// every REQUEST carries the shard id of the group the client addressed;
/// servers drop requests whose shard does not match their own group
/// (defense in depth against routing bugs — scoped broadcasts should
/// never produce them). Unsharded deployments are shard 0 throughout.
/// Replies are point-to-point and matched by OpId, so they carry none.

/// <R, opId, seq, g, known> — phase-1 request.
class ReadReq : public MessageBase<ReadReq> {
 public:
  explicit ReadReq(OpId op_id, RegisterKey key = "", std::uint32_t seq = 0,
                   ShardId shard = 0, KnownVersions known = {})
      : op_id_(op_id),
        seq_(seq),
        shard_(shard),
        key_(std::move(key)),
        known_(known) {}
  OpId op_id() const { return op_id_; }
  std::uint32_t seq() const { return seq_; }
  ShardId shard() const { return shard_; }
  const RegisterKey& key() const { return key_; }
  const KnownVersions& known() const { return known_; }
  std::string type_name() const override { return "R"; }
  std::size_t wire_size() const override {
    return kHeaderBytes + 16 + 4 + key_.size() + known_.wire_size();
  }

 private:
  OpId op_id_;
  std::uint32_t seq_;
  ShardId shard_;
  RegisterKey key_;
  KnownVersions known_;
};

/// <KEYS, opId, seq, g, known> — asks a server for the set of register
/// keys it stores (used by the multi-register refresh on weight gain).
class KeysReq : public MessageBase<KeysReq> {
 public:
  explicit KeysReq(OpId op_id, std::uint32_t seq = 0, ShardId shard = 0,
                   KnownVersions known = {})
      : op_id_(op_id), seq_(seq), shard_(shard), known_(known) {}
  OpId op_id() const { return op_id_; }
  std::uint32_t seq() const { return seq_; }
  ShardId shard() const { return shard_; }
  const KnownVersions& known() const { return known_; }
  std::string type_name() const override { return "KEYS"; }
  std::size_t wire_size() const override {
    return kHeaderBytes + 16 + known_.wire_size();
  }

 private:
  OpId op_id_;
  std::uint32_t seq_;
  ShardId shard_;
  KnownVersions known_;
};

/// <KEYS_A, opId, seq, keys, C, v>.
class KeysAck : public MessageBase<KeysAck> {
 public:
  KeysAck(OpId op_id, std::vector<RegisterKey> keys, ChangeSetPtr changes,
          std::uint32_t seq = 0, SetVersion version = 0)
      : op_id_(op_id),
        seq_(seq),
        version_(version),
        keys_(std::move(keys)),
        changes_(std::move(changes)) {}
  OpId op_id() const { return op_id_; }
  std::uint32_t seq() const { return seq_; }
  const std::vector<RegisterKey>& keys() const { return keys_; }
  const ChangeSetPtr& changes() const { return changes_; }
  SetVersion version() const { return version_; }
  std::string type_name() const override { return "KEYS_A"; }
  std::size_t wire_size() const override {
    std::size_t k = 0;
    for (const auto& key : keys_) k += key.size() + 4;
    return kHeaderBytes + 16 + k + piggyback_wire_size(changes_);
  }

 private:
  OpId op_id_;
  std::uint32_t seq_;
  SetVersion version_;
  std::vector<RegisterKey> keys_;
  ChangeSetPtr changes_;
};

/// <R_A, reg, opId, seq, C, v> — phase-1 reply: register contents, the
/// server's set version, and its change set unless the requester holds it.
class ReadAck : public MessageBase<ReadAck> {
 public:
  ReadAck(OpId op_id, TaggedValue reg, ChangeSetPtr changes,
          std::uint32_t seq = 0, SetVersion version = 0)
      : op_id_(op_id),
        seq_(seq),
        version_(version),
        reg_(std::move(reg)),
        changes_(std::move(changes)) {}
  OpId op_id() const { return op_id_; }
  std::uint32_t seq() const { return seq_; }
  const TaggedValue& reg() const { return reg_; }
  const ChangeSetPtr& changes() const { return changes_; }
  SetVersion version() const { return version_; }
  std::string type_name() const override { return "R_A"; }
  std::size_t wire_size() const override {
    return kHeaderBytes + 12 + 16 + reg_.value.size() +
           piggyback_wire_size(changes_);
  }

 private:
  OpId op_id_;
  std::uint32_t seq_;
  SetVersion version_;
  TaggedValue reg_;
  ChangeSetPtr changes_;
};

/// <W, <tag, val>, opId, seq, g, known> — phase-2 request (write or read
/// write-back).
class WriteReq : public MessageBase<WriteReq> {
 public:
  WriteReq(OpId op_id, TaggedValue reg, RegisterKey key = "",
           std::uint32_t seq = 0, ShardId shard = 0, KnownVersions known = {})
      : op_id_(op_id),
        seq_(seq),
        shard_(shard),
        reg_(std::move(reg)),
        key_(std::move(key)),
        known_(known) {}
  OpId op_id() const { return op_id_; }
  std::uint32_t seq() const { return seq_; }
  ShardId shard() const { return shard_; }
  const TaggedValue& reg() const { return reg_; }
  const RegisterKey& key() const { return key_; }
  const KnownVersions& known() const { return known_; }
  std::string type_name() const override { return "W"; }
  std::size_t wire_size() const override {
    return kHeaderBytes + 16 + 16 + reg_.value.size() + 4 + key_.size() +
           known_.wire_size();
  }

 private:
  OpId op_id_;
  std::uint32_t seq_;
  ShardId shard_;
  TaggedValue reg_;
  RegisterKey key_;
  KnownVersions known_;
};

/// <B, g, [frame...]> — batched wire envelope (client -> servers).
///
/// A batching client coalesces the phase requests of several operations
/// addressed to the SAME shard into one envelope: `frames` holds the
/// individual ReadReq / WriteReq / KeysReq messages exactly as the
/// unbatched protocol would have sent them, so servers apply each frame
/// through the ordinary per-request logic (idempotent, seq-echoing) and
/// nothing about the quorum protocol changes — only the message count.
/// The fault plane acts on whole envelopes: dropping / duplicating /
/// reordering a BatchRequest drops / duplicates / reorders every frame
/// in it together.
///
/// Wire size amortizes the per-message header: each frame contributes
/// its own payload plus a 5-byte nested prelude (u8 type tag, u32
/// length) instead of a full header.
class BatchRequest : public MessageBase<BatchRequest> {
 public:
  BatchRequest(ShardId shard, std::vector<MsgPtr> frames)
      : shard_(shard), frames_(std::move(frames)) {}
  ShardId shard() const { return shard_; }
  const std::vector<MsgPtr>& frames() const { return frames_; }
  std::string type_name() const override { return "B"; }
  std::size_t wire_size() const override {
    std::size_t sz = kHeaderBytes + 8;
    for (const MsgPtr& f : frames_) sz += f->wire_size() - kHeaderBytes + 5;
    return sz;
  }

 private:
  ShardId shard_;
  std::vector<MsgPtr> frames_;
};

/// <B_A, [frame...]> — one reply per BatchRequest, carrying the
/// per-(op_id, seq) acks of every applied frame. The client demultiplexes
/// the frames back into its concurrent two-phase state machines exactly
/// as if they had arrived as individual messages.
class BatchReply : public MessageBase<BatchReply> {
 public:
  explicit BatchReply(std::vector<MsgPtr> frames)
      : frames_(std::move(frames)) {}
  const std::vector<MsgPtr>& frames() const { return frames_; }
  std::string type_name() const override { return "B_A"; }
  std::size_t wire_size() const override {
    std::size_t sz = kHeaderBytes + 4;
    for (const MsgPtr& f : frames_) sz += f->wire_size() - kHeaderBytes + 5;
    return sz;
  }

 private:
  std::vector<MsgPtr> frames_;
};

/// <W_A, opId, seq, C, v>.
class WriteAck : public MessageBase<WriteAck> {
 public:
  WriteAck(OpId op_id, ChangeSetPtr changes, std::uint32_t seq = 0,
           SetVersion version = 0)
      : op_id_(op_id),
        seq_(seq),
        version_(version),
        changes_(std::move(changes)) {}
  OpId op_id() const { return op_id_; }
  std::uint32_t seq() const { return seq_; }
  const ChangeSetPtr& changes() const { return changes_; }
  SetVersion version() const { return version_; }
  std::string type_name() const override { return "W_A"; }
  std::size_t wire_size() const override {
    return kHeaderBytes + 12 + piggyback_wire_size(changes_);
  }

 private:
  OpId op_id_;
  std::uint32_t seq_;
  SetVersion version_;
  ChangeSetPtr changes_;
};

}  // namespace wrs
