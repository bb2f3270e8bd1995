// Reader/writer side of the (dynamic-weighted) ABD register — Algorithm 5,
// generalized to an operation-multiplexed pipeline.
//
// Every operation runs the two-phase read_write skeleton:
//   phase 1  broadcast <R>; collect <R_A, reg, C'> replies until the
//            responders form a *weighted quorum* under the client's
//            current change set C (threshold W_{S,0}/2);
//   phase 2  broadcast <W, <tag,val>> (the write-back for reads, the new
//            value with tag (max_ts+1, pid) for writes); collect <W_A>
//            until a weighted quorum acked.
//
// One-round reads: a read's phase 2 starts with the *holders* already
// counted — the phase-1 responders whose reply carried the max tag — and
// when the holders alone form a weighted quorum the read completes
// without a write-back (counted as "reads.fast_path" in the env ledger).
// Safe because a server's tag for a key only grows: a phase-1 reply with
// tag t proves the server stores a tag >= t, which is all a W_A for t
// proves. Both proofs are counted under the same change set, since a
// merge restarts the op from phase 1 and drops every responder. So the
// value read is stored at a weighted quorum when the read returns, and
// every later read's quorum intersects it (no new/old inversion; Dutta
// et al., "How fast can a distributed atomic read be?", PODC '04).
//
// Pipelining (beyond the paper's sequential client): many operations may
// be in flight at once, each an independent state machine keyed by its
// OpId in the request/reply messages. Nothing in the protocol requires
// per-client serialization across *distinct* keys — quorum intersection
// is per-operation — so independent operations multiplex freely over the
// same replicas. The client does NOT order operations on the SAME key;
// its contract is that at most one read/write per key is in flight at a
// time, because concurrent same-key writes from one process would race
// the (max_ts+1, pid) tag choice and could mint duplicate tags. Callers
// keep it: ShardRouter runs the per-key FIFO for every application
// operation, MigrationEngine serializes per key through its active set,
// and DynamicStorageNode's refresh reads distinct keys, one batch at a
// time. Debug builds assert the contract on every enqueue. round() and
// install() (preset tag) are exempt.
//
// Dynamic mode: a reply carries the server's change set C' unless the
// client has already merged it. Every R/W/KEYS request carries the
// client's KnownVersions — the SetVersion last merged from each server
// of the group — and a server whose version matches omits C' (see
// abd_messages.h). The client records a server's version whenever it
// merges that server's set; a stale or late reply's version is recorded
// only when its set is already a subset of the client's, and such a
// reply is never merged. So an omitted set is one whose merge would
// have added nothing, and every restart is the paper's. If C' contains
// changes the client has not seen, the client merges them and RESTARTS
// every in-flight operation with no responder kept (Algorithm 5 lines
// 14-16/30-32 — the change set is client-level state, so all in-flight
// quorum accounting predates the merge, not just the op whose reply
// carried the news). Quorum checks sum per-server weights cached by
// group position, recomputed only when a merge grows the set.
//
// Two deviations from the paper's literal pseudocode: newer sets are
// MERGED rather than adopted verbatim, since change sets form a
// join-semilattice and a reply from a lagging server must not erase
// changes the client already learned; and a write keeps its once-chosen
// tag across restarts, since re-tagging the same value would leave
// ghost tags on servers an earlier phase 2 partially reached. So an op
// whose tag is fixed (a write past phase 1, or an install) runs only
// its write round on every (re)start, and reads and rounds re-run phase
// 1: a re-run read round's result would go unused by the write.
//
// Multi-register extension (beyond the paper): registers are named; the
// paper's register is key "". list_keys() discovers every key any
// completed write could have created, by collecting from a *weighted
// quorum* — a weighted quorum intersects every past write quorum, which
// a mere f+1-server sample does not (a weighted quorum may have fewer
// than f+1 members).
//
// Control rounds: round(request, done) is the one primitive the other
// protocols build on — list_keys() here, snapshot collects and fences in
// ShardRouter, migration freezes and commits in MigrationEngine. It is
// the quorum-collection half of a phase with the same restart and retry
// rules; the caller builds the request and folds the replies.
//
// Batched wire mode (off by default): set_batching(max_ops, max_delay)
// buffers read/write phase broadcasts and coalesces them into one
// BatchRequest per flush — flushed as soon as `max_ops` frames are
// pending or `max_delay` after the first one, whichever comes first. Servers apply each frame
// individually and answer with one BatchReply the client demultiplexes,
// so unique write tags, change-set restarts, and retries are all
// untouched; only the per-operation message constant shrinks.
// set_batching(1, ...) IS the unbatched path, byte for byte.
//
// Static mode ignores change sets entirely and uses the fixed initial
// weights — this is the classical weighted/unweighted ABD baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "core/config.h"
#include "runtime/env.h"
#include "storage/abd_messages.h"

namespace wrs {

class AbdClient {
 public:
  enum class Mode { kStatic, kDynamic };

  using ReadCallback = std::function<void(const TaggedValue&)>;
  using WriteCallback = std::function<void(const Tag&)>;
  using KeysCallback = std::function<void(const std::vector<RegisterKey>&)>;

  /// One reply a round() collected: its sender and the message itself.
  struct Reply {
    ProcessId from = 0;
    MsgPtr msg;
  };
  /// Builds a round's request for attempt `seq` of operation `op_id`.
  using RoundRequest = std::function<MsgPtr(OpId op_id, std::uint32_t seq)>;
  using RoundDone = std::function<void(const std::vector<Reply>&)>;

  /// What an operation is doing (public so EjectedOp can carry it).
  enum class OpKind {
    kRead,
    kWrite,
    kInstall,  ///< snapshot write-back: phase-2 write with a preset tag
    kRound,    ///< one caller-built quorum round (see round())
  };

  AbdClient(Env& env, ProcessId self, const SystemConfig& config, Mode mode);

  /// Atomic read of register `key`; cb fires once with the (tag, value)
  /// read. Pipelined: any number of operations on distinct keys may be
  /// in flight, but at most one read/write per key (see the header).
  OpId read(RegisterKey key, ReadCallback cb);
  OpId read(ReadCallback cb) { return read(RegisterKey{}, std::move(cb)); }

  /// Atomic write; cb fires once with the tag the value was written
  /// under. Same pipelining rules as read().
  OpId write(RegisterKey key, Value value, WriteCallback cb);
  OpId write(Value value, WriteCallback cb) {
    return write(RegisterKey{}, std::move(value), std::move(cb));
  }

  /// Discovers every register key stored at some weighted quorum: one
  /// round() of KeysReq whose result is the union over its replies.
  OpId list_keys(KeysCallback cb);

  /// One quorum round: broadcasts request(op_id, seq) to the group. A
  /// reply carrying a newer change set restarts it under a new seq (like
  /// every in-flight operation); the retry timer re-sends it under the
  /// same seq. Once the distinct responders of the current attempt form a
  /// weighted quorum, done fires once with every reply of that attempt in
  /// arrival order, duplicates included — the caller folds them. Rounds
  /// are never batched, never ordered behind keyed operations and never
  /// redirected.
  OpId round(RoundRequest request, RoundDone done);

  /// Snapshot write-back: a write of a PRESET (tag, value) (the
  /// double-collect confirmation writes back non-unanimous keys), so it
  /// runs only its write round, like any write with its tag chosen.
  /// Tag-monotone and idempotent, like any ABD write-back. Exempt from
  /// the one-op-per-key contract and never ordered behind keyed traffic:
  /// it races no tag choice (its tag is fixed) and must not deadlock
  /// behind requests parked at a fenced server.
  OpId install(RegisterKey key, TaggedValue reg, WriteCallback cb);

  /// An in-flight operation extracted for reissue at another shard after a
  /// WrongShardAck redirect (ShardRouter). Carries exactly the state the
  /// new shard's client needs: a write keeps its once-chosen tag — the
  /// ghost-tag argument for change-set restarts applies unchanged to
  /// cross-shard reissue.
  struct EjectedOp {
    OpKind kind = OpKind::kRead;
    RegisterKey key;
    Value value;
    TaggedValue to_write;
    bool write_tag_chosen = false;
    ReadCallback rcb;
    WriteCallback wcb;
  };

  /// Removes operation `id` and returns its reissuable state; nullopt
  /// when the op is unknown, already completed, or a round (rounds are
  /// never redirected).
  std::optional<EjectedOp> eject(OpId id);

  /// Re-enqueues an ejected operation on THIS client (the redirect
  /// target) under a fresh OpId; a write with its tag chosen runs only its
  /// write round. The key stays busy in the router's FIFO until the op
  /// completes, so the one-op-per-key contract holds across the move.
  OpId resume(EjectedOp op);

  /// Routes R_A / W_A / KEYS_A / SNAP_A replies; true iff consumed. Replies whose
  /// OpId belongs to no in-flight operation are NOT consumed (they may
  /// target a co-located client sharing this mailbox, or be late acks of
  /// a completed operation).
  bool handle(ProcessId from, const Message& msg);

  /// True while any operation is in flight.
  bool busy() const { return !ops_.empty(); }
  /// Operations currently in flight (every one has started its rounds).
  std::size_t in_flight() const { return ops_.size(); }
  /// High-water mark of in_flight() (ops whose quorum rounds genuinely
  /// overlapped) — lets tests assert that pipelining overlapped work.
  std::size_t max_in_flight() const { return max_in_flight_; }

  /// The client's current change set (dynamic mode).
  const ChangeSet& changes() const { return changes_; }

  /// Weight map the client currently derives quorums from (its cache of
  /// changes().to_weight_map(servers) in dynamic mode).
  WeightMap current_weights() const;

  /// Total operation restarts caused by newer change sets (EXP-S1).
  std::uint64_t restarts() const { return restarts_; }

  /// Safety valve for tests: maximum restarts per operation before the
  /// client reports a bug (liveness assumes finitely many transfers).
  void set_max_restarts(std::uint32_t m) { max_restarts_ = m; }

  /// Retransmission (off by default, interval <= 0): while an operation
  /// sits in the same (phase, seq) for `interval`, its current phase
  /// broadcast is re-sent with the SAME (op_id, seq) — servers are
  /// idempotent and duplicate replies collapse, so this is always safe.
  /// Required for liveness when the fault plane (Env::faults()) loses
  /// messages: without it a dropped quorum message stalls the operation
  /// forever, even after the link heals.
  void set_retry_interval(TimeNs interval) { retry_interval_ = interval; }

  /// Phase broadcasts re-sent by the retry timer (observability/tests).
  std::uint64_t retransmits() const { return retransmits_; }

  /// Batched wire mode. `max_ops` <= 1 disables it (the default) — that
  /// path is byte-identical to the pre-batching client. With batching on,
  /// every read/write phase broadcast is buffered and the buffer is flushed as ONE
  /// BatchRequest to the group when it holds `max_ops` frames or
  /// `max_delay` after the first frame was buffered, whichever happens
  /// first (max_delay 0 still defers to a zero-delay callback, so every
  /// operation issued in the same handler tick coalesces).
  void set_batching(std::size_t max_ops, TimeNs max_delay);
  bool batching() const { return batch_max_ops_ > 1; }

  /// Envelopes flushed / frames carried by them (observability: the mean
  /// frames-per-envelope is batched_frames()/batches_sent()).
  std::uint64_t batches_sent() const { return batches_sent_; }
  std::uint64_t batched_frames() const { return batched_frames_; }

 private:
  struct Op {
    OpId id = 0;
    OpKind kind = OpKind::kRead;
    RegisterKey key;
    Value value;  // payload for writes
    int phase = 1;
    std::uint32_t seq = 0;  // phase-attempt counter echoed in replies
    // Reply accounting is flat vectors, not node-based sets/maps: a
    // replica group is a handful of servers, so membership checks are a
    // short linear scan over one cache line and a read/write phase
    // never allocates per reply.
    /// Distinct responders of the current attempt, in arrival order; a
    /// read's phase 2 starts with its phase-1 holders.
    std::vector<ProcessId> responders;
    /// Phase 1: each responder's last reply, index-aligned with responders.
    std::vector<TaggedValue> phase1_replies;
    TaggedValue to_write;  // also a read's result once phase 1 closed
    bool write_tag_chosen = false;
    ReadCallback rcb;
    WriteCallback wcb;
    std::uint32_t op_restarts = 0;
    // kRound only.
    RoundRequest request;
    RoundDone done;
    std::vector<Reply> replies;  ///< the current attempt's, in arrival order
  };

  /// One buffered phase broadcast awaiting the next envelope flush. The
  /// (id, seq) pair lets the flush skip frames whose operation completed
  /// or restarted while buffered.
  struct PendingFrame {
    OpId id = 0;
    std::uint32_t seq = 0;
    MsgPtr msg;
  };

  OpId enqueue(Op op);
  void start_phase1(Op& op);
  void start_phase2(Op& op);
  void broadcast_phase(const Op& op);
  void enqueue_frame(const Op& op, MsgPtr msg);
  void flush_batch();
  void schedule_retry(OpId id, std::uint32_t seq);
  void complete(OpId id);
  template <typename Ack>
  bool on_reply(ProcessId from, const Ack& ack);
  bool merge_and_maybe_restart(ProcessId from, const ChangeSetPtr& incoming,
                               SetVersion version);
  void note_version(ProcessId from, const ChangeSetPtr& incoming,
                    SetVersion version);
  bool responders_form_quorum(const std::vector<ProcessId>& responders) const;
  std::size_t position(ProcessId server) const;
  static OpId fresh_op_id();

  Env& env_;
  ProcessId self_;
  SystemConfig config_;
  /// The group's server ids, cached: broadcasts go to exactly this set
  /// (one replica group of a possibly sharded deployment), never to
  /// every server registered in the Env.
  std::vector<ProcessId> servers_;
  Mode mode_;
  Weight initial_total_;

  ChangeSet changes_;
  /// The SetVersion last merged from each server, by group position; it
  /// rides on every R/W/KEYS request (empty in static mode).
  KnownVersions known_;
  /// W_s under changes_ (the initial weights in static mode), by group
  /// position; recomputed only when a merge grows changes_.
  std::vector<Weight> weights_;
  /// Concurrent operation state machines, keyed by OpId. FlatMap keeps
  /// in-flight state contiguous; OpIds are allocated monotonically, so
  /// inserts land at the back.
  FlatMap<OpId, Op> ops_;
  std::size_t max_in_flight_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint32_t max_restarts_ = 10'000;
  TimeNs retry_interval_ = 0;
  std::uint64_t retransmits_ = 0;

  // --- batched wire mode ---------------------------------------------------
  std::size_t batch_max_ops_ = 1;  // <= 1: unbatched (byte-identical)
  TimeNs batch_max_delay_ = 0;
  std::vector<PendingFrame> batch_buf_;
  /// Bumped on every flush and every armed timer; a timer only fires its
  /// flush when its generation is still current (stale timers of already
  /// flushed batches must not split the batch that followed them).
  std::uint64_t batch_timer_gen_ = 0;
  std::uint64_t batches_sent_ = 0;
  std::uint64_t batched_frames_ = 0;
};

}  // namespace wrs
