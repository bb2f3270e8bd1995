// Server side of the (dynamic-weighted) ABD register — Algorithm 6.
//
// Differences from classical ABD:
//  * every R_A/W_A/KEYS_A carries the server's current change set and
//    its version (supplied by a provider callback wired to the
//    co-located ReassignNode; null in static deployments), unless the
//    request's KnownVersions entry for this server's group position
//    already equals that version — then it carries neither. The version
//    is the set's size tagged with this AbdServer's incarnation: the set
//    only grows while the server lives, and a server restarted with
//    empty state is a new incarnation, so an equal version means an
//    equal set — one the client already merged (see abd_messages.h).
//    Migration and snapshot acks, which answer requests without known
//    versions, ship the full set;
//  * registers are NAMED: the paper's single register is key "". The
//    multi-register ("key-value") mode is an extension of the paper —
//    see DynamicStorageNode for the gain-refresh implications.
//
// Sharding: the server belongs to one replica group and DROPS requests
// whose shard id differs from its own (misrouted traffic — counted, so
// routing bugs surface in tests instead of silently inflating quorums).
//
// Batched envelopes: a BatchRequest is unpacked and every frame applied
// through the ordinary request logic; the acks travel back as one
// BatchReply. Each APPLIED frame costs a full service_time of modeled
// serial work (misrouted frames are free, like misrouted singles), so
// batching amortizes MESSAGES, never the M/D/1 CPU.
//
// Service-time model (off by default): set_service_time(t) makes the
// server behave like a node whose storage engine needs `t` of serial
// per-request work (disk/SSD access, CPU-bound state machine, ...).
// Requests are queued through a busy-until watermark — exactly an
// M/D/1-style serial queue — so a server's capacity is 1/t requests per
// second on BOTH runtimes. This is what gives a shard a finite, honest
// capacity in scale-out benchmarks: the quorum protocol above it is
// measured against a modeled per-node bottleneck instead of whatever
// the host machine's core count happens to be.
// Elastic resharding (PR 7): the server keeps a per-key ROUTE MARK
// — (map epoch, owner shard, frozen?) — driven by the MigrationEngine's
// MigFreeze/MigCommit rounds. A frozen key parks incoming client
// requests (bounded queue) instead of serving them, so the engine's
// final read is definitive; a key whose mark names another owner is
// answered with a WrongShardAck redirect carrying the owner and epoch.
// Marks apply with "newest epoch wins", mirroring ShardMap overrides.
//
// Atomic snapshots (PR 10): SnapReq answers a whole key list in one
// round (the collect of the double-collect snapshot). The fenced
// fallback adds per-key SNAP FENCES, separate from migration route
// marks: SnapFreeze parks client requests AND MigFreeze rounds for the
// named keys behind the snapshot's id, SnapRelease installs the adopted
// replicas tag-monotonically and drains the parked queue. Fences are
// leases — a TTL timer auto-releases them so a dead snapshot client
// cannot park a key forever; the release ack's `held` bit tells the
// client when its fence expired underneath it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "runtime/env.h"
#include "runtime/msg_pool.h"
#include "storage/abd_messages.h"
#include "storage/migration_messages.h"
#include "storage/snapshot_messages.h"

namespace wrs {

class AbdServer {
 public:
  /// `changes_provider` returns the server's current change set snapshot
  /// for piggybacking, or null in static deployments.
  using ChangesProvider = std::function<ChangeSetPtr()>;

  /// `group_index` is this server's position in its group's server list:
  /// the entry of a request's KnownVersions that speaks for it.
  AbdServer(Env& env, ProcessId self, ChangesProvider changes_provider,
            ShardId shard = 0, std::size_t group_index = 0)
      : env_(env),
        self_(self),
        shard_(shard),
        group_index_(group_index),
        incarnation_(fresh_incarnation()),
        changes_provider_(std::move(changes_provider)) {}

  /// Routes R / W / KEYS messages and batched envelopes; true iff
  /// consumed. Replies echo the request's (op_id, seq) so the client can
  /// route and de-stale them. Requests addressed to another shard are
  /// consumed but never answered.
  ///
  /// A BatchRequest is unpacked frame by frame through the same
  /// per-request logic, its acks collected into ONE BatchReply, and the
  /// envelope charged one `service_time` of serial work per APPLIED
  /// frame (misrouted frames are dropped without an ack and — like
  /// misrouted single requests — cost nothing): batching cuts messages,
  /// never modeled CPU.
  bool handle(ProcessId from, const Message& msg) {
    if (const auto* b = msg_cast<BatchRequest>(msg)) {
      if (misrouted(b->shard())) return true;
      ++batches_served_;
      std::vector<MsgPtr> acks;
      acks.reserve(b->frames().size());
      for (const MsgPtr& frame : b->frames()) {
        MsgPtr ack = apply(from, *frame);
        if (!ack) continue;
        if (msg_cast<WrongShardAck>(*ack)) {
          // Redirects travel as singles: the router intercepts them at
          // the top level (a nested redirect would reach the inner
          // client's demux, which cannot eject across shards).
          reply(from, std::move(ack), service_time_);
          continue;
        }
        acks.push_back(std::move(ack));
      }
      if (!acks.empty()) {
        TimeNs cost =
            service_time_ * static_cast<TimeNs>(acks.size());
        reply(from, make_msg<BatchReply>(std::move(acks)), cost);
      }
      return true;
    }
    if (const auto* f = msg_cast<MigFreeze>(msg)) {
      if (misrouted(f->shard())) return true;
      handle_freeze(from, *f);
      return true;
    }
    if (const auto* c = msg_cast<MigCommit>(msg)) {
      if (misrouted(c->shard())) return true;
      handle_commit(from, *c);
      return true;
    }
    if (const auto* s = msg_cast<SnapReq>(msg)) {
      if (misrouted(s->shard())) return true;
      handle_snap_collect(from, *s);
      return true;
    }
    if (const auto* s = msg_cast<SnapFreeze>(msg)) {
      if (misrouted(s->shard())) return true;
      handle_snap_freeze(from, *s);
      return true;
    }
    if (const auto* s = msg_cast<SnapRelease>(msg)) {
      if (misrouted(s->shard())) return true;
      handle_snap_release(from, *s);
      return true;
    }
    if (!msg_cast<ReadReq>(msg) && !msg_cast<WriteReq>(msg) &&
        !msg_cast<KeysReq>(msg)) {
      return false;
    }
    if (MsgPtr ack = apply(from, msg)) {
      reply(from, std::move(ack), service_time_);
    }
    return true;
  }

  /// Register contents for `key` (initial <<0,⊥>,⊥> when never written).
  const TaggedValue& reg(const RegisterKey& key = "") const {
    static const TaggedValue kEmpty{};
    auto it = regs_.find(key);
    return it == regs_.end() ? kEmpty : it->second;
  }
  void set_reg(TaggedValue reg, const RegisterKey& key = "") {
    regs_[key] = std::move(reg);
  }
  std::size_t register_count() const { return regs_.size(); }

  ShardId shard() const { return shard_; }
  /// Requests dropped because they carried another group's shard id —
  /// whole misrouted envelopes count once, like any other request.
  std::uint64_t misrouted_count() const { return misrouted_; }
  /// Batched envelopes unpacked (observability for batching tests).
  std::uint64_t batches_served() const { return batches_served_; }

  /// Serial per-request service time (0 = reply inline, the default —
  /// byte- and event-identical to the pre-model server).
  void set_service_time(TimeNs t) { service_time_ = t; }
  TimeNs service_time() const { return service_time_; }

  // --- elastic resharding -------------------------------------------------

  /// The migration state of one key as this server knows it.
  struct RouteMark {
    std::uint64_t epoch = 0;  ///< newest map epoch seen for the key
    ShardId owner = 0;        ///< the key's owner shard as of `epoch`
    bool frozen = false;      ///< fence up: park client requests
    bool committed = false;   ///< latest event was a commit (not a freeze)
  };

  /// This server's route mark for `key`, if any migration ever touched it
  /// (test observability; call only when the deployment is quiescent).
  std::optional<RouteMark> route_mark(const RegisterKey& key) const {
    auto it = route_marks_.find(key);
    if (it == route_marks_.end()) return std::nullopt;
    return it->second;
  }

  /// Client requests parked behind a freeze fence (cumulative).
  std::uint64_t frozen_parked() const { return frozen_parked_; }
  /// Parked requests dropped because a key's park queue overflowed —
  /// client retries cover these.
  std::uint64_t parked_dropped() const { return parked_dropped_; }
  /// WrongShardAck redirects sent for moved keys.
  std::uint64_t redirects_sent() const { return redirects_sent_; }
  /// MigCommit rounds applied (either side of a handoff).
  std::uint64_t migration_commits() const { return migration_commits_; }

  // --- atomic snapshots ----------------------------------------------------

  /// Snap fences currently up (test observability; call only from this
  /// server's execution context or when the deployment is quiescent).
  std::size_t snap_fences_up() const { return snap_fences_.size(); }
  /// Snap fences installed by SnapFreeze rounds (cumulative).
  std::uint64_t snap_fences_installed() const { return snap_fences_installed_; }
  /// Snap fences auto-released by the TTL lease instead of a SnapRelease.
  std::uint64_t snap_fences_expired() const { return snap_fences_expired_; }
  /// SnapReq collect rounds served.
  std::uint64_t snap_collects_served() const { return snap_collects_served_; }

  /// Served read/write requests per key since the last drain, and clears
  /// the window. Thread-safe (the Rebalancer reads it from another
  /// execution context on the thread runtime).
  std::map<RegisterKey, std::uint64_t> drain_key_hits() {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return std::exchange(key_hits_, {});
  }

  /// Cumulative served read/write requests (never cleared); thread-safe.
  std::uint64_t hits_total() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return hits_total_;
  }

 private:
  ChangeSetPtr snapshot() const {
    return changes_provider_ ? changes_provider_() : nullptr;
  }

  /// The change set and its version as a reply carries them: both are
  /// left out when the requester's entry for this server already names
  /// the set.
  struct Piggyback {
    ChangeSetPtr changes;
    SetVersion version = 0;
  };
  Piggyback piggyback(const KnownVersions& known) const {
    ChangeSetPtr cs = snapshot();
    if (!cs) return {};
    SetVersion v = (SetVersion{incarnation_} << 32) | cs->size();
    if (known.at(group_index_) == v) return {};
    return {std::move(cs), v};
  }

  /// Distinct for every AbdServer built in this process, and random
  /// across processes, so a restarted server never reuses the version of
  /// a set its predecessor shipped. Never 0 (0 is "no version").
  static std::uint32_t fresh_incarnation() {
    static const std::uint32_t seed = std::random_device{}();
    static std::atomic<std::uint32_t> next{0};
    std::uint32_t v = 0;
    while (v == 0) v = seed + next.fetch_add(1, std::memory_order_relaxed);
    return v;
  }

  bool misrouted(ShardId requested) {
    if (requested == shard_) return false;
    ++misrouted_;
    return true;
  }

  /// Applies one ABD request against the register state and returns its
  /// ack — or null when `msg` is no ABD request, is addressed to another
  /// shard (counted; defense in depth for frames of a batched envelope
  /// whose own shard id somehow disagrees with the envelope's), or was
  /// parked behind a freeze fence (answered later, when the fence lifts).
  MsgPtr apply(ProcessId from, const Message& msg) {
    if (const auto* r = msg_cast<ReadReq>(msg)) {
      if (misrouted(r->shard())) return nullptr;
      if (MsgPtr verdict = route_check(from, r->key(), r->op_id(), r->seq(),
                                       make_msg<ReadReq>(*r))) {
        return verdict == kParkedSentinel() ? nullptr : verdict;
      }
      note_hit(r->key());
      Piggyback p = piggyback(r->known());
      return make_msg<ReadAck>(r->op_id(), reg(r->key()),
                               std::move(p.changes), r->seq(), p.version);
    }
    if (const auto* w = msg_cast<WriteReq>(msg)) {
      if (misrouted(w->shard())) return nullptr;
      if (MsgPtr verdict = route_check(from, w->key(), w->op_id(), w->seq(),
                                       make_msg<WriteReq>(*w))) {
        return verdict == kParkedSentinel() ? nullptr : verdict;
      }
      note_hit(w->key());
      TaggedValue& slot = regs_[w->key()];
      if (slot.tag < w->reg().tag) slot = w->reg();
      Piggyback p = piggyback(w->known());
      return make_msg<WriteAck>(w->op_id(), std::move(p.changes), w->seq(),
                                p.version);
    }
    if (const auto* k = msg_cast<KeysReq>(msg)) {
      if (misrouted(k->shard())) return nullptr;
      std::vector<RegisterKey> keys;
      keys.reserve(regs_.size());
      for (const auto& [key, _] : regs_) {
        // A replica left behind by an outbound migration is a ghost: the
        // key's owner lists it, this group must not (no double-listing
        // across the map-epoch commit).
        auto it = route_marks_.find(key);
        if (it != route_marks_.end() && it->second.owner != shard_) continue;
        keys.push_back(key);
      }
      Piggyback p = piggyback(k->known());
      return make_msg<KeysAck>(k->op_id(), std::move(keys),
                               std::move(p.changes), k->seq(), p.version);
    }
    return nullptr;
  }

  /// Shared read/write admission against the key's route mark and snap
  /// fence: null means "serve it", the park sentinel means "parked,
  /// answer later", anything else is the WrongShardAck to send instead.
  /// The snap-fence check precedes the moved check so that requests a
  /// concurrent migration drains early re-park until the snapshot's
  /// release — the cut must not observe writes completing mid-fence.
  MsgPtr route_check(ProcessId from, const RegisterKey& key, OpId op_id,
                     std::uint32_t seq, MsgPtr req) {
    auto it = route_marks_.find(key);
    if (it != route_marks_.end() && it->second.frozen) {
      park(from, key, std::move(req));
      return kParkedSentinel();
    }
    if (snap_fences_.count(key)) {
      park(from, key, std::move(req));
      return kParkedSentinel();
    }
    if (it != route_marks_.end() && it->second.owner != shard_) {
      ++redirects_sent_;
      return make_msg<WrongShardAck>(op_id, key, it->second.owner,
                                             it->second.epoch, seq);
    }
    return nullptr;
  }

  /// Parks one request behind a (migration or snap) fence, bounded per
  /// key — overflow is shed to client retries.
  void park(ProcessId from, const RegisterKey& key, MsgPtr req) {
    auto& queue = parked_[key];
    if (queue.size() >= kMaxParkedPerKey) {
      ++parked_dropped_;  // client retry covers it
    } else {
      queue.push_back(Parked{from, std::move(req)});
      ++frozen_parked_;
    }
  }

  /// Distinguishes "parked" from "serve" in route_check's return channel.
  static const MsgPtr& kParkedSentinel() {
    static const MsgPtr sentinel =
        make_msg<WrongShardAck>(0, "", 0, 0);
    return sentinel;
  }

  /// MigFreeze: fence the key and answer with the replica — the final
  /// ABD read of the handoff. Stale fences (older than the newest mark,
  /// or a duplicate of an epoch already committed) are dropped so a
  /// delayed/duplicated freeze can never re-fence a finished migration.
  void handle_freeze(ProcessId from, const MigFreeze& f) {
    // A snap fence parks the migration fence itself: the snapshot's
    // freeze quorum intersects the migration's, so either the snapshot
    // aborts on a frozen flag or the migration waits for the release —
    // never a missed ownership move inside a cut.
    if (snap_fences_.count(f.key())) {
      park(from, f.key(), make_msg<MigFreeze>(f));
      return;
    }
    RouteMark& mark = route_marks_[f.key()];
    bool fresh = f.epoch() > mark.epoch;
    bool retry = f.epoch() == mark.epoch && !mark.committed;
    if (!fresh && !retry) return;
    mark.epoch = f.epoch();
    mark.owner = shard_;
    mark.frozen = true;
    mark.committed = false;
    Piggyback p = piggyback(KnownVersions{});
    reply(from,
          make_msg<ReadAck>(f.op_id(), reg(f.key()), std::move(p.changes),
                            f.seq(), p.version),
          service_time_);
  }

  /// MigCommit: adopt "key is owned by `owner` as of `epoch`", lift the
  /// fence, and drain parked requests through the ordinary apply path
  /// (they come out as redirects when ownership moved away). Applies for
  /// any epoch >= the newest mark (idempotent under engine retries);
  /// older commits are dropped without an ack.
  void handle_commit(ProcessId from, const MigCommit& c) {
    RouteMark& mark = route_marks_[c.key()];
    if (c.epoch() < mark.epoch) return;
    mark.epoch = c.epoch();
    mark.owner = c.owner();
    mark.frozen = false;
    mark.committed = true;
    ++migration_commits_;
    // The destination-side commit carries the frozen replica: install it
    // tag-monotonically in the same step that flips ownership, so a
    // destination quorum never serves the key without the migrated value.
    if (c.install()) {
      TaggedValue& slot = regs_[c.key()];
      if (slot.tag < c.install()->tag) slot = *c.install();
    }
    Piggyback p = piggyback(KnownVersions{});
    reply(from,
          make_msg<WriteAck>(c.op_id(), std::move(p.changes), c.seq(),
                             p.version),
          service_time_);
    drain_parked(c.key());
  }

  /// Replays the key's parked queue: MigFreeze rounds re-enter
  /// handle_freeze (they may re-park under a snap fence), client
  /// requests go through the ordinary apply path (re-parking or
  /// redirecting as the current marks dictate).
  void drain_parked(const RegisterKey& key) {
    auto parked = parked_.find(key);
    if (parked == parked_.end()) return;
    std::vector<Parked> queue = std::move(parked->second);
    parked_.erase(parked);
    for (Parked& p : queue) {
      if (const auto* f = msg_cast<MigFreeze>(*p.req)) {
        handle_freeze(p.from, *f);
        continue;
      }
      if (MsgPtr ack = apply(p.from, *p.req)) {
        reply(p.from, std::move(ack), service_time_);
      }
    }
  }

  // --- atomic snapshots ----------------------------------------------------

  /// One key's slice of a collect/freeze ack: the replica when the key
  /// is serveable, else the flag the client routes around. `requester`
  /// is the asking snapshot's id (its own fence does not block it); 0
  /// for collects, which any fence blocks.
  SnapEntry snap_entry_for(const RegisterKey& key, SnapId requester) {
    SnapEntry e;
    e.key = key;
    auto mark = route_marks_.find(key);
    if (mark != route_marks_.end()) {
      if (mark->second.frozen) {
        e.flag = SnapEntry::kFrozen;
        return e;
      }
      if (mark->second.owner != shard_) {
        e.flag = SnapEntry::kMoved;
        e.owner = mark->second.owner;
        e.epoch = mark->second.epoch;
        return e;
      }
    }
    auto fence = snap_fences_.find(key);
    if (fence != snap_fences_.end() && fence->second.snap_id != requester) {
      e.flag = SnapEntry::kFrozen;
      return e;
    }
    note_hit(key);
    e.reg = reg(key);
    return e;
  }

  /// SnapReq: the collect round — every requested key's replica (or its
  /// blocking flag) in one reply. Costs one service_time per key: a
  /// collect reads as many registers as the individual reads it
  /// replaces, so it amortizes messages, never modeled CPU.
  void handle_snap_collect(ProcessId from, const SnapReq& s) {
    ++snap_collects_served_;
    std::vector<SnapEntry> entries;
    entries.reserve(s.keys().size());
    for (const RegisterKey& key : s.keys()) {
      entries.push_back(snap_entry_for(key, /*requester=*/0));
    }
    TimeNs cost = service_time_ * static_cast<TimeNs>(s.keys().size());
    reply(from,
          make_msg<SnapAck>(s.op_id(), std::move(entries), snapshot(),
                            s.seq()),
          cost);
  }

  /// SnapFreeze: fence every serveable key under the snapshot's id and
  /// reply with the replicas (the freeze doubles as the fallback's
  /// read). Keys blocked by a migration fence, a foreign snapshot, or a
  /// moved mark are flagged instead of fenced — the client aborts and
  /// retries on any non-ok flag. Re-fencing under the same snap_id
  /// refreshes the TTL lease (idempotent under retransmits).
  void handle_snap_freeze(ProcessId from, const SnapFreeze& f) {
    std::vector<SnapEntry> entries;
    entries.reserve(f.keys().size());
    for (const RegisterKey& key : f.keys()) {
      SnapEntry e = snap_entry_for(key, f.snap_id());
      if (e.flag == SnapEntry::kOk) {
        SnapFence& fence = snap_fences_[key];
        if (fence.snap_id != f.snap_id()) ++snap_fences_installed_;
        fence.snap_id = f.snap_id();
        std::uint64_t gen = ++snap_fence_gen_;
        fence.gen = gen;
        env_.schedule(self_, kSnapFenceTtl, [this, key, gen] {
          auto it = snap_fences_.find(key);
          if (it == snap_fences_.end() || it->second.gen != gen) return;
          snap_fences_.erase(it);
          ++snap_fences_expired_;
          drain_parked(key);
        });
      }
      entries.push_back(std::move(e));
    }
    TimeNs cost = service_time_ * static_cast<TimeNs>(f.keys().size());
    reply(from,
          make_msg<SnapAck>(f.op_id(), std::move(entries), snapshot(),
                            f.seq()),
          cost);
  }

  /// SnapRelease: adopt kOk installs tag-monotonically (the scanner's
  /// scan-embedded-in-update — the cut's values land before any parked
  /// writer resumes), lift this snapshot's fences, and drain the parked
  /// queues. `held` reports whether every named fence was still up under
  /// the releasing snap_id; a TTL-expired fence turns it false and the
  /// client discards the round.
  void handle_snap_release(ProcessId from, const SnapRelease& rel) {
    bool held = true;
    for (const SnapEntry& e : rel.installs()) {
      auto it = snap_fences_.find(e.key);
      bool mine =
          it != snap_fences_.end() && it->second.snap_id == rel.snap_id();
      if (!mine) held = false;
      if (e.flag == SnapEntry::kOk) {
        TaggedValue& slot = regs_[e.key];
        if (slot.tag < e.reg.tag) slot = e.reg;
      }
      if (mine) {
        snap_fences_.erase(it);
        drain_parked(e.key);
      }
    }
    reply(from,
          make_msg<SnapAck>(rel.op_id(), std::vector<SnapEntry>{}, snapshot(),
                            rel.seq(), held),
          service_time_);
  }

  void note_hit(const RegisterKey& key) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++key_hits_[key];
    ++hits_total_;
  }

  /// Replies inline, or through the serial service queue: each request
  /// occupies the server for `cost` (one service_time_ per applied frame
  /// — a batched envelope costs as much modeled CPU as its frames would
  /// have individually), requests arriving while busy wait their turn
  /// (handlers are serialized per process, so the watermark needs no
  /// lock).
  void reply(ProcessId to, MsgPtr ack, TimeNs cost) {
    if (cost <= 0) {
      env_.send(self_, to, std::move(ack));
      return;
    }
    TimeNs free_at = std::max(env_.now(), busy_until_) + cost;
    busy_until_ = free_at;
    env_.schedule(self_, free_at - env_.now(),
                  [this, to, ack = std::move(ack)]() mutable {
                    env_.send(self_, to, std::move(ack));
                  });
  }

  /// One client request waiting behind a freeze fence.
  struct Parked {
    ProcessId from;
    MsgPtr req;
  };
  /// Per-key park queue bound: the fence window is a couple of quorum
  /// round trips, so anything past this is a pathological pile-up better
  /// shed to client retries than buffered.
  static constexpr std::size_t kMaxParkedPerKey = 512;

  Env& env_;
  ProcessId self_;
  ShardId shard_;
  std::size_t group_index_;
  std::uint32_t incarnation_;
  ChangesProvider changes_provider_;
  std::map<RegisterKey, TaggedValue> regs_;
  /// Checked on EVERY read/write (route_check) but populated only by the
  /// rare migration verbs: flat and contiguous, so the common probe is a
  /// binary search over a handful of entries instead of a tree walk.
  FlatMap<RegisterKey, RouteMark> route_marks_;
  FlatMap<RegisterKey, std::vector<Parked>> parked_;
  /// Lease on a snap fence: a SnapRelease normally lifts it, the TTL
  /// covers a crashed snapshot client. It spans hundreds of quorum round
  /// trips — long enough that a live client never loses its fence
  /// mid-snapshot, short enough that chaos episodes drain.
  static constexpr TimeNs kSnapFenceTtl = ms(1000);
  /// One fence per snap-frozen key. `gen` invalidates stale TTL timers:
  /// every install/refresh bumps it, and an expiry callback fires only
  /// when its captured gen still matches.
  struct SnapFence {
    SnapId snap_id = 0;
    std::uint64_t gen = 0;
  };
  FlatMap<RegisterKey, SnapFence> snap_fences_;
  std::uint64_t snap_fence_gen_ = 0;
  std::uint64_t snap_fences_installed_ = 0;
  std::uint64_t snap_fences_expired_ = 0;
  std::uint64_t snap_collects_served_ = 0;
  std::uint64_t misrouted_ = 0;
  std::uint64_t batches_served_ = 0;
  std::uint64_t frozen_parked_ = 0;
  std::uint64_t parked_dropped_ = 0;
  std::uint64_t redirects_sent_ = 0;
  std::uint64_t migration_commits_ = 0;
  TimeNs service_time_ = 0;
  TimeNs busy_until_ = 0;
  /// Guards the hit-count window: written on the serve path (server
  /// context), drained by the Rebalancer from the engine's context.
  mutable std::mutex stats_mu_;
  std::map<RegisterKey, std::uint64_t> key_hits_;
  std::uint64_t hits_total_ = 0;
};

}  // namespace wrs
