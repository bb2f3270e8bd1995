#include "storage/abd_client.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <set>
#include <stdexcept>
#include <type_traits>

#include "common/logging.h"
#include "runtime/msg_pool.h"
#include "storage/snapshot_messages.h"

namespace wrs {

namespace {
// Op ids are unique across every AbdClient instance in the process so
// that two clients co-located in one Process (e.g. a storage node's
// refresh reader plus a workload client) never confuse replies.
std::atomic<std::uint64_t> g_next_op_id{1};
}  // namespace

AbdClient::AbdClient(Env& env, ProcessId self, const SystemConfig& config,
                     Mode mode)
    : env_(env),
      self_(self),
      config_(config),
      servers_(config.servers()),
      mode_(mode),
      initial_total_(config.initial_total()),
      changes_(ChangeSet::initial(config.initial_weights)) {}

OpId AbdClient::fresh_op_id() {
  return g_next_op_id.fetch_add(1, std::memory_order_relaxed);
}

WeightMap AbdClient::current_weights() const {
  if (mode_ == Mode::kStatic) return config_.initial_weights;
  return changes_.to_weight_map(servers_);
}

OpId AbdClient::read(RegisterKey key, ReadCallback cb) {
  Op op;
  op.kind = OpKind::kRead;
  op.key = std::move(key);
  op.rcb = std::move(cb);
  return enqueue(std::move(op));
}

OpId AbdClient::write(RegisterKey key, Value value, WriteCallback cb) {
  Op op;
  op.kind = OpKind::kWrite;
  op.key = std::move(key);
  op.value = std::move(value);
  op.wcb = std::move(cb);
  return enqueue(std::move(op));
}

OpId AbdClient::list_keys(KeysCallback cb) {
  ShardId shard = config_.shard;
  return round(
      [shard](OpId id, std::uint32_t seq) {
        return make_msg<KeysReq>(id, seq, shard);
      },
      [cb = std::move(cb)](const std::vector<Reply>& replies) {
        std::set<RegisterKey> keys;
        for (const Reply& r : replies) {
          if (const auto* ack = msg_cast<KeysAck>(*r.msg)) {
            keys.insert(ack->keys().begin(), ack->keys().end());
          }
        }
        cb(std::vector<RegisterKey>(keys.begin(), keys.end()));
      });
}

OpId AbdClient::round(RoundRequest request, RoundDone done) {
  Op op;
  op.kind = OpKind::kRound;
  op.request = std::move(request);
  op.done = std::move(done);
  return enqueue(std::move(op));
}

OpId AbdClient::install(RegisterKey key, TaggedValue reg, WriteCallback cb) {
  Op op;
  op.kind = OpKind::kInstall;
  op.key = std::move(key);
  op.to_write = std::move(reg);
  op.write_tag_chosen = true;  // the tag is preset: never re-minted
  op.wcb = std::move(cb);
  return enqueue(std::move(op));
}

std::optional<AbdClient::EjectedOp> AbdClient::eject(OpId id) {
  auto it = ops_.find(id);
  if (it == ops_.end()) return std::nullopt;
  Op& op = it->second;
  if (op.kind == OpKind::kRound) return std::nullopt;
  EjectedOp out;
  out.kind = op.kind;
  out.key = op.key;
  out.value = std::move(op.value);
  out.to_write = std::move(op.to_write);
  out.write_tag_chosen = op.write_tag_chosen;
  out.rcb = std::move(op.rcb);
  out.wcb = std::move(op.wcb);
  ops_.erase(it);
  return out;
}

OpId AbdClient::resume(EjectedOp e) {
  Op op;
  op.kind = e.kind;
  op.key = std::move(e.key);
  op.value = std::move(e.value);
  op.to_write = std::move(e.to_write);
  op.write_tag_chosen = e.write_tag_chosen;
  op.rcb = std::move(e.rcb);
  op.wcb = std::move(e.wcb);
  return enqueue(std::move(op));
}

OpId AbdClient::enqueue(Op op) {
#ifndef NDEBUG
  // The caller's contract (see the header): at most one read/write per
  // key in flight, or two writes could race the (max_ts+1, pid) tag.
  auto keyed = [](OpKind k) {
    return k == OpKind::kRead || k == OpKind::kWrite;
  };
  if (keyed(op.kind)) {
    for (const auto& [_, other] : ops_) {
      assert(!(keyed(other.kind) && other.key == op.key) &&
             "AbdClient: a second read/write on a key already in flight");
    }
  }
#endif
  OpId id = fresh_op_id();
  op.id = id;
  Op& slot = ops_.emplace(id, std::move(op)).first->second;
  max_in_flight_ = std::max(max_in_flight_, ops_.size());
  start_phase1(slot);
  return id;
}

void AbdClient::start_phase1(Op& op) {
  op.phase1_replies.clear();
  op.responders.clear();
  op.replies.clear();
  if (op.write_tag_chosen) {
    // A fixed tag (an install's preset, or a write's tag kept across
    // restarts and redirects so no "ghost" tag is minted) leaves a read
    // round's result unused: every (re)start runs only the write round.
    // A kept tag came from a quorum read, so it still dominates every
    // write completed before the op started, which is all atomicity needs.
    start_phase2(op);
    return;
  }
  op.phase = 1;
  ++op.seq;
  broadcast_phase(op);
  schedule_retry(op.id, op.seq);
}

void AbdClient::start_phase2(Op& op) {
  // op.responders already lists the servers known to store op.to_write:
  // none for a write or an install, the phase-1 holders for a read.
  op.phase = 2;
  ++op.seq;
  broadcast_phase(op);
  schedule_retry(op.id, op.seq);
}

void AbdClient::broadcast_phase(const Op& op) {
  if (op.kind == OpKind::kRound) {
    // Rounds are control traffic (collects, fences, key discovery) and
    // never coalesce into a batch envelope.
    env_.broadcast_to_group(self_, servers_, op.request(op.id, op.seq));
    return;
  }
  MsgPtr req;
  if (op.phase == 2) {
    req = make_msg<WriteReq>(op.id, op.to_write, op.key, op.seq,
                             config_.shard);
  } else {
    req = make_msg<ReadReq>(op.id, op.key, op.seq, config_.shard);
  }
  if (!batching()) {
    env_.broadcast_to_group(self_, servers_, req);
    return;
  }
  enqueue_frame(op, std::move(req));
}

void AbdClient::set_batching(std::size_t max_ops, TimeNs max_delay) {
  if (max_delay < 0) {
    throw std::invalid_argument("AbdClient: batching max_delay must be >= 0");
  }
  batch_max_ops_ = max_ops == 0 ? 1 : max_ops;
  batch_max_delay_ = max_delay;
  if (!batching()) flush_batch();  // turned off mid-run: drain the buffer
}

void AbdClient::enqueue_frame(const Op& op, MsgPtr msg) {
  batch_buf_.push_back(PendingFrame{op.id, op.seq, std::move(msg)});
  if (batch_buf_.size() >= batch_max_ops_) {
    flush_batch();
    return;
  }
  if (batch_buf_.size() > 1) return;  // the first frame already armed a timer
  // Arm the max_delay timer for THIS batch. The generation check makes
  // a timer whose batch was already flushed (by count, or by an earlier
  // timer) a no-op instead of prematurely splitting the next batch.
  std::uint64_t gen = ++batch_timer_gen_;
  env_.schedule(self_, batch_max_delay_, [this, gen] {
    if (gen != batch_timer_gen_) return;  // batch superseded: stale timer
    flush_batch();
  });
}

void AbdClient::flush_batch() {
  ++batch_timer_gen_;  // any armed timer belongs to the batch ending here
  if (batch_buf_.empty()) return;
  std::vector<MsgPtr> frames;
  frames.reserve(batch_buf_.size());
  for (PendingFrame& f : batch_buf_) {
    // Skip frames whose operation completed or restarted (bumped seq)
    // while buffered — the servers would only produce stale replies.
    auto it = ops_.find(f.id);
    if (it == ops_.end() || it->second.seq != f.seq) continue;
    frames.push_back(std::move(f.msg));
  }
  batch_buf_.clear();
  if (frames.empty()) return;
  ++batches_sent_;
  batched_frames_ += frames.size();
  env_.broadcast_to_group(
      self_, servers_,
      make_msg<BatchRequest>(config_.shard, std::move(frames)));
}

void AbdClient::schedule_retry(OpId id, std::uint32_t seq) {
  if (retry_interval_ <= 0) return;
  env_.schedule(self_, retry_interval_, [this, id, seq] {
    auto it = ops_.find(id);
    if (it == ops_.end()) return;       // completed
    const Op& op = it->second;
    if (op.seq != seq) return;          // progressed or restarted
    // Same (op_id, seq) on the wire: servers re-reply, the client's
    // per-server reply maps absorb duplicates.
    ++retransmits_;
    broadcast_phase(op);
    schedule_retry(id, seq);
  });
}

void AbdClient::complete(OpId id) {
  auto it = ops_.find(id);
  Op finished = std::move(it->second);
  ops_.erase(it);
  switch (finished.kind) {
    case OpKind::kRead:
      finished.rcb(finished.to_write);
      break;
    case OpKind::kWrite:
    case OpKind::kInstall:
      finished.wcb(finished.to_write.tag);
      break;
    case OpKind::kRound:
      finished.done(finished.replies);
      break;
  }
}

bool AbdClient::merge_and_maybe_restart(const ChangeSetPtr& incoming) {
  if (mode_ == Mode::kStatic || !incoming) return false;
  std::size_t added = changes_.join(*incoming);
  if (added == 0) return false;
  // Learned of newer completed changes: the change set is client-level
  // state, so EVERY in-flight operation's quorum accounting predates the
  // merge — restart them all under the new weights (Algorithm 5 "restart
  // the operation"); an op whose tag is chosen re-sends only its W round.
  for (auto& [id, op] : ops_) {
    ++restarts_;
    if (++op.op_restarts > max_restarts_) {
      throw std::logic_error(
          "AbdClient: restart budget exhausted — unbounded concurrent "
          "transfers?");
    }
    start_phase1(op);
  }
  return true;
}

bool AbdClient::responders_form_quorum(
    const std::vector<ProcessId>& responders) const {
  // Algorithm 5 is_quorum: responders' total weight under the client's
  // current change set must exceed W_{S,0}/2.
  WeightMap weights = current_weights();
  Weight sum(0);
  for (ProcessId s : responders) sum += weights.of(s);
  return sum * Weight(2) > initial_total_;
}

bool AbdClient::handle(ProcessId from, const Message& msg) {
  if (const auto* batch = msg_cast<BatchReply>(msg)) {
    // Demultiplex the envelope back into the per-operation state
    // machines. A frame may restart or complete operations whose later
    // frames are also in this envelope — the ordinary per-frame seq and
    // liveness checks below absorb that, exactly as they absorb a
    // reordered stream of individual replies.
    bool any = false;
    for (const MsgPtr& frame : batch->frames()) {
      if (handle(from, *frame)) any = true;
    }
    return any;
  }

  if (const auto* ack = msg_cast<ReadAck>(msg)) return on_reply(from, *ack);
  if (const auto* ack = msg_cast<WriteAck>(msg)) return on_reply(from, *ack);
  if (const auto* ack = msg_cast<SnapAck>(msg)) return on_reply(from, *ack);
  if (const auto* ack = msg_cast<KeysAck>(msg)) return on_reply(from, *ack);
  return false;
}

template <typename Ack>
bool AbdClient::on_reply(ProcessId from, const Ack& ack) {
  auto it = ops_.find(ack.op_id());
  if (it == ops_.end()) return false;  // not mine (or long completed)
  Op& op = it->second;
  // A read/write phase accepts only its own ack type; a round accepts
  // whatever its request is answered with.
  bool expected = op.kind == OpKind::kRound ||
                  (op.phase == 1 && std::is_same_v<Ack, ReadAck>) ||
                  (op.phase == 2 && std::is_same_v<Ack, WriteAck>);
  if (!expected || ack.seq() != op.seq) {
    return true;  // stale reply (from a restarted attempt): consumed
  }
  if (merge_and_maybe_restart(ack.changes())) return true;

  auto seen = std::find(op.responders.begin(), op.responders.end(), from);
  bool fresh = seen == op.responders.end();
  std::size_t slot = seen - op.responders.begin();
  if (fresh) op.responders.push_back(from);
  if (op.kind == OpKind::kRound) {
    op.replies.push_back(Reply{from, make_msg<Ack>(ack)});
  } else if constexpr (std::is_same_v<Ack, ReadAck>) {
    if (fresh) {
      op.phase1_replies.push_back(ack.reg());
    } else {
      op.phase1_replies[slot] = ack.reg();  // duplicate reply: last one wins
    }
  }
  // The one quorum-close point of every phase and round.
  if (!responders_form_quorum(op.responders)) return true;
  if (op.kind == OpKind::kRound || op.phase == 2) {
    complete(op.id);
    return true;
  }

  // Phase 1 complete: pick the highest tag.
  TaggedValue maxreg;
  for (const TaggedValue& reg : op.phase1_replies) {
    if (maxreg.tag < reg.tag) maxreg = reg;
  }
  if (op.kind == OpKind::kRead) {
    op.to_write = maxreg;  // the result, and the write-back's payload
    // The holders — responders whose reply carried the max tag — already
    // store it (server tags only grow), exactly as a W_A for it would
    // prove, and under the same change set: any merge restarts the op
    // from phase 1. So they count toward the write-back's quorum, and
    // when they alone form one the write-back is skipped.
    std::size_t holders = 0;
    for (std::size_t i = 0; i < op.responders.size(); ++i) {
      if (op.phase1_replies[i].tag == maxreg.tag) {
        op.responders[holders++] = op.responders[i];
      }
    }
    op.responders.resize(holders);
    if (responders_form_quorum(op.responders)) {
      env_.count_event(TrafficLedger::kReadsFastPath);
      complete(op.id);
      return true;
    }
  } else {
    op.to_write.tag = Tag{maxreg.tag.ts + 1, self_};
    op.to_write.value = op.value;
    op.write_tag_chosen = true;  // fixed from here on: see start_phase1
    op.responders.clear();
  }
  start_phase2(op);
  return true;
}

}  // namespace wrs
