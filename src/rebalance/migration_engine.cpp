#include "rebalance/migration_engine.h"

#include "runtime/msg_pool.h"
#include "storage/migration_messages.h"

namespace wrs {

MigrationEngine::MigrationEngine(Env& env, ProcessId self, ShardMap map,
                                 AbdClient::Mode mode)
    : env_(env), self_(self), map_(std::move(map)) {
  clients_.reserve(map_.num_shards());
  for (ShardId g = 0; g < map_.num_shards(); ++g) {
    clients_.push_back(
        std::make_unique<AbdClient>(env_, self_, map_.config(g), mode));
  }
}

void MigrationEngine::on_message(ProcessId from, const Message& msg) {
  if (!is_server(from)) return;
  if (std::optional<ShardId> g = map_.try_shard_of_server(from)) {
    clients_[*g]->handle(from, msg);
  }
}

void MigrationEngine::set_retry_interval(TimeNs interval) {
  for (const auto& c : clients_) c->set_retry_interval(interval);
}

MigrationStats MigrationEngine::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void MigrationEngine::finish(const RegisterKey& key, bool ok,
                             const DoneCb& cb) {
  active_.erase(key);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    --stats_.in_flight;
    if (ok) ++stats_.committed;
  }
  if (cb) cb(ok);
}

void MigrationEngine::migrate(const RegisterKey& key, ShardId to, DoneCb cb) {
  if (to >= map_.num_shards()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.refused;
    if (cb) cb(false);
    return;
  }
  ShardId src = map_.shard_of(key);
  if (src == to) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.noops;
    if (cb) cb(true);
    return;
  }
  if (!active_.insert(key).second) {
    // A handoff of this key is already in flight: epochs per key must be
    // issued one at a time, so the caller is refused rather than queued
    // (the Rebalancer simply retries on a later window).
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.refused;
    if (cb) cb(false);
    return;
  }
  std::uint64_t epoch = ++last_epoch_;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.started;
    ++stats_.in_flight;
    stats_.epoch = epoch;
  }
  // Round 1 — fence the source group and collect the final read: the
  // max-tag replica over the freeze acks. A quorum of fence acks
  // intersects every completed write quorum, so it is the definitive
  // replica to hand to the destination; no write-back round.
  ShardId src_shard = map_.config(src).shard;
  clients_[src]->round(
      [key, epoch, to, src_shard](OpId id, std::uint32_t seq) {
        return make_msg<MigFreeze>(id, key, epoch, to, seq, src_shard);
      },
      [this, key, src, to, epoch,
       cb = std::move(cb)](const std::vector<AbdClient::Reply>& replies) {
        TaggedValue fin;
        for (const AbdClient::Reply& r : replies) {
          const auto* ack = msg_cast<ReadAck>(*r.msg);
          if (ack && fin.tag < ack->reg().tag) fin = ack->reg();
        }
        // Round 2 — install the frozen replica at the destination and
        // flip ownership there, atomically per server.
        commit(to, key, to, epoch, fin, [this, key, src, to, epoch, cb] {
          // A destination quorum now owns the key: this is the handoff's
          // linearization point. Adopt it authoritatively before
          // un-fencing the source, so owner_of() never lags the servers.
          map_.apply_override(key, to, epoch);
          // Round 3 — lift the source fence; parked requests drain as
          // redirects and late clients learn the move lazily.
          commit(src, key, to, epoch, std::nullopt,
                 [this, key, cb] { finish(key, true, cb); });
        });
      });
}

void MigrationEngine::commit(ShardId g, const RegisterKey& key, ShardId owner,
                             std::uint64_t epoch,
                             std::optional<TaggedValue> install,
                             std::function<void()> then) {
  // One round of commit acks at group g; only the quorum matters.
  ShardId shard = map_.config(g).shard;
  clients_[g]->round(
      [key, owner, epoch, install = std::move(install), shard](
          OpId id, std::uint32_t seq) {
        return make_msg<MigCommit>(id, key, owner, epoch, install, seq, shard);
      },
      [then = std::move(then)](const std::vector<AbdClient::Reply>&) {
        then();
      });
}

}  // namespace wrs
