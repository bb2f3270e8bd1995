#include "storage/dynamic_node.h"

#include "common/logging.h"
#include "runtime/msg_pool.h"

namespace wrs {

DynamicStorageNode::DynamicStorageNode(Env& env, ProcessId self,
                                       const SystemConfig& config)
    : env_(env),
      self_(self),
      reassign_(env, self, config),
      refresh_client_(env, self, config, AbdClient::Mode::kDynamic),
      server_(env, self, [this] { return changes_snapshot(); },
              config.shard, self - config.base) {
  reassign_.set_on_changes_grown([this] { ++snapshot_version_; });
  // Algorithm 4 line 9: before a weight gain is applied, refresh the
  // register by performing a full atomic read. Gains arriving while the
  // private client is busy (an earlier refresh or a test using client())
  // queue up and drain in order.
  reassign_.set_refresh_hook([this](std::function<void()> done) {
    pending_refreshes_.push_back(std::move(done));
    drain_pending_refreshes();
  });
}

void DynamicStorageNode::drain_pending_refreshes() {
  if (pending_refreshes_.empty()) return;
  if (refresh_client_.busy()) {
    // Poll until the in-flight operation finishes; cheap and avoids
    // entangling completion paths.
    env_.schedule(self_, us(200), [this] { drain_pending_refreshes(); });
    return;
  }
  auto done = std::move(pending_refreshes_.front());
  pending_refreshes_.erase(pending_refreshes_.begin());
  // Multi-register refresh: a weight gain changes which sets of servers
  // form quorums, so EVERY register this node serves must be as fresh as
  // a pre-gain quorum before the gain applies. Key discovery itself goes
  // through a weighted quorum (list_keys), which intersects every quorum
  // a past write used.
  refresh_client_.list_keys([this, done](std::vector<RegisterKey> keys) {
    refresh_keys(std::move(keys), std::move(done));
  });
}

void DynamicStorageNode::refresh_keys(std::vector<RegisterKey> keys,
                                      std::function<void()> done) {
  if (keys.empty()) {
    done();
    drain_pending_refreshes();
    return;
  }
  // The client multiplexes operations, so refresh every register in one
  // pipelined burst (distinct keys never serialize) instead of one atomic
  // read per round trip.
  auto remaining = std::make_shared<std::size_t>(keys.size());
  auto when_done = std::make_shared<std::function<void()>>(std::move(done));
  for (const RegisterKey& key : keys) {
    refresh_client_.read(key, [this, key, remaining,
                               when_done](const TaggedValue& tv) {
      // Install the fresh value locally (the ABD read returned only once
      // the value was stored at a quorum; this keeps our own replica
      // current too).
      if (server_.reg(key).tag < tv.tag) server_.set_reg(tv, key);
      if (--*remaining == 0) {
        (*when_done)();
        drain_pending_refreshes();
      }
    });
  }
}

ChangeSetPtr DynamicStorageNode::changes_snapshot() {
  if (cached_version_ != snapshot_version_) {
    cached_snapshot_ = make_pooled<ChangeSet>(reassign_.changes());
    cached_version_ = snapshot_version_;
  }
  return cached_snapshot_;
}

bool DynamicStorageNode::handle(ProcessId from, const Message& msg) {
  if (reassign_.handle(from, msg)) return true;
  if (server_.handle(from, msg)) return true;
  if (refresh_client_.handle(from, msg)) return true;
  return false;
}

void DynamicStorageNode::on_message(ProcessId from, const Message& msg) {
  if (!handle(from, msg)) {
    WRS_DEBUG("DynamicStorageNode " << process_name(self_)
                                    << ": unhandled message "
                                    << msg.type_name());
  }
}

}  // namespace wrs
