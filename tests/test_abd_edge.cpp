// Edge-case tests for the ABD client/server machinery: stale replies,
// restart budgets, weight views, write-back freshness, and the server
// register rules.
#include <gtest/gtest.h>

#include "runtime/msg_pool.h"
#include "storage/abd_server.h"
#include "storage/snapshot_messages.h"
#include "test_util.h"

namespace wrs {
namespace {

using test::run_until;
using test::StorageCluster;

TEST(AbdServer, KeepsHighestTagOnly) {
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  struct Sink : Process {
    void on_message(ProcessId, const Message&) override {}
  } sink;
  env.register_process(client_id(0), &sink);
  AbdServer server(env, 0, nullptr);
  env.register_process(0, &sink);  // placeholder owner for sends
  env.start();

  WriteReq w1(1, TaggedValue{Tag{5, 1}, "five"});
  server.handle(client_id(0), w1);
  EXPECT_EQ(server.reg().value, "five");

  // Lower tag: ignored.
  WriteReq w2(2, TaggedValue{Tag{3, 9}, "three"});
  server.handle(client_id(0), w2);
  EXPECT_EQ(server.reg().value, "five");
  EXPECT_EQ(server.reg().tag, (Tag{5, 1}));

  // Same ts, higher pid: accepted (lexicographic tag order).
  WriteReq w3(3, TaggedValue{Tag{5, 2}, "five-b"});
  server.handle(client_id(0), w3);
  EXPECT_EQ(server.reg().value, "five-b");
}

TEST(AbdServer, RepliesCarryProvidedChangeSet) {
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  struct Cap : Process {
    ChangeSetPtr last;
    void on_message(ProcessId, const Message& m) override {
      if (const auto* ack = msg_cast<ReadAck>(m)) last = ack->changes();
    }
  } cap;
  env.register_process(client_id(0), &cap);
  auto cs = std::make_shared<ChangeSet>(
      ChangeSet::initial(WeightMap::uniform(3)));
  AbdServer server(env, 0, [cs] { return cs; });
  struct Owner : Process {
    AbdServer* s;
    void on_message(ProcessId from, const Message& m) override {
      s->handle(from, m);
    }
  } owner;
  owner.s = &server;
  env.register_process(0, &owner);
  env.start();
  env.send(client_id(0), 0, std::make_shared<ReadReq>(1));
  env.run_to_quiescence();
  ASSERT_NE(cap.last, nullptr);
  EXPECT_EQ(cap.last->size(), 3u);
}

TEST(AbdClient, ForeignAndStaleAcksIgnored) {
  // Drive a client manually: replies that belong to no in-flight op are
  // left unconsumed (they may target a co-located client), and replies
  // from a superseded phase attempt are swallowed without effect.
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  SystemConfig cfg = SystemConfig::uniform(3, 1);
  struct Holder : Process {
    AbdClient* c = nullptr;
    void on_message(ProcessId from, const Message& m) override {
      c->handle(from, m);
    }
  } holder;
  AbdClient client(env, client_id(0), cfg, AbdClient::Mode::kStatic);
  holder.c = &client;
  env.register_process(client_id(0), &holder);
  env.start();

  bool fired = false;
  OpId op = client.read([&](const TaggedValue&) { fired = true; });
  // An op id no operation of this client owns: NOT consumed.
  ReadAck foreign(/*op_id=*/0xdeadbeef, TaggedValue{}, nullptr);
  EXPECT_FALSE(client.handle(0, foreign));
  // The right op id but a phase attempt that was never issued: consumed
  // silently, no quorum accounting.
  ReadAck stale(op, TaggedValue{}, nullptr, /*seq=*/99);
  EXPECT_TRUE(client.handle(0, stale));
  EXPECT_FALSE(fired);
  EXPECT_TRUE(client.busy());
}

TEST(AbdClient, RoundFoldsEveryReplyOfTheAttempt) {
  // round() closes on the distinct responders of its attempt, but hands
  // `done` every reply in arrival order, duplicates included: the caller
  // folds them (a release's "all held", list_keys' union).
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  AbdClient client(env, client_id(0), SystemConfig::uniform(3, 1),
                   AbdClient::Mode::kStatic);

  std::vector<AbdClient::Reply> got;
  OpId rel = client.round(
      [](OpId id, std::uint32_t seq) {
        return make_msg<SnapRelease>(id, /*snap_id=*/1,
                                     std::vector<SnapEntry>{}, seq);
      },
      [&](const std::vector<AbdClient::Reply>& replies) { got = replies; });
  auto held = [&](bool h) {
    return SnapAck(rel, {}, nullptr, /*seq=*/1, h);
  };
  // (a) Two replies from one server are one responder: no quorum of 2.
  EXPECT_TRUE(client.handle(0, held(false)));
  EXPECT_TRUE(client.handle(0, held(true)));
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(client.busy());
  EXPECT_TRUE(client.handle(1, held(true)));
  EXPECT_FALSE(client.busy());
  EXPECT_EQ(got.size(), 3u);
  // (b) The duplicate reached `done`, so one `held=false` still poisons
  // the release fold although server 0 answered again with true.
  bool all_held = true;
  for (const AbdClient::Reply& r : got) {
    if (!msg_cast<SnapAck>(*r.msg)->held()) all_held = false;
  }
  EXPECT_FALSE(all_held);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.front().from, 0u);
  EXPECT_EQ(got.back().from, 1u);

  // (c) list_keys folds the union over every reply of the attempt.
  std::vector<RegisterKey> keys;
  bool listed = false;
  OpId list = client.list_keys([&](const std::vector<RegisterKey>& k) {
    keys = k;
    listed = true;
  });
  EXPECT_TRUE(client.handle(0, KeysAck(list, {"a"}, nullptr, 1)));
  EXPECT_TRUE(client.handle(0, KeysAck(list, {"b"}, nullptr, 1)));
  EXPECT_FALSE(listed);
  EXPECT_TRUE(client.handle(2, KeysAck(list, {"c"}, nullptr, 1)));
  ASSERT_TRUE(listed);
  EXPECT_EQ(keys, (std::vector<RegisterKey>{"a", "b", "c"}));
}

TEST(AbdClient, DebugBuildsAssertOneReadWritePerKey) {
  // At most one read/write per key in flight is the caller's contract
  // (ShardRouter's per-key FIFO keeps it); debug builds assert it. Other
  // keys, and installs with their preset tag, are never refused.
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  AbdClient client(env, client_id(0), SystemConfig::uniform(3, 1),
                   AbdClient::Mode::kStatic);
  client.write("k", "1", [](const Tag&) {});
  client.read("other", [](const TaggedValue&) {});
  client.install("k", TaggedValue{Tag{7, 1}, "x"}, [](const Tag&) {});
  EXPECT_DEBUG_DEATH(client.read("k", [](const TaggedValue&) {}),
                     "already in flight");
}

TEST(AbdClient, RestartBudgetThrowsWhenExhausted) {
  StorageCluster c(4, 1, 42);
  std::vector<std::unique_ptr<StorageClient>> clients;
  clients.push_back(std::make_unique<StorageClient>(
      *c.env, client_id(0), c.config, AbdClient::Mode::kDynamic));
  c.env->register_process(client_id(0), clients[0].get());
  clients[0]->abd().set_max_restarts(0);

  // Force a restart: a transfer completes before the client's op.
  bool transferred = false;
  c.node(0).reassign().transfer(
      1, Weight(1, 8), [&](const TransferOutcome&) { transferred = true; });
  run_until(*c.env, [&] { return transferred; });
  c.env->run_to_quiescence();

  clients[0]->abd().read([](const TaggedValue&) {});
  // The read will learn the new changes on the first replies and want to
  // restart — with budget 0 that surfaces as a logic error inside the
  // simulator event. gtest can't catch across the event loop, so step
  // manually and expect the throw.
  EXPECT_THROW(c.env->run_to_quiescence(), std::logic_error);
}

TEST(AbdClient, CurrentWeightsStaticVsDynamic) {
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  WeightMap wm;
  wm.set(0, Weight(2));
  wm.set(1, Weight(1));
  wm.set(2, Weight(1));
  SystemConfig cfg = SystemConfig::make(3, 0, wm);
  AbdClient stat(env, client_id(0), cfg, AbdClient::Mode::kStatic);
  AbdClient dyn(env, client_id(1), cfg, AbdClient::Mode::kDynamic);
  EXPECT_EQ(stat.current_weights().of(0), Weight(2));
  EXPECT_EQ(dyn.current_weights().of(0), Weight(2));  // initial set
  EXPECT_EQ(dyn.changes().size(), 3u);
}

TEST(AbdClient, WritebackMakesSecondReadFastPath) {
  // After a read completed its write-back, a second read observes the
  // same tag at a quorum (no regression), per Definition 6.
  StorageCluster c(5, 2, 43);
  std::vector<std::unique_ptr<StorageClient>> clients;
  for (int k = 0; k < 2; ++k) {
    clients.push_back(std::make_unique<StorageClient>(
        *c.env, client_id(k), c.config, AbdClient::Mode::kDynamic));
    c.env->register_process(client_id(k), clients.back().get());
  }
  bool wrote = false;
  clients[0]->abd().write("wb", [&](const Tag&) { wrote = true; });
  run_until(*c.env, [&] { return wrote; });

  std::optional<TaggedValue> r1, r2;
  clients[1]->abd().read([&](const TaggedValue& tv) { r1 = tv; });
  run_until(*c.env, [&] { return r1.has_value(); });
  clients[1]->abd().read([&](const TaggedValue& tv) { r2 = tv; });
  run_until(*c.env, [&] { return r2.has_value(); });
  EXPECT_EQ(r1->value, "wb");
  EXPECT_FALSE(r2->tag < r1->tag);
}

TEST(AbdClient, LargeValuesRoundTrip) {
  StorageCluster c(4, 1, 44);
  std::vector<std::unique_ptr<StorageClient>> clients;
  clients.push_back(std::make_unique<StorageClient>(
      *c.env, client_id(0), c.config, AbdClient::Mode::kDynamic));
  c.env->register_process(client_id(0), clients[0].get());
  Value big(1 << 20, 'z');  // 1 MiB
  bool wrote = false;
  clients[0]->abd().write(big, [&](const Tag&) { wrote = true; });
  run_until(*c.env, [&] { return wrote; });
  std::optional<TaggedValue> got;
  clients[0]->abd().read([&](const TaggedValue& tv) { got = tv; });
  run_until(*c.env, [&] { return got.has_value(); });
  EXPECT_EQ(got->value.size(), big.size());
  EXPECT_EQ(got->value, big);
}

TEST(ReadChangesEngine, ConcurrentInvocationsIndependent) {
  test::ReassignCluster c(4, 1, 45);
  int done = 0;
  std::optional<ChangeSet> a, b;
  c.node(0).read_changes(1, [&](const ChangeSet& cs) {
    a = cs;
    ++done;
  });
  c.node(0).read_changes(2, [&](const ChangeSet& cs) {
    b = cs;
    ++done;
  });
  run_until(*c.env, [&] { return done == 2; });
  EXPECT_EQ(a->weight_of(1), Weight(1));
  EXPECT_EQ(b->weight_of(2), Weight(1));
  // Each returned set is target-scoped.
  for (const Change& ch : a->all()) EXPECT_EQ(ch.target(), 1u);
  for (const Change& ch : b->all()) EXPECT_EQ(ch.target(), 2u);
}

TEST(ReadChangesEngine, DuplicateAcksFromSameServerCountOnce) {
  // With only f+1 = 2 distinct responders required (n=4, f=1), verify
  // the engine waits for DISTINCT servers: hold 3 of 4 servers so only
  // one can reply; the read must not finish phase 1.
  test::ReassignCluster c(4, 1, 46);
  c.env->hold_messages(1);
  c.env->hold_messages(2);
  c.env->hold_messages(3);
  bool finished = false;
  c.node(0).read_changes(0, [&](const ChangeSet&) { finished = true; });
  c.env->run_until(seconds(5));
  EXPECT_FALSE(finished);  // one responder (itself) is not f+1
  c.env->release_holds(1);
  c.env->release_holds(2);
  c.env->release_holds(3);
  run_until(*c.env, [&] { return finished; });
}

}  // namespace
}  // namespace wrs
