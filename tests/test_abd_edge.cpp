// Edge-case tests for the ABD client/server machinery: stale replies,
// restart budgets, weight views, write-back freshness, one-round reads,
// and the server register rules.
#include <gtest/gtest.h>

#include "runtime/msg_pool.h"
#include "storage/abd_server.h"
#include "storage/history.h"
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

/// n static AbdServers plus AbdClients on a SimEnv with 1 ms links and
/// nothing else running, so the traffic ledger counts exactly the
/// protocol's messages.
struct AbdGroup {
  struct Server : Process {
    Server(Env& env, ProcessId id) : abd(env, id, nullptr) {}
    void on_message(ProcessId from, const Message& m) override {
      abd.handle(from, m);
    }
    AbdServer abd;
  };
  struct Client : Process {
    Client(Env& env, ProcessId id, const SystemConfig& config)
        : abd(env, id, config, AbdClient::Mode::kStatic) {}
    void on_message(ProcessId from, const Message& m) override {
      abd.handle(from, m);
    }
    AbdClient abd;
  };

  SimEnv env{std::make_shared<ConstantLatency>(ms(1)), 1};
  SystemConfig config;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<std::unique_ptr<Client>> clients;

  AbdGroup(std::uint32_t n, std::size_t num_clients)
      : config(SystemConfig::uniform(n, (n - 1) / 2)) {
    for (ProcessId s = 0; s < n; ++s) {
      servers.push_back(std::make_unique<Server>(env, s));
      env.register_process(s, servers.back().get());
    }
    for (std::size_t k = 0; k < num_clients; ++k) {
      clients.push_back(std::make_unique<Client>(env, client_id(k), config));
      env.register_process(client_id(k), clients.back().get());
    }
    env.start();
  }

  AbdClient& client(std::size_t k) { return clients[k]->abd; }
  std::int64_t sent(const std::string& type) {
    return env.traffic().get("msg." + type);
  }

  /// Runs one read of `key` by client k to completion, recorded.
  TaggedValue read(std::size_t k, const RegisterKey& key,
                   HistoryRecorder& history) {
    std::size_t token =
        history.begin(OpRecord::Kind::kRead, client_id(k), env.now(), key);
    std::optional<TaggedValue> got;
    client(k).read(key, [&](const TaggedValue& tv) { got = tv; });
    test::run_until(env, [&] { return got.has_value(); });
    history.end_read(token, env.now(), got.value_or(TaggedValue{}));
    return got.value_or(TaggedValue{});
  }
};

TEST(AbdClient, ReadCompletesOnlyOnceItsValueIsAtAQuorum) {
  // New/old inversion: a write's phase 2 reached server 0 alone. Read r1
  // sees it in a {0, 1} quorum, where server 0 is the only holder, so r1
  // must write it back before returning. A later read r2 whose quorum
  // {1, 2} excludes server 0 must still see it. A read that counted
  // every phase-1 responder toward its write-back would return r1 at
  // once and let r2 read the initial value.
  AbdGroup g(3, 2);  // weighted quorum: any 2 of the 3 servers
  HistoryRecorder history;
  const ProcessId writer = client_id(7);  // driven by hand: no process
  const TaggedValue written{Tag{1, writer}, "new"};
  std::size_t w =
      history.begin(OpRecord::Kind::kWrite, writer, g.env.now(), "x");
  g.env.send(writer, 0, make_msg<WriteReq>(1, written, "x"));
  g.env.run_until(g.env.now() + ms(5));

  g.env.hold_messages(2);
  TaggedValue r1 = g.read(0, "x", history);
  EXPECT_EQ(r1.tag, written.tag);
  g.env.run_until(g.env.now() + ms(5));  // r2 starts strictly after r1

  g.env.hold_messages(0);
  g.env.release_holds(2);
  TaggedValue r2 = g.read(1, "x", history);
  EXPECT_EQ(r2.tag, written.tag);

  // The writer's phase 2 finally reaches the others: the write completes.
  g.env.release_holds(0);
  for (ProcessId s : {1u, 2u}) {
    g.env.send(writer, s, make_msg<WriteReq>(1, written, "x"));
  }
  g.env.run_to_quiescence();
  history.end_write(w, g.env.now(), written.tag, written.value);

  auto err = check_atomicity(history.completed());
  EXPECT_FALSE(err.has_value()) << *err;
}

TEST(AbdClient, UnanimousReadSkipsItsWriteBack) {
  // Fault-free, every server holds the last write: the phase-1 quorum
  // is all holders, so the read costs n R + n R_A and no W.
  constexpr std::uint32_t kN = 5;
  AbdGroup g(kN, 1);
  bool wrote = false;
  g.client(0).write("k", "v", [&](const Tag&) { wrote = true; });
  test::run_until(g.env, [&] { return wrote; });
  g.env.run_to_quiescence();

  const std::int64_t msgs = g.env.traffic().get("msgs");
  const std::int64_t writes = g.sent("W");
  HistoryRecorder history;
  TaggedValue got = g.read(0, "k", history);
  g.env.run_to_quiescence();
  EXPECT_EQ(got.value, "v");
  EXPECT_EQ(g.env.traffic().get("msgs") - msgs, 2 * kN);
  EXPECT_EQ(g.sent("W"), writes);
  EXPECT_EQ(g.env.traffic().get("reads.fast_path"), 1);
}

TEST(AbdClient, WriteBackClosesOnFirstAckThatCompletesAQuorumWithHolders) {
  // n = 5, quorum 3. Phase 1 closes on {0, 1, 2} with only 0 and 1
  // holding the max tag. The write-back starts with those two counted:
  // a holder's own W_A adds nothing, and the first W_A from another
  // server closes the read.
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  AbdClient client(env, client_id(0), SystemConfig::uniform(5, 2),
                   AbdClient::Mode::kStatic);
  std::optional<TaggedValue> got;
  OpId op = client.read("k", [&](const TaggedValue& tv) { got = tv; });
  const TaggedValue newest{Tag{4, 9}, "v4"};
  const TaggedValue older{Tag{3, 9}, "v3"};
  client.handle(0, ReadAck(op, newest, nullptr, /*seq=*/1));
  client.handle(1, ReadAck(op, newest, nullptr, 1));
  client.handle(2, ReadAck(op, older, nullptr, 1));
  EXPECT_FALSE(got.has_value()) << "two holders are no quorum of five";
  EXPECT_EQ(env.traffic().get("msg.W"), 5);

  client.handle(1, WriteAck(op, nullptr, /*seq=*/2));
  EXPECT_FALSE(got.has_value()) << "a holder's W_A counted twice";
  client.handle(3, WriteAck(op, nullptr, 2));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tag, newest.tag);
  EXPECT_EQ(got->value, newest.value);
  EXPECT_EQ(env.traffic().get("reads.fast_path"), 0);
}

TEST(AbdClient, RestartDuringSeededWriteBackRerunsPhaseOne) {
  // The holders were counted under the change set of their phase 1. A
  // W_A carrying a newer set restarts the read from phase 1, with no
  // responder kept: a late W_A of the old attempt closes nothing, and
  // the read needs a fresh phase-1 quorum under the new weights.
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  SystemConfig cfg = SystemConfig::uniform(5, 2);
  AbdClient client(env, client_id(0), cfg, AbdClient::Mode::kDynamic);
  std::optional<TaggedValue> got;
  OpId op = client.read("k", [&](const TaggedValue& tv) { got = tv; });
  const TaggedValue newest{Tag{4, 9}, "v4"};
  const TaggedValue older{Tag{3, 9}, "v3"};
  client.handle(0, ReadAck(op, newest, nullptr, 1));
  client.handle(1, ReadAck(op, newest, nullptr, 1));
  client.handle(2, ReadAck(op, older, nullptr, 1));
  ASSERT_FALSE(got.has_value());

  // Server 0 moved 1/8 of its weight to server 1.
  ChangeSet moved = ChangeSet::initial(cfg.initial_weights);
  moved.add(Change(0, kFirstCounter, 0, Weight(-1, 8)));
  moved.add(Change(0, kFirstCounter, 1, Weight(1, 8)));
  auto newer = std::make_shared<const ChangeSet>(moved);
  client.handle(3, WriteAck(op, newer, /*seq=*/2));
  EXPECT_EQ(client.restarts(), 1u);
  EXPECT_EQ(env.traffic().get("msg.R"), 10) << "phase 1 was not re-run";
  client.handle(4, WriteAck(op, nullptr, 2));
  EXPECT_FALSE(got.has_value()) << "an old attempt's W_A closed the read";

  // Phase 1 again (seq 3): servers 0 and 1 weigh 7/8 + 9/8 = 2 < 5/2.
  client.handle(0, ReadAck(op, newest, newer, 3));
  client.handle(1, ReadAck(op, newest, newer, 3));
  EXPECT_FALSE(got.has_value());
  client.handle(2, ReadAck(op, newest, newer, 3));
  ASSERT_TRUE(got.has_value()) << "three holders are a quorum";
  EXPECT_EQ(got->tag, newest.tag);
  EXPECT_EQ(env.traffic().get("msg.W"), 5) << "the one write-back sent";
  EXPECT_EQ(env.traffic().get("reads.fast_path"), 1);
}

TEST(AbdClient, RestartAfterTagChosenResendsOnlyItsWrite) {
  // A write keeps the tag its phase 1 chose, so a W_A carrying a newer
  // change set restarts it straight into its write round: no second R
  // goes out, and the new attempt still needs a fresh quorum of W_A
  // under the new weights.
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  SystemConfig cfg = SystemConfig::uniform(5, 2);
  AbdClient client(env, client_id(0), cfg, AbdClient::Mode::kDynamic);
  std::optional<Tag> got;
  OpId op = client.write("k", "v", [&](const Tag& t) { got = t; });
  const TaggedValue seen{Tag{4, 9}, "v4"};
  for (ProcessId s : {0u, 1u, 2u}) {
    client.handle(s, ReadAck(op, seen, nullptr, /*seq=*/1));
  }
  const Tag chosen{5, client_id(0)};
  EXPECT_EQ(env.traffic().get("msg.R"), 5);
  EXPECT_EQ(env.traffic().get("msg.W"), 5);

  // Server 0 moved 1/8 of its weight to server 1.
  ChangeSet moved = ChangeSet::initial(cfg.initial_weights);
  moved.add(Change(0, kFirstCounter, 0, Weight(-1, 8)));
  moved.add(Change(0, kFirstCounter, 1, Weight(1, 8)));
  auto newer = std::make_shared<const ChangeSet>(moved);
  client.handle(3, WriteAck(op, newer, /*seq=*/2));
  EXPECT_EQ(client.restarts(), 1u);
  EXPECT_EQ(env.traffic().get("msg.R"), 5) << "phase 1 was re-run";
  EXPECT_EQ(env.traffic().get("msg.W"), 10) << "the write was not re-sent";
  client.handle(4, WriteAck(op, nullptr, 2));
  EXPECT_FALSE(got.has_value()) << "an old attempt's W_A closed the write";

  // Write round again (seq 3): servers 0 and 1 weigh 7/8 + 9/8 = 2 < 5/2.
  client.handle(0, WriteAck(op, newer, 3));
  client.handle(1, WriteAck(op, newer, 3));
  EXPECT_FALSE(got.has_value());
  client.handle(2, WriteAck(op, newer, 3));
  ASSERT_TRUE(got.has_value()) << "three acks are a quorum";
  EXPECT_EQ(*got, chosen) << "the restart re-minted the tag";
}

TEST(AbdClient, ResumedWriteWithChosenTagSkipsItsRead) {
  // A write redirected in its write round carries its chosen tag to the
  // target shard's client, which sends only the W round.
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  SystemConfig cfg = SystemConfig::uniform(5, 2);
  AbdClient source(env, client_id(0), cfg, AbdClient::Mode::kDynamic);
  AbdClient target(env, client_id(1), cfg, AbdClient::Mode::kDynamic);
  std::optional<Tag> got;
  OpId op = source.write("k", "v", [&](const Tag& t) { got = t; });
  for (ProcessId s : {0u, 1u, 2u}) {
    source.handle(s, ReadAck(op, TaggedValue{Tag{4, 9}, "v4"}, nullptr, 1));
  }
  std::optional<AbdClient::EjectedOp> ejected = source.eject(op);
  ASSERT_TRUE(ejected.has_value());
  ASSERT_TRUE(ejected->write_tag_chosen);

  const std::int64_t reads = env.traffic().get("msg.R");
  const std::int64_t writes = env.traffic().get("msg.W");
  OpId resumed = target.resume(std::move(*ejected));
  EXPECT_EQ(env.traffic().get("msg.R"), reads) << "the resumed write read";
  EXPECT_EQ(env.traffic().get("msg.W"), writes + 5);
  for (ProcessId s : {0u, 1u, 2u}) {
    target.handle(s, WriteAck(resumed, nullptr, /*seq=*/1));
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, (Tag{5, client_id(0)}));
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
