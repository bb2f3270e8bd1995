// Socket-runtime integration tests (Linux only; the whole file compiles
// away elsewhere and the binary reports zero tests).
//
//  * multi-process: fork real wrs-node groups, drive them over TCP,
//    SIGKILL one and restart it on the same port (liveness);
//  * multi-env in one process: partition mapped onto real connection
//    teardown + reconnect, Unix-domain transport;
//  * single-process loopback Cluster (Transport::kSocket): 2 shards,
//    batching on/off, atomicity-checked workloads, and the per-shard
//    traffic ledger measured in real encoded bytes; an idle cluster's
//    loop must park instead of spinning;
//  * raw SocketTransport: one gather write per callback, per-connection
//    FIFO order, and a callback that closes its own connection.
#ifdef __linux__

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "api/cluster.h"
#include "deploy/node_runner.h"
#include "net/encode_arena.h"
#include "net/socket_addr.h"
#include "net/socket_transport.h"
#include "runtime/socket_env.h"
#include "shard/shard_map.h"
#include "storage/dynamic_node.h"
#include "storage/history.h"
#include "workload/workload.h"

namespace wrs {
namespace {

using deploy::NodeOptions;
using deploy::SpawnedNode;

/// One SocketEnv hosting a StorageClient, dialing server groups by
/// static route. Ops run through promise-backed awaits (the env has no
/// sim pump; get() blocks on a condition variable).
struct SocketClient {
  SocketEnv env;
  StorageClient client;
  ProcessId pid = client_id(0);

  SocketClient(ShardMap map, TimeNs retry, std::uint64_t seed = 1)
      : env(make_opts(seed)),
        client(env, client_id(0), std::move(map), AbdClient::Mode::kDynamic) {
    if (retry > 0) client.router().set_retry_interval(retry);
    env.register_process(pid, &client);
  }

  static SocketEnv::Options make_opts(std::uint64_t seed) {
    SocketEnv::Options o;
    o.listen = net::SocketAddr::parse("tcp:127.0.0.1:0");
    o.seed = seed;
    return o;
  }

  void route_group(const std::vector<ProcessId>& servers,
                   const std::string& addr) {
    for (ProcessId s : servers) {
      env.add_route(s, net::SocketAddr::parse(addr));
    }
  }

  Tag write(const RegisterKey& key, const Value& value,
            TimeNs timeout = seconds(30)) {
    Await<Tag> aw;
    env.schedule(pid, 0, [this, key, value, aw] {
      client.router().write(key, value,
                            [aw](const Tag& t) { aw.fulfill(t); });
    });
    return aw.get(timeout);
  }

  TaggedValue read(const RegisterKey& key, TimeNs timeout = seconds(30)) {
    Await<TaggedValue> aw;
    env.schedule(pid, 0, [this, key, aw] {
      client.router().read(key,
                          [aw](const TaggedValue& tv) { aw.fulfill(tv); });
    });
    return aw.get(timeout);
  }
};

// --- multi-process -----------------------------------------------------------
// Declared first: fork() happens before any test has started (and
// stopped) in-process loop threads.

TEST(SocketMultiProcess, KillMinusNineThenRestartOnSamePort) {
  NodeOptions opts;
  opts.shard = 0;
  opts.num_shards = 1;
  opts.servers_per_shard = 3;
  opts.faults = 1;
  opts.retry = ms(20);
  SpawnedNode node = deploy::spawn_node_group(opts);
  ASSERT_FALSE(node.addr.empty());

  ShardMap map = ShardMap::uniform(1, 3, 1);
  SocketClient c(map, /*retry=*/ms(50));
  c.route_group(map.servers(0), node.addr);
  c.env.start();

  Tag t1 = c.write("k", "before-kill");
  EXPECT_EQ(c.read("k").value, "before-kill");

  // kill -9: no goodbye, connections die mid-stream.
  deploy::kill_node_group(node);

  // Restart the whole group on the SAME address (fresh state; liveness,
  // not durability, is what the runtime owes us here).
  opts.listen = node.addr;
  SpawnedNode reborn = deploy::spawn_node_group(opts);
  ASSERT_EQ(reborn.addr, node.addr);

  Tag t2 = c.write("k", "after-restart", seconds(60));
  EXPECT_EQ(c.read("k", seconds(60)).value, "after-restart");
  (void)t1;
  (void)t2;

  deploy::stop_node_group(reborn);
  c.env.stop();
}

TEST(SocketMultiProcess, TwoShardGroupsServeDisjointKeyspace) {
  NodeOptions opts;
  opts.num_shards = 2;
  opts.servers_per_shard = 3;
  opts.faults = 1;
  opts.shard = 0;
  SpawnedNode g0 = deploy::spawn_node_group(opts);
  opts.shard = 1;
  SpawnedNode g1 = deploy::spawn_node_group(opts);

  ShardMap map = ShardMap::uniform(2, 3, 1);
  SocketClient c(map, /*retry=*/ms(50));
  c.route_group(map.servers(0), g0.addr);
  c.route_group(map.servers(1), g1.addr);
  c.env.start();

  // Enough keys to hit both shards with near-certainty.
  for (int k = 0; k < 8; ++k) {
    std::string key = "key" + std::to_string(k);
    c.write(key, "v" + std::to_string(k));
  }
  for (int k = 0; k < 8; ++k) {
    std::string key = "key" + std::to_string(k);
    EXPECT_EQ(c.read(key).value, "v" + std::to_string(k));
  }

  deploy::stop_node_group(g0);
  deploy::stop_node_group(g1);
  c.env.stop();
}

// --- multi-env in one process -----------------------------------------------

TEST(SocketMultiEnv, PartitionTearsDownRealConnections) {
  // One env hosts the whole group (like a node process), one the client.
  ShardMap map = ShardMap::uniform(1, 3, 1);
  const SystemConfig& cfg = map.config(0);

  SocketEnv::Options so;
  so.listen = net::SocketAddr::parse("tcp:127.0.0.1:0");
  SocketEnv server_env(so);
  std::vector<std::unique_ptr<DynamicStorageNode>> nodes;
  for (ProcessId s : cfg.servers()) {
    nodes.push_back(std::make_unique<DynamicStorageNode>(server_env, s, cfg));
    server_env.register_process(s, nodes.back().get());
  }
  server_env.start();
  std::string addr = server_env.listen_addr().str();

  SocketClient c(map, /*retry=*/ms(25));
  c.route_group(cfg.servers(), addr);
  c.env.start();

  c.write("k", "v1");
  ASSERT_EQ(c.read("k").value, "v1");
  std::uint64_t opened_before = c.env.transport().conns_opened();
  ASSERT_GE(opened_before, 1u);

  // Cut the client off from every server: the client env's fault poll
  // must tear the underlying connection down for real.
  for (ProcessId s : cfg.servers()) {
    c.env.faults().partition(c.pid, s);
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (c.env.fault_teardowns() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(c.env.fault_teardowns(), 1u);
  EXPECT_GE(c.env.transport().conns_closed(), 1u);

  // Heal: the retrying client redials (fresh connection) and finishes.
  c.env.faults().heal_all();
  EXPECT_EQ(c.read("k", seconds(60)).value, "v1");
  EXPECT_GT(c.env.transport().conns_opened(), opened_before);

  c.env.stop();
  server_env.stop();
}

TEST(SocketMultiEnv, UnixDomainTransport) {
  std::string path = "/tmp/wrs_socket_test_" + std::to_string(::getpid()) +
                     ".sock";
  ShardMap map = ShardMap::uniform(1, 3, 1);
  const SystemConfig& cfg = map.config(0);

  SocketEnv::Options so;
  so.listen = net::SocketAddr::parse("unix:" + path);
  SocketEnv server_env(so);
  std::vector<std::unique_ptr<DynamicStorageNode>> nodes;
  for (ProcessId s : cfg.servers()) {
    nodes.push_back(std::make_unique<DynamicStorageNode>(server_env, s, cfg));
    server_env.register_process(s, nodes.back().get());
  }
  server_env.start();
  EXPECT_EQ(server_env.listen_addr().str(), "unix:" + path);

  SocketClient c(map, /*retry=*/ms(50));
  c.route_group(cfg.servers(), "unix:" + path);
  c.env.start();

  c.write("u", "over-unix-sockets");
  EXPECT_EQ(c.read("u").value, "over-unix-sockets");

  c.env.stop();
  server_env.stop();
}

// --- single-process loopback Cluster ----------------------------------------

struct SmokeResult {
  std::size_t completed = 0;
  std::uint64_t envelopes = 0;
};

/// Runs a 2-shard atomicity-checked workload on Transport::kSocket and
/// asserts the real-bytes shard ledger partitions the aggregate.
SmokeResult run_loopback_smoke(std::size_t batch_window) {
  auto history = std::make_shared<HistoryRecorder>();
  WorkloadParams wp;
  wp.num_ops = 40;
  wp.read_ratio = 0.5;
  wp.think_time = us(200);
  wp.num_keys = 8;
  wp.value_size = 24;
  wp.seed = 11;

  ClusterBuilder b = Cluster::builder()
                         .servers(3)
                         .faults(1)
                         .shards(2)
                         .clients(2)
                         .workload(wp)
                         .history(history)
                         .retry(ms(100))
                         .transport(Transport::kSocket)
                         .seed(11);
  if (batch_window > 1) b.batching(batch_window, ms(1));
  Cluster c = b.build();

  SmokeResult r;
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_TRUE(c.workload_done(k).get(seconds(120)));
  }
  c.quiesce();
  for (std::size_t k = 0; k < 2; ++k) {
    r.completed += c.workload(k).completed();
    r.envelopes += c.workload(k).router().batches_sent();
  }
  EXPECT_EQ(r.completed, 2 * wp.num_ops);

  auto verdict = check_atomicity(history->completed());
  EXPECT_FALSE(verdict.has_value()) << *verdict;

  // Satellite: per-shard traffic — measured in REAL encoded frame bytes
  // on this transport — still partitions the aggregate exactly.
  std::int64_t shard_msgs = 0, shard_bytes = 0;
  for (ShardId g = 0; g < 2; ++g) {
    EXPECT_GT(c.shard_traffic(g).get("msgs"), 0) << "shard " << g;
    shard_msgs += c.shard_traffic(g).get("msgs");
    shard_bytes += c.shard_traffic(g).get("bytes");
  }
  EXPECT_EQ(shard_msgs, c.traffic().get("msgs"));
  EXPECT_EQ(shard_bytes, c.traffic().get("bytes"));
  EXPECT_GT(shard_bytes, 0);
  return r;
}

TEST(SocketCluster, LoopbackWorkloadIsAtomic) {
  run_loopback_smoke(/*batch_window=*/1);
}

TEST(SocketCluster, LoopbackBatchedWorkloadIsAtomic) {
  SmokeResult r = run_loopback_smoke(/*batch_window=*/8);
  // Batching actually engaged: ops were coalesced into envelopes.
  EXPECT_GT(r.envelopes, 0u);
}

TEST(SocketCluster, FaultVerbsAndCrashOnRealSockets) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  .faults(1)
                  .clients(1)
                  .retry(ms(25))
                  .transport(Transport::kSocket)
                  .seed(3)
                  .build();

  EXPECT_EQ(c.transport(), Transport::kSocket);
  ASSERT_NE(c.sockets(), nullptr);

  c.client().write("k", "v0").get(seconds(30));

  // Isolate one server: the 2-of-3 weighted quorum still serves.
  c.isolate(2);
  c.client().write("k", "v1").get(seconds(60));
  EXPECT_EQ(c.client().read("k").get(seconds(60)).value, "v1");
  c.heal_all_links();

  // Crash-stop a different server: still 2 of 3.
  c.crash(1);
  c.client().write("k", "v2").get(seconds(60));
  EXPECT_EQ(c.client().read("k").get(seconds(60)).value, "v2");
}

/// User + system CPU of the whole process (every thread), in ms.
double process_cpu_ms() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto ms_of = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms_of(ru.ru_utime) + ms_of(ru.ru_stime);
}

TEST(SocketCluster, IdleLoopParksInsteadOfSpinning) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  .faults(1)
                  .clients(1)
                  .transport(Transport::kSocket)
                  .seed(5)
                  .build();
  c.client().write("k", "v").get(seconds(30));
  ASSERT_EQ(c.client().read("k").get(seconds(30)).value, "v");

  // Every connection is up and idle now. A loop that sleeps in epoll
  // wakes only for the 25 ms fault poll; a stale EPOLLOUT on a writable
  // socket would burn a whole core (~500 ms of CPU here).
  double before = process_cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  double used = process_cpu_ms() - before;
  EXPECT_LT(used, 50.0) << "idle cluster used " << used
                        << " ms of CPU in 500 ms";
}

TEST(SocketCluster, SimRuntimeRequestRejected) {
  EXPECT_THROW(Cluster::builder()
                   .servers(3)
                   .runtime(Runtime::kSim)
                   .transport(Transport::kSocket)
                   .build(),
               std::invalid_argument);
}

TEST(SocketCluster, CustomProcessesRejected) {
  EXPECT_THROW(
      Cluster::builder()
          .servers(3)
          .transport(Transport::kSocket)
          .add_process(7000, [](Env&, const SystemConfig&) {
            return std::unique_ptr<Process>();
          })
          .build(),
      std::invalid_argument);
}

// --- raw SocketTransport -----------------------------------------------------

using net::SocketTransport;

/// One wire frame whose 8-byte body is `seq` (little-endian).
net::Segment seq_frame(net::EncodeArena& arena, std::uint64_t seq) {
  std::uint8_t buf[12];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<std::uint8_t>(8 >> (8 * i));
  for (int i = 0; i < 8; ++i) {
    buf[4 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  return arena.copy(buf, sizeof(buf));
}

/// A started transport that records the sequence number of every frame
/// it receives and counts the connections it loses. `hook` (optional)
/// runs on the loop thread after each frame is recorded.
struct Endpoint {
  using Hook = std::function<void(Endpoint&, SocketTransport::ConnId,
                                  std::uint64_t seq)>;

  net::EncodeArena loop_arena;  // loop thread only (for hooks)
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::uint64_t> seqs;
  int closed = 0;
  // Declared last, so it is destroyed first: its loop thread stops
  // before the state its callbacks touch goes away.
  SocketTransport t;

  explicit Endpoint(bool listen, Hook hook = {}) {
    t.set_events(SocketTransport::Events{
        [this, hook = std::move(hook)](SocketTransport::ConnId conn,
                                       const std::uint8_t* body,
                                       std::size_t len) {
          std::uint64_t seq = 0;
          for (std::size_t i = 0; i < len && i < 8; ++i) {
            seq |= std::uint64_t{body[i]} << (8 * i);
          }
          {
            std::lock_guard lock(mu);
            seqs.push_back(seq);
          }
          cv.notify_all();
          if (hook) hook(*this, conn, seq);
        },
        [this](SocketTransport::ConnId) {
          {
            std::lock_guard lock(mu);
            ++closed;
          }
          cv.notify_all();
        },
        {}});
    if (listen) t.listen(net::SocketAddr::parse("tcp:127.0.0.1:0"));
    t.start();
  }

  bool wait_for(const std::function<bool()>& pred) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(10), pred);
  }
  bool wait_frames(std::size_t n) {
    return wait_for([&] { return seqs.size() >= n; });
  }
  std::vector<std::uint64_t> received() {
    std::lock_guard lock(mu);
    return seqs;
  }

  /// Returns once the loop has finished everything posted before it.
  void sync() {
    Await<bool> done;
    t.post([done] { done.fulfill(true); });
    done.get(seconds(10));
  }
};

TEST(SocketTransportWrites, OneCallbacksFramesLeaveInOneWrite) {
  Endpoint server(/*listen=*/true);
  Endpoint client(/*listen=*/false);
  SocketTransport::PeerId peer = client.t.intern_peer(*server.t.listen_addr());
  net::EncodeArena arena;

  // Connect first, so the batch below meets an established connection.
  client.t.send_to_peer(peer, seq_frame(arena, 0));
  ASSERT_TRUE(server.wait_frames(1));
  client.sync();

  std::uint64_t before = client.t.writes();
  std::vector<net::Segment> batch;
  for (std::uint64_t s = 1; s <= 3; ++s) batch.push_back(seq_frame(arena, s));
  client.t.post([&client, &batch, peer] {
    for (net::Segment& f : batch) client.t.send_to_peer(peer, std::move(f));
  });
  ASSERT_TRUE(server.wait_frames(4));
  client.sync();

  EXPECT_EQ(client.t.writes() - before, 1u);
  EXPECT_EQ(server.received(), (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(client.t.frames_dropped(), 0u);
}

TEST(SocketTransportWrites, CrossThreadSendsKeepConnectionFifo) {
  Endpoint server(/*listen=*/true);
  Endpoint client(/*listen=*/false);
  SocketTransport::PeerId peer = client.t.intern_peer(*server.t.listen_addr());
  net::EncodeArena arena;

  // The first frames queue while the dial is in flight, the rest go
  // straight onto the connection's write queue: order holds across both.
  constexpr std::uint64_t kFrames = 2000;
  for (std::uint64_t s = 0; s < kFrames; ++s) {
    client.t.send_to_peer(peer, seq_frame(arena, s));
  }
  ASSERT_TRUE(server.wait_frames(kFrames));
  std::vector<std::uint64_t> got = server.received();
  ASSERT_EQ(got.size(), kFrames);
  for (std::uint64_t s = 0; s < kFrames; ++s) ASSERT_EQ(got[s], s);
  EXPECT_EQ(client.t.conns_opened(), 1u);
  EXPECT_EQ(client.t.frames_dropped(), 0u);
}

TEST(SocketTransportWrites, CallbackSendsThenClosesItsOwnConnection) {
  // The server answers each frame on the connection it came in on and
  // then closes that connection from the same callback.
  Endpoint server(/*listen=*/true, [](Endpoint& self,
                                      SocketTransport::ConnId conn,
                                      std::uint64_t seq) {
    self.t.send_on_conn(conn, seq_frame(self.loop_arena, seq + 100));
    self.t.close_conn(conn);
  });
  Endpoint client(/*listen=*/false);
  SocketTransport::PeerId peer = client.t.intern_peer(*server.t.listen_addr());
  net::EncodeArena arena;

  client.t.send_to_peer(peer, seq_frame(arena, 7));
  ASSERT_TRUE(client.wait_for([&] { return client.closed >= 1; }));
  ASSERT_TRUE(server.wait_for([&] { return !server.seqs.empty(); }));
  server.sync();

  // The reply was flushed before the close ran, so it reached the client.
  EXPECT_EQ(client.received(), (std::vector<std::uint64_t>{107}));
  EXPECT_EQ(server.t.conns_closed(), 1u);
}

}  // namespace
}  // namespace wrs

#endif  // __linux__
