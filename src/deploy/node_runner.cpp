#ifdef __linux__

#include "deploy/node_runner.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "net/socket_addr.h"
#include "runtime/socket_env.h"
#include "shard/shard_map.h"
#include "storage/dynamic_node.h"

namespace wrs::deploy {
namespace {

/// Poll period for the stop flag while the loop thread does the work.
constexpr auto kStopPoll = std::chrono::milliseconds(100);

void write_ready_line(int fd, const std::string& addr) {
  std::string line = addr + "\n";
  const char* p = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // parent gone; keep serving anyway
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

}  // namespace

int run_node(const NodeOptions& opts, const std::atomic<bool>* stop) {
  if (opts.servers_per_shard == 0 || opts.num_shards == 0 ||
      opts.shard >= opts.num_shards) {
    std::fprintf(stderr,
                 "wrs-node: need servers >= 1 and shard < num_shards "
                 "(got shard=%u num_shards=%u servers=%u)\n",
                 opts.shard, opts.num_shards, opts.servers_per_shard);
    return 2;
  }

  ShardMap shard_map = ShardMap::uniform(opts.num_shards,
                                         opts.servers_per_shard, opts.faults);
  const SystemConfig& cfg = shard_map.config(opts.shard);

  SocketEnv::Options env_opts;
  env_opts.listen = net::SocketAddr::parse(opts.listen);
  env_opts.seed = opts.seed;
  SocketEnv env(env_opts);

  std::vector<std::unique_ptr<DynamicStorageNode>> nodes;
  for (ProcessId s : cfg.servers()) {
    auto node = std::make_unique<DynamicStorageNode>(env, s, cfg);
    if (opts.service_time > 0) node->server().set_service_time(opts.service_time);
    if (opts.retry > 0) node->client().set_retry_interval(opts.retry);
    if (opts.anti_entropy > 0) node->reassign().enable_sync(opts.anti_entropy);
    env.register_process(s, node.get());
    nodes.push_back(std::move(node));
  }

  env.start();
  std::string addr = env.listen_addr().str();
  if (opts.ready_fd >= 0) {
    write_ready_line(opts.ready_fd, addr);
    ::close(opts.ready_fd);
  } else {
    std::printf("%s\n", addr.c_str());
    std::fflush(stdout);
  }

  while (stop == nullptr || !stop->load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(kStopPoll);
  }
  env.stop();
  return 0;
}

// --- flag / config parsing --------------------------------------------------

namespace {

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  try {
    std::size_t used = 0;
    std::uint64_t out = std::stoull(v, &used);
    if (used != v.size()) throw std::invalid_argument("");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("wrs-node: bad number for " + flag + ": \"" +
                                v + "\"");
  }
}

/// Applies one key=value pair; `key` uses flag spelling without dashes.
void apply_option(NodeOptions& opts, const std::string& key,
                  const std::string& value) {
  if (key == "shard") {
    opts.shard = static_cast<std::uint32_t>(parse_u64(key, value));
  } else if (key == "num-shards") {
    opts.num_shards = static_cast<std::uint32_t>(parse_u64(key, value));
  } else if (key == "servers") {
    opts.servers_per_shard = static_cast<std::uint32_t>(parse_u64(key, value));
  } else if (key == "faults") {
    opts.faults = static_cast<std::uint32_t>(parse_u64(key, value));
  } else if (key == "listen") {
    opts.listen = value;
  } else if (key == "service-time-us") {
    opts.service_time = us(static_cast<double>(parse_u64(key, value)));
  } else if (key == "retry-ms") {
    opts.retry = ms(static_cast<double>(parse_u64(key, value)));
  } else if (key == "anti-entropy-ms") {
    opts.anti_entropy = ms(static_cast<double>(parse_u64(key, value)));
  } else if (key == "seed") {
    opts.seed = parse_u64(key, value);
  } else if (key == "ready-fd") {
    opts.ready_fd = static_cast<int>(parse_u64(key, value));
  } else {
    throw std::invalid_argument("wrs-node: unknown option \"" + key + "\"");
  }
}

/// Minimal parser for the flat JSON object the --config file holds:
/// string keys, string or integer values, no nesting. Rejects anything
/// it does not understand rather than guessing.
void apply_config_file(NodeOptions& opts, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("wrs-node: cannot read config file " + path);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
  };
  auto fail = [&](const std::string& what) -> std::invalid_argument {
    return std::invalid_argument("wrs-node: config " + path + ": " + what +
                                 " at offset " + std::to_string(i));
  };
  auto parse_string = [&]() -> std::string {
    if (text[i] != '"') throw fail("expected string");
    ++i;
    std::string out;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\') throw fail("escapes unsupported");
      out.push_back(text[i++]);
    }
    if (i >= text.size()) throw fail("unterminated string");
    ++i;
    return out;
  };

  skip_ws();
  if (i >= text.size() || text[i] != '{') throw fail("expected '{'");
  ++i;
  skip_ws();
  if (i < text.size() && text[i] == '}') return;  // empty object
  while (true) {
    skip_ws();
    std::string key = parse_string();
    skip_ws();
    if (i >= text.size() || text[i] != ':') throw fail("expected ':'");
    ++i;
    skip_ws();
    std::string value;
    if (i < text.size() && text[i] == '"') {
      value = parse_string();
    } else {
      while (i < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[i])))) {
        value.push_back(text[i++]);
      }
      if (value.empty()) throw fail("expected string or integer value");
    }
    apply_option(opts, key, value);
    skip_ws();
    if (i < text.size() && text[i] == ',') {
      ++i;
      continue;
    }
    if (i < text.size() && text[i] == '}') return;
    throw fail("expected ',' or '}'");
  }
}

}  // namespace

NodeOptions parse_node_flags(int argc, const char* const* argv) {
  NodeOptions opts;
  // First pass: the config file is the base layer.
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg.rfind("--config=", 0) == 0) {
      apply_config_file(opts, arg.substr(9));
    }
  }
  // Second pass: explicit flags override it.
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg.rfind("--config=", 0) == 0) continue;
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("wrs-node: unknown argument \"" + arg +
                                  "\" (flags are --key=value)");
    }
    std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("wrs-node: flag " + arg + " needs =value");
    }
    apply_option(opts, arg.substr(2, eq - 2), arg.substr(eq + 1));
  }
  return opts;
}

// --- fork helpers -----------------------------------------------------------

namespace {

std::atomic<bool> g_child_stop{false};

void child_stop_handler(int) {
  g_child_stop.store(true, std::memory_order_release);
}

}  // namespace

SpawnedNode spawn_node_group(NodeOptions opts) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error(std::string("spawn_node_group: pipe: ") +
                             std::strerror(errno));
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    throw std::runtime_error(std::string("spawn_node_group: fork: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    // Child: become a node process, report ready over the pipe.
    ::close(pipe_fds[0]);
    g_child_stop.store(false);
    struct sigaction sa{};
    sa.sa_handler = child_stop_handler;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    opts.ready_fd = pipe_fds[1];
    int rc = 2;
    try {
      rc = run_node(opts, &g_child_stop);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wrs-node (shard %u): %s\n", opts.shard, e.what());
    }
    ::_exit(rc);  // never unwind into the parent's state
  }
  ::close(pipe_fds[1]);
  // Read the ready line "<addr>\n".
  std::string addr;
  char c;
  while (true) {
    ssize_t n = ::read(pipe_fds[0], &c, 1);
    if (n == 1) {
      if (c == '\n') break;
      addr.push_back(c);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF before newline: child died
  }
  ::close(pipe_fds[0]);
  if (addr.empty()) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    throw std::runtime_error("spawn_node_group: shard " +
                             std::to_string(opts.shard) +
                             " died before reporting ready");
  }
  return SpawnedNode{pid, addr};
}

void stop_node_group(const SpawnedNode& node) {
  if (node.pid <= 0) return;
  ::kill(node.pid, SIGTERM);
  int status = 0;
  ::waitpid(node.pid, &status, 0);
}

void kill_node_group(const SpawnedNode& node) {
  if (node.pid <= 0) return;
  ::kill(node.pid, SIGKILL);
  int status = 0;
  ::waitpid(node.pid, &status, 0);
}

}  // namespace wrs::deploy

#endif  // __linux__
