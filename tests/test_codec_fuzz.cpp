// Seeded fuzz of the socket wire codec (src/net/wire_codec.h).
//
//  * Round trip: random instances of EVERY wire message type must
//    survive serialize -> deserialize -> serialize byte-identically.
//  * Truncation: every strict prefix of a valid frame body is rejected.
//  * Corruption: seeded random byte flips either decode to a
//    re-encodable message or are rejected — never a crash (run under
//    ASan/UBSan in CI).
//  * Lifetime: decoded messages own all their state — nothing aliases
//    the receive buffer, and encoded frames never alias sender-owned
//    message state (the in-process runtimes share messages as MsgPtr;
//    the wire boundary must deep-copy). The scribble/free pattern below
//    turns any aliasing into an ASan report or a byte mismatch.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "broadcast/reliable_broadcast.h"
#include "common/rng.h"
#include "core/reassign_messages.h"
#include "monitor/adaptive_node.h"
#include "net/wire_codec.h"
#include "storage/abd_messages.h"
#include "storage/migration_messages.h"
#include "storage/snapshot_messages.h"

namespace wrs::net {
namespace {

// --- seeded generators ------------------------------------------------------

std::string rand_string(Rng& rng, std::size_t max_len = 24) {
  std::size_t n = rng.below(max_len + 1);
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>('!' + rng.below(94)));
  }
  return s;
}

Weight rand_weight(Rng& rng) {
  auto num = static_cast<std::int64_t>(rng.below(41)) - 20;
  auto den = static_cast<std::int64_t>(1 + rng.below(9));
  return Weight(num, den);
}

Tag rand_tag(Rng& rng) {
  return Tag{static_cast<std::int64_t>(rng.below(1'000'000)),
             static_cast<ProcessId>(rng.below(kClientIdBase + 64))};
}

TaggedValue rand_tagged_value(Rng& rng) {
  return TaggedValue{rand_tag(rng), rand_string(rng, 48)};
}

ChangeSet rand_change_set(Rng& rng) {
  ChangeSet cs;
  std::size_t n = rng.below(5);
  for (std::size_t i = 0; i < n; ++i) {
    // Unique counters so ids never collide within the set.
    cs.add(Change(static_cast<ProcessId>(rng.below(8)),
                  kFirstCounter + i,
                  static_cast<ProcessId>(rng.below(8)), rand_weight(rng)));
  }
  return cs;
}

ChangeSetPtr rand_changes_ptr(Rng& rng) {
  if (rng.below(3) == 0) return nullptr;
  return std::make_shared<const ChangeSet>(rand_change_set(rng));
}

/// Known versions of a random group size up to the capacity; some
/// entries 0 (nothing merged yet from that server).
KnownVersions rand_known(Rng& rng) {
  KnownVersions known =
      KnownVersions::for_group(rng.below(KnownVersions::kCapacity + 1));
  for (std::size_t i = 0; i < known.size(); ++i) {
    known.set(i, rng.below(4) == 0 ? 0 : rng());
  }
  return known;
}

/// A reply's piggyback: a set with its version, or neither (the codec
/// carries the version only with the set).
std::pair<ChangeSetPtr, SetVersion> rand_piggyback(Rng& rng) {
  ChangeSetPtr cs = rand_changes_ptr(rng);
  SetVersion v = cs ? rng() : 0;
  return {std::move(cs), v};
}

MsgPtr rand_read_req(Rng& rng) {
  return std::make_shared<ReadReq>(rng(), rand_string(rng),
                                   static_cast<std::uint32_t>(rng.below(100)),
                                   static_cast<ShardId>(rng.below(4)),
                                   rand_known(rng));
}

MsgPtr rand_write_req(Rng& rng) {
  return std::make_shared<WriteReq>(rng(), rand_tagged_value(rng),
                                    rand_string(rng),
                                    static_cast<std::uint32_t>(rng.below(100)),
                                    static_cast<ShardId>(rng.below(4)),
                                    rand_known(rng));
}

MsgPtr rand_keys_req(Rng& rng) {
  return std::make_shared<KeysReq>(rng(),
                                   static_cast<std::uint32_t>(rng.below(100)),
                                   static_cast<ShardId>(rng.below(4)),
                                   rand_known(rng));
}

MsgPtr rand_read_ack(Rng& rng) {
  auto [cs, v] = rand_piggyback(rng);
  return std::make_shared<ReadAck>(rng(), rand_tagged_value(rng),
                                   std::move(cs),
                                   static_cast<std::uint32_t>(rng.below(100)),
                                   v);
}

MsgPtr rand_write_ack(Rng& rng) {
  auto [cs, v] = rand_piggyback(rng);
  return std::make_shared<WriteAck>(rng(), std::move(cs),
                                    static_cast<std::uint32_t>(rng.below(100)),
                                    v);
}

MsgPtr rand_keys_ack(Rng& rng) {
  std::vector<RegisterKey> keys;
  std::size_t n = rng.below(6);
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(rand_string(rng));
  auto [cs, v] = rand_piggyback(rng);
  return std::make_shared<KeysAck>(rng(), std::move(keys), std::move(cs),
                                   static_cast<std::uint32_t>(rng.below(100)),
                                   v);
}

MsgPtr rand_batch_request(Rng& rng) {
  std::vector<MsgPtr> frames;
  std::size_t n = 1 + rng.below(4);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.below(3)) {
      case 0: frames.push_back(rand_read_req(rng)); break;
      case 1: frames.push_back(rand_write_req(rng)); break;
      default: frames.push_back(rand_keys_req(rng)); break;
    }
  }
  return std::make_shared<BatchRequest>(static_cast<ShardId>(rng.below(4)),
                                        std::move(frames));
}

MsgPtr rand_batch_reply(Rng& rng) {
  std::vector<MsgPtr> frames;
  std::size_t n = 1 + rng.below(4);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.below(3)) {
      case 0: frames.push_back(rand_read_ack(rng)); break;
      case 1: frames.push_back(rand_write_ack(rng)); break;
      default: frames.push_back(rand_keys_ack(rng)); break;
    }
  }
  return std::make_shared<BatchReply>(std::move(frames));
}

MsgPtr rand_transfer(Rng& rng) {
  Weight delta = rand_weight(rng);
  std::uint64_t counter = kFirstCounter + rng.below(50);
  auto issuer = static_cast<ProcessId>(rng.below(8));
  return std::make_shared<TransferMsg>(
      Change(issuer, counter, static_cast<ProcessId>(rng.below(8)), -delta),
      Change(issuer, counter, static_cast<ProcessId>(rng.below(8)), delta),
      static_cast<ShardId>(rng.below(4)));
}

MsgPtr rand_rb(Rng& rng) {
  return std::make_shared<RbMsg>(static_cast<ProcessId>(rng.below(8)), rng(),
                                 rand_transfer(rng));
}

MsgPtr rand_sync(Rng& rng) {
  std::optional<std::uint64_t> pending;
  if (rng.below(2) == 0) pending = rng();
  return std::make_shared<SyncMsg>(rand_change_set(rng), pending,
                                   static_cast<ShardId>(rng.below(4)));
}

MsgPtr rand_mig_freeze(Rng& rng) {
  return std::make_shared<MigFreeze>(rng(), rand_string(rng), rng(),
                                     static_cast<ShardId>(rng.below(4)),
                                     static_cast<std::uint32_t>(rng.below(100)),
                                     static_cast<ShardId>(rng.below(4)));
}

MsgPtr rand_mig_commit(Rng& rng) {
  std::optional<TaggedValue> install;
  if (rng.below(2) == 0) install = rand_tagged_value(rng);
  return std::make_shared<MigCommit>(rng(), rand_string(rng),
                                     static_cast<ShardId>(rng.below(4)), rng(),
                                     std::move(install),
                                     static_cast<std::uint32_t>(rng.below(100)),
                                     static_cast<ShardId>(rng.below(4)));
}

MsgPtr rand_wrong_shard(Rng& rng) {
  return std::make_shared<WrongShardAck>(
      rng(), rand_string(rng), static_cast<ShardId>(rng.below(4)), rng(),
      static_cast<std::uint32_t>(rng.below(100)));
}

std::vector<RegisterKey> rand_key_list(Rng& rng) {
  std::vector<RegisterKey> keys;
  std::size_t n = rng.below(6);
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(rand_string(rng));
  return keys;
}

SnapEntry rand_snap_entry(Rng& rng) {
  SnapEntry e;
  e.key = rand_string(rng);
  e.reg = rand_tagged_value(rng);
  e.flag = static_cast<std::uint8_t>(rng.below(3));
  e.owner = static_cast<ShardId>(rng.below(4));
  e.epoch = rng();
  return e;
}

std::vector<SnapEntry> rand_snap_entries(Rng& rng) {
  std::vector<SnapEntry> entries;
  std::size_t n = rng.below(5);
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) entries.push_back(rand_snap_entry(rng));
  return entries;
}

MsgPtr rand_snap_req(Rng& rng) {
  return std::make_shared<SnapReq>(rng(), rand_key_list(rng),
                                   static_cast<std::uint32_t>(rng.below(100)),
                                   static_cast<ShardId>(rng.below(4)));
}

MsgPtr rand_snap_ack(Rng& rng) {
  return std::make_shared<SnapAck>(rng(), rand_snap_entries(rng),
                                   rand_changes_ptr(rng),
                                   static_cast<std::uint32_t>(rng.below(100)),
                                   rng.below(2) == 0);
}

MsgPtr rand_snap_freeze(Rng& rng) {
  return std::make_shared<SnapFreeze>(rng(), rng(), rand_key_list(rng),
                                      static_cast<std::uint32_t>(rng.below(100)),
                                      static_cast<ShardId>(rng.below(4)));
}

MsgPtr rand_snap_release(Rng& rng) {
  return std::make_shared<SnapRelease>(
      rng(), rng(), rand_snap_entries(rng),
      static_cast<std::uint32_t>(rng.below(100)),
      static_cast<ShardId>(rng.below(4)));
}

MsgPtr rand_rtt_report(Rng& rng) {
  std::map<ProcessId, double> rtts;
  std::size_t n = rng.below(6);
  for (std::size_t i = 0; i < n; ++i) {
    rtts[static_cast<ProcessId>(rng.below(16))] = rng.uniform(0.0, 50.0);
  }
  return std::make_shared<RttReportMsg>(std::move(rtts));
}

using Maker = std::function<MsgPtr(Rng&)>;

const std::vector<std::pair<const char*, Maker>>& all_makers() {
  static const std::vector<std::pair<const char*, Maker>> makers = {
      {"ReadReq", rand_read_req},
      {"ReadAck", rand_read_ack},
      {"WriteReq", rand_write_req},
      {"WriteAck", rand_write_ack},
      {"KeysReq", rand_keys_req},
      {"KeysAck", rand_keys_ack},
      {"BatchRequest", rand_batch_request},
      {"BatchReply", rand_batch_reply},
      {"RcReq",
       [](Rng& rng) -> MsgPtr {
         return std::make_shared<RcReq>(rng(),
                                        static_cast<ProcessId>(rng.below(8)),
                                        static_cast<ShardId>(rng.below(4)));
       }},
      {"RcAck",
       [](Rng& rng) -> MsgPtr {
         return std::make_shared<RcAck>(rng(), rand_change_set(rng));
       }},
      {"WcReq",
       [](Rng& rng) -> MsgPtr {
         return std::make_shared<WcReq>(rng(), rand_change_set(rng),
                                        static_cast<ShardId>(rng.below(4)));
       }},
      {"WcAck", [](Rng& rng) -> MsgPtr { return std::make_shared<WcAck>(rng()); }},
      {"Transfer", rand_transfer},
      {"TAck",
       [](Rng& rng) -> MsgPtr {
         return std::make_shared<TAck>(rng(),
                                       static_cast<ShardId>(rng.below(4)));
       }},
      {"Sync", rand_sync},
      {"Rb", rand_rb},
      {"Ping",
       [](Rng& rng) -> MsgPtr {
         return std::make_shared<PingMsg>(
             static_cast<TimeNs>(rng.below(1'000'000'000)));
       }},
      {"Pong",
       [](Rng& rng) -> MsgPtr {
         return std::make_shared<PongMsg>(
             static_cast<TimeNs>(rng.below(1'000'000'000)));
       }},
      {"RttReport", rand_rtt_report},
      {"MigFreeze", rand_mig_freeze},
      {"MigCommit", rand_mig_commit},
      {"WrongShard", rand_wrong_shard},
      {"SnapReq", rand_snap_req},
      {"SnapAck", rand_snap_ack},
      {"SnapFreeze", rand_snap_freeze},
      {"SnapRelease", rand_snap_release},
  };
  return makers;
}

ProcessId rand_pid(Rng& rng) {
  return rng.below(2) ? static_cast<ProcessId>(rng.below(64))
                      : client_id(static_cast<std::uint32_t>(rng.below(8)));
}

// --- round trip -------------------------------------------------------------

TEST(CodecFuzz, RoundTripByteIdenticalEveryType) {
  Rng rng(0xC0DEC);
  for (const auto& [name, make] : all_makers()) {
    for (int i = 0; i < 200; ++i) {
      MsgPtr msg = make(rng);
      ProcessId from = rand_pid(rng);
      ProcessId to = rand_pid(rng);
      std::vector<std::uint8_t> bytes = WireCodec::encode_frame(from, to, *msg);
      ASSERT_GT(bytes.size(), 4u) << name;
      auto decoded = WireCodec::decode_frame(bytes.data() + 4, bytes.size() - 4);
      ASSERT_TRUE(decoded.has_value()) << name << " iteration " << i;
      EXPECT_EQ(decoded->from, from) << name;
      EXPECT_EQ(decoded->to, to) << name;
      ASSERT_NE(decoded->msg, nullptr) << name;
      // The decoded message is a fresh object of the same concrete type
      // whose re-encoding is byte-identical.
      EXPECT_EQ(decoded->msg->type_name(), msg->type_name()) << name;
      std::vector<std::uint8_t> again =
          WireCodec::encode_frame(decoded->from, decoded->to, *decoded->msg);
      EXPECT_EQ(bytes, again) << name << " iteration " << i
                              << ": re-encode not byte-identical";
    }
  }
}

TEST(CodecFuzz, ArenaEncodeByteIdenticalToLegacyEveryType) {
  // encode_frame_arena is the hot-path encoder (SocketEnv writes arena
  // segments straight to the wire); it must produce exactly the bytes
  // of the vector-returning encode_frame for every type — including
  // when frames straddle a chunk boundary, which the shared arena below
  // eventually forces.
  Rng rng(0xA7E4A);
  net::EncodeArena arena;
  std::vector<net::Segment> held;  // pin chunks so offsets keep advancing
  for (const auto& [name, make] : all_makers()) {
    for (int i = 0; i < 100; ++i) {
      MsgPtr msg = make(rng);
      ProcessId from = rand_pid(rng);
      ProcessId to = rand_pid(rng);
      std::vector<std::uint8_t> legacy =
          WireCodec::encode_frame(from, to, *msg);
      net::Segment seg =
          WireCodec::encode_frame_arena(arena, from, to, *msg);
      ASSERT_EQ(seg.size(), legacy.size()) << name << " iteration " << i;
      EXPECT_EQ(std::memcmp(seg.data(), legacy.data(), legacy.size()), 0)
          << name << " iteration " << i << ": arena encode differs";
      if (rng.below(4) == 0) held.push_back(std::move(seg));
      if (held.size() > 64) held.clear();
    }
  }
}

TEST(CodecFuzz, ArenaSegmentsSurviveArenaReuse) {
  // A retained segment (a queued write) stays valid while the arena
  // moves on to fresh chunks; copies share the refcount.
  net::EncodeArena arena;
  Rng rng(0x5E6);
  MsgPtr msg = all_makers()[0].second(rng);
  net::Segment first = WireCodec::encode_frame_arena(arena, 1, 2, *msg);
  std::vector<std::uint8_t> pinned(first.data(), first.data() + first.size());
  // Churn the arena well past one chunk.
  for (int i = 0; i < 50'000; ++i) {
    net::Segment s = WireCodec::encode_frame_arena(arena, 1, 2, *msg);
    (void)s;
  }
  net::Segment copy(first);
  EXPECT_EQ(copy.size(), first.size());
  EXPECT_EQ(std::memcmp(first.data(), pinned.data(), pinned.size()), 0);
  EXPECT_EQ(std::memcmp(copy.data(), pinned.data(), pinned.size()), 0);
}

TEST(CodecFuzz, WireTypeTagsAreStable) {
  // The on-the-wire tags are a protocol contract — pin EVERY value so a
  // refactor reordering the enum (a silent wire break between versions
  // of wrs-node) fails loudly here. The enum is append-only; these pins
  // mirror the static_asserts in net/wire_format.h.
  EXPECT_EQ(WireCodec::wire_type_of(ReadReq(1)), WireType::kReadReq);
  EXPECT_EQ(static_cast<int>(WireType::kReadReq), 1);
  EXPECT_EQ(static_cast<int>(WireType::kReadAck), 2);
  EXPECT_EQ(static_cast<int>(WireType::kWriteReq), 3);
  EXPECT_EQ(static_cast<int>(WireType::kWriteAck), 4);
  EXPECT_EQ(static_cast<int>(WireType::kKeysReq), 5);
  EXPECT_EQ(static_cast<int>(WireType::kKeysAck), 6);
  EXPECT_EQ(static_cast<int>(WireType::kBatchRequest), 7);
  EXPECT_EQ(static_cast<int>(WireType::kBatchReply), 8);
  EXPECT_EQ(static_cast<int>(WireType::kRcReq), 9);
  EXPECT_EQ(static_cast<int>(WireType::kRcAck), 10);
  EXPECT_EQ(static_cast<int>(WireType::kWcReq), 11);
  EXPECT_EQ(static_cast<int>(WireType::kWcAck), 12);
  EXPECT_EQ(static_cast<int>(WireType::kTransfer), 13);
  EXPECT_EQ(static_cast<int>(WireType::kTAck), 14);
  EXPECT_EQ(static_cast<int>(WireType::kSync), 15);
  EXPECT_EQ(static_cast<int>(WireType::kRb), 16);
  EXPECT_EQ(static_cast<int>(WireType::kPing), 17);
  EXPECT_EQ(static_cast<int>(WireType::kPong), 18);
  EXPECT_EQ(static_cast<int>(WireType::kRttReport), 19);
  EXPECT_EQ(static_cast<int>(WireType::kMigFreeze), 20);
  EXPECT_EQ(static_cast<int>(WireType::kMigCommit), 21);
  EXPECT_EQ(static_cast<int>(WireType::kWrongShard), 22);
  EXPECT_EQ(static_cast<int>(WireType::kSnapReq), 23);
  EXPECT_EQ(static_cast<int>(WireType::kSnapAck), 24);
  EXPECT_EQ(static_cast<int>(WireType::kSnapFreeze), 25);
  EXPECT_EQ(static_cast<int>(WireType::kSnapRelease), 26);
  EXPECT_TRUE(WireCodec::encodable(ReadReq(1)));
  EXPECT_EQ(WireCodec::wire_type_of(MigFreeze(1, "k", 1, 0)),
            WireType::kMigFreeze);
  EXPECT_EQ(WireCodec::wire_type_of(MigCommit(1, "k", 0, 1)),
            WireType::kMigCommit);
  EXPECT_EQ(WireCodec::wire_type_of(WrongShardAck(1, "k", 0, 1)),
            WireType::kWrongShard);
  EXPECT_EQ(WireCodec::wire_type_of(SnapReq(1, {"k"})), WireType::kSnapReq);
  EXPECT_EQ(WireCodec::wire_type_of(SnapAck(1, {}, nullptr)),
            WireType::kSnapAck);
  EXPECT_EQ(WireCodec::wire_type_of(SnapFreeze(1, 2, {"k"})),
            WireType::kSnapFreeze);
  EXPECT_EQ(WireCodec::wire_type_of(SnapRelease(1, 2, {})),
            WireType::kSnapRelease);
}

// --- malformed input --------------------------------------------------------

TEST(CodecFuzz, EveryStrictPrefixRejected) {
  Rng gen(0x7121);
  for (const auto& [name, make] : all_makers()) {
    for (int i = 0; i < 10; ++i) {
      MsgPtr msg = make(gen);
      std::vector<std::uint8_t> bytes =
          WireCodec::encode_frame(3, client_id(1), *msg);
      const std::uint8_t* body = bytes.data() + 4;
      std::size_t body_len = bytes.size() - 4;
      for (std::size_t cut = 0; cut < body_len; ++cut) {
        auto decoded = WireCodec::decode_frame(body, cut);
        EXPECT_FALSE(decoded.has_value())
            << name << ": prefix of " << cut << "/" << body_len
            << " bytes decoded";
      }
    }
  }
}

TEST(CodecFuzz, SeededByteFlipsNeverCrash) {
  Rng rng(0xF1195);
  std::size_t malformed = 0;
  std::size_t survived = 0;
  for (const auto& [name, make] : all_makers()) {
    for (int i = 0; i < 100; ++i) {
      MsgPtr msg = make(rng);
      std::vector<std::uint8_t> bytes =
          WireCodec::encode_frame(1, client_id(0), *msg);
      std::size_t flips = 1 + rng.below(3);
      for (std::size_t k = 0; k < flips; ++k) {
        std::size_t at = 4 + rng.below(bytes.size() - 4);
        bytes[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      }
      auto decoded = WireCodec::decode_frame(bytes.data() + 4, bytes.size() - 4);
      if (!decoded) {
        ++malformed;  // rejected, counted — the required behavior
      } else {
        ++survived;  // flip hit a don't-care bit or produced another
                     // valid message; it must still be re-encodable
        EXPECT_NO_THROW({
          auto again = WireCodec::encode_frame(decoded->from, decoded->to,
                                               *decoded->msg);
          EXPECT_FALSE(again.empty());
        }) << name;
      }
    }
  }
  // Sanity: the corpus actually exercised the rejection path.
  EXPECT_GT(malformed, 0u);
  EXPECT_GT(malformed + survived, 0u);
}

TEST(CodecFuzz, VersionAndTagRejection) {
  std::vector<std::uint8_t> bytes =
      WireCodec::encode_frame(0, client_id(0), ReadReq(7, "k", 1, 0));
  // Wrong version byte: a newer one, and the previous one (whose R/W/KEYS
  // frames carried no known versions and whose acks no set version).
  auto bad_version = bytes;
  bad_version[4] = kWireVersion + 1;
  EXPECT_FALSE(
      WireCodec::decode_frame(bad_version.data() + 4, bad_version.size() - 4));
  auto old_version = bytes;
  old_version[4] = kWireVersion - 1;
  EXPECT_FALSE(
      WireCodec::decode_frame(old_version.data() + 4, old_version.size() - 4));
  // Unknown type tag.
  auto bad_tag = bytes;
  bad_tag[5] = 0xEE;
  EXPECT_FALSE(WireCodec::decode_frame(bad_tag.data() + 4, bad_tag.size() - 4));
  // Trailing garbage after a complete payload.
  auto trailing = bytes;
  trailing.push_back(0x00);
  EXPECT_FALSE(
      WireCodec::decode_frame(trailing.data() + 4, trailing.size() - 4));
  // Empty body.
  EXPECT_FALSE(WireCodec::decode_frame(bytes.data() + 4, 0));
}

TEST(CodecFuzz, AbdMessagesSizedExactlyAsEncoded) {
  // wire_size() (the simulator's byte count) of the ABD messages and of
  // the change-set messages is the encoded body plus the modeled header
  // (Message::kHeaderBytes, 16): only the header differs between
  // simulated and socket bytes.
  const std::set<std::string> exact = {
      "ReadReq", "ReadAck",      "WriteReq",   "WriteAck", "KeysReq",
      "KeysAck", "BatchRequest", "BatchReply", "RcAck",    "WcReq"};
  Rng rng(0x517E);
  std::size_t checked = 0;
  for (const auto& [name, make] : all_makers()) {
    if (!exact.count(name)) continue;
    for (int i = 0; i < 200; ++i) {
      MsgPtr msg = make(rng);
      std::size_t body =
          WireCodec::encode_frame(0, client_id(0), *msg).size() -
          kFramePreludeBytes;
      EXPECT_EQ(msg->wire_size(), body + 16) << name << " iteration " << i;
    }
    ++checked;
  }
  EXPECT_EQ(checked, exact.size());
}

TEST(CodecFuzz, VersionsTravelOnlyWhereTheyCanMatter) {
  auto encoded = [](const Message& m) {
    return WireCodec::encode_frame(0, client_id(0), m).size();
  };
  // A group past the inline capacity carries no versions at all.
  EXPECT_EQ(KnownVersions::for_group(KnownVersions::kCapacity + 1).size(), 0u);
  // A reply without a set carries no version either.
  EXPECT_EQ(encoded(WriteAck(7, nullptr, 1, /*version=*/0)),
            encoded(WriteAck(7, nullptr, 1, /*version=*/42)));
}

TEST(CodecFuzz, KnownVersionCountAboveCapacityRejected) {
  std::vector<std::uint8_t> body;
  auto le32 = [&body](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) body.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  body.push_back(kWireVersion);
  body.push_back(static_cast<std::uint8_t>(WireType::kKeysReq));
  le32(0);                     // from
  le32(client_id(0));          // to
  for (int i = 0; i < 8; ++i) body.push_back(0);  // op_id
  le32(1);                     // seq
  le32(0);                     // shard
  const std::size_t n = KnownVersions::kCapacity + 1;
  body.push_back(static_cast<std::uint8_t>(n));
  body.insert(body.end(), 8 * n, 0x01);
  EXPECT_FALSE(WireCodec::decode_frame(body.data(), body.size()));
  // The same frame at capacity decodes.
  body[body.size() - 8 * n - 1] = static_cast<std::uint8_t>(n - 1);
  body.erase(body.end() - 8, body.end());
  EXPECT_TRUE(WireCodec::decode_frame(body.data(), body.size()));
}

TEST(CodecFuzz, AbsurdContainerCountRejectedWithoutAllocating) {
  // Hand-craft a KeysAck whose key count claims 2^32-1 entries in a
  // 30-byte frame: the decoder must reject it before reserving anything.
  std::vector<std::uint8_t> body;
  auto le32 = [&body](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) body.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  body.push_back(kWireVersion);
  body.push_back(static_cast<std::uint8_t>(WireType::kKeysAck));
  le32(0);                     // from
  le32(client_id(0));          // to
  for (int i = 0; i < 8; ++i) body.push_back(0);  // op_id
  le32(1);                     // seq
  le32(0xFFFFFFFFu);           // key count — absurd
  EXPECT_FALSE(WireCodec::decode_frame(body.data(), body.size()));
}

TEST(CodecFuzz, OverDeepNestingRejectedBothDirections) {
  // Encoding: an RbMsg chain deeper than kMaxNestingDepth throws.
  MsgPtr msg = std::make_shared<PingMsg>(1);
  for (int i = 0; i < kMaxNestingDepth + 1; ++i) {
    msg = std::make_shared<RbMsg>(0, i, msg);
  }
  EXPECT_THROW(WireCodec::encode_frame(0, 1, *msg), std::invalid_argument);

  // Decoding: hand-crafted bytes nesting RbMsg past the cap are
  // malformed, not a stack overflow.
  std::vector<std::uint8_t> inner;  // PingMsg body
  for (int i = 0; i < 8; ++i) inner.push_back(0);
  std::uint8_t inner_tag = static_cast<std::uint8_t>(WireType::kPing);
  for (int level = 0; level < kMaxNestingDepth + 1; ++level) {
    std::vector<std::uint8_t> rb;  // RbMsg body: origin, seq, nested msg
    auto le32 = [&rb](std::uint32_t v) {
      for (int i = 0; i < 4; ++i) rb.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    le32(0);                                  // origin
    for (int i = 0; i < 8; ++i) rb.push_back(0);  // seq
    rb.push_back(inner_tag);                  // nested tag
    le32(static_cast<std::uint32_t>(inner.size()));
    rb.insert(rb.end(), inner.begin(), inner.end());
    inner = std::move(rb);
    inner_tag = static_cast<std::uint8_t>(WireType::kRb);
  }
  std::vector<std::uint8_t> body;
  auto le32 = [&body](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) body.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  body.push_back(kWireVersion);
  body.push_back(inner_tag);
  le32(0);  // from
  le32(1);  // to
  body.insert(body.end(), inner.begin(), inner.end());
  EXPECT_FALSE(WireCodec::decode_frame(body.data(), body.size()));
}

// --- lifetime: copy, never alias -------------------------------------------

TEST(CodecFuzz, EncodedFrameOutlivesSenderOwnedMessage) {
  // The in-process runtimes share messages as MsgPtr; on the wire the
  // frame must be self-contained. Encode, destroy the message (and the
  // shared change set it referenced), then decode from the frame alone.
  std::vector<std::uint8_t> bytes;
  {
    auto changes = std::make_shared<const ChangeSet>([] {
      ChangeSet cs;
      cs.add(Change(0, kFirstCounter, 1, Weight(1, 3)));
      cs.add(Change(2, kFirstCounter, 0, Weight(-1, 3)));
      return cs;
    }());
    auto ack = std::make_shared<ReadAck>(
        42, TaggedValue{Tag{7, client_id(1)}, "sender-owned-value"}, changes, 3);
    std::vector<MsgPtr> frames{ack, std::make_shared<WriteAck>(43, changes, 4)};
    BatchReply reply(std::move(frames));
    bytes = WireCodec::encode_frame(2, client_id(1), reply);
  }  // message, frames, and the shared ChangeSet are gone
  auto decoded = WireCodec::decode_frame(bytes.data() + 4, bytes.size() - 4);
  ASSERT_TRUE(decoded.has_value());
  const auto* reply = msg_cast<BatchReply>(*decoded->msg);
  ASSERT_NE(reply, nullptr);
  ASSERT_EQ(reply->frames().size(), 2u);
  const auto* ack = msg_cast<ReadAck>(*reply->frames()[0]);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->reg().value, "sender-owned-value");
  ASSERT_NE(ack->changes(), nullptr);
  EXPECT_EQ(ack->changes()->size(), 2u);
}

TEST(CodecFuzz, DecodedMessageNeverAliasesReceiveBuffer) {
  Rng rng(0xA11A5);
  for (const auto& [name, make] : all_makers()) {
    MsgPtr msg = make(rng);
    std::vector<std::uint8_t> bytes =
        WireCodec::encode_frame(1, client_id(2), *msg);
    const std::vector<std::uint8_t> pristine = bytes;

    auto decoded = WireCodec::decode_frame(bytes.data() + 4, bytes.size() - 4);
    ASSERT_TRUE(decoded.has_value()) << name;

    // Scribble over the receive buffer, then FREE it. Any decoded field
    // aliasing it now reads 0xAA garbage (byte mismatch below) or freed
    // memory (ASan report — this test runs in the asan-ubsan CI job).
    std::fill(bytes.begin(), bytes.end(), 0xAA);
    std::vector<std::uint8_t>().swap(bytes);

    std::vector<std::uint8_t> again =
        WireCodec::encode_frame(decoded->from, decoded->to, *decoded->msg);
    EXPECT_EQ(again, pristine) << name << ": decoded message aliased buffer";
  }
}

}  // namespace
}  // namespace wrs::net
