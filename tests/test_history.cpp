// Tests for the atomicity checker itself: it must accept legal histories
// and reject each class of violation.
#include "storage/history.h"

#include <gtest/gtest.h>

namespace wrs {
namespace {

OpRecord read_op(ProcessId p, TimeNs s, TimeNs e, Tag tag, Value v) {
  OpRecord r;
  r.kind = OpRecord::Kind::kRead;
  r.process = p;
  r.start = s;
  r.end = e;
  r.tag = tag;
  r.value = std::move(v);
  return r;
}

OpRecord write_op(ProcessId p, TimeNs s, TimeNs e, Tag tag, Value v) {
  OpRecord r;
  r.kind = OpRecord::Kind::kWrite;
  r.process = p;
  r.start = s;
  r.end = e;
  r.tag = tag;
  r.value = std::move(v);
  return r;
}

TEST(HistoryChecker, EmptyHistoryIsAtomic) {
  EXPECT_FALSE(check_atomicity({}).has_value());
}

TEST(HistoryChecker, SimpleWriteThenRead) {
  std::vector<OpRecord> h = {
      write_op(1, 0, 10, Tag{1, 1}, "a"),
      read_op(2, 20, 30, Tag{1, 1}, "a"),
  };
  EXPECT_FALSE(check_atomicity(h).has_value());
}

TEST(HistoryChecker, ReadOfInitialValueBeforeAnyWrite) {
  std::vector<OpRecord> h = {
      read_op(2, 0, 5, kInitialTag, ""),
      write_op(1, 10, 20, Tag{1, 1}, "a"),
  };
  EXPECT_FALSE(check_atomicity(h).has_value());
}

TEST(HistoryChecker, ConcurrentReadMayReturnEitherValue) {
  // A read overlapping a write may return old or new.
  std::vector<OpRecord> old_read = {
      write_op(1, 10, 30, Tag{1, 1}, "a"),
      read_op(2, 15, 25, kInitialTag, ""),
  };
  EXPECT_FALSE(check_atomicity(old_read).has_value());
  std::vector<OpRecord> new_read = {
      write_op(1, 10, 30, Tag{1, 1}, "a"),
      read_op(2, 15, 25, Tag{1, 1}, "a"),
  };
  EXPECT_FALSE(check_atomicity(new_read).has_value());
}

TEST(HistoryChecker, RejectsStaleRead) {
  // Write completed before the read started; read missed it.
  std::vector<OpRecord> h = {
      write_op(1, 0, 10, Tag{1, 1}, "a"),
      read_op(2, 20, 30, kInitialTag, ""),
  };
  auto err = check_atomicity(h);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("stale read"), std::string::npos);
}

TEST(HistoryChecker, RejectsReadFromTheFuture) {
  std::vector<OpRecord> h = {
      read_op(2, 0, 10, Tag{1, 1}, "a"),
      write_op(1, 20, 30, Tag{1, 1}, "a"),
  };
  auto err = check_atomicity(h);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("future"), std::string::npos);
}

TEST(HistoryChecker, RejectsPhantomTag) {
  std::vector<OpRecord> h = {
      read_op(2, 0, 10, Tag{7, 3}, "ghost"),
  };
  auto err = check_atomicity(h);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("never written"), std::string::npos);
}

TEST(HistoryChecker, RejectsValueMismatch) {
  std::vector<OpRecord> h = {
      write_op(1, 0, 10, Tag{1, 1}, "a"),
      read_op(2, 5, 15, Tag{1, 1}, "b"),
  };
  auto err = check_atomicity(h);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("does not match"), std::string::npos);
}

TEST(HistoryChecker, RejectsNewOldInversion) {
  // Definition 6 violation: r1 (newer) completes before r2 (older)
  // starts. The second write stays in flight so the stale-read rule (A2)
  // does not trigger first — the inversion rule must catch it.
  std::vector<OpRecord> h = {
      write_op(1, 0, 10, Tag{1, 1}, "a"),
      write_op(1, 12, 100, Tag{2, 1}, "b"),  // still in flight
      read_op(2, 25, 30, Tag{2, 1}, "b"),
      read_op(3, 35, 40, Tag{1, 1}, "a"),
  };
  auto err = check_atomicity(h);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("inversion"), std::string::npos);
}

TEST(HistoryChecker, AcceptsOverlappingReadsInEitherOrder) {
  std::vector<OpRecord> h = {
      write_op(1, 0, 10, Tag{1, 1}, "a"),
      write_op(1, 12, 22, Tag{2, 1}, "b"),
      read_op(2, 20, 40, Tag{2, 1}, "b"),  // overlaps the next read
      read_op(3, 25, 45, Tag{1, 1}, "a"),  // overlapping: old value OK
  };
  // Hmm: read by 3 starts at 25, after write of b completed (22) —
  // that's a stale read, actually illegal. Use truly overlapping writes.
  std::vector<OpRecord> legal = {
      write_op(1, 0, 30, Tag{1, 1}, "a"),   // write still in flight
      read_op(2, 5, 12, kInitialTag, ""),   // old
      read_op(3, 14, 20, Tag{1, 1}, "a"),   // new (overlap allows both... )
  };
  // ...but Definition 6 forbids old AFTER new; here old precedes new: OK.
  EXPECT_FALSE(check_atomicity(legal).has_value());
  (void)h;
}

TEST(HistoryChecker, RejectsDuplicateWriteTags) {
  std::vector<OpRecord> h = {
      write_op(1, 0, 10, Tag{1, 1}, "a"),
      write_op(1, 20, 30, Tag{1, 1}, "b"),
  };
  auto err = check_atomicity(h);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("duplicate write tag"), std::string::npos);
}

TEST(HistoryChecker, RejectsNonMonotoneWriterTags) {
  std::vector<OpRecord> h = {
      write_op(1, 0, 10, Tag{5, 1}, "a"),
      write_op(1, 20, 30, Tag{3, 1}, "b"),
  };
  auto err = check_atomicity(h);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("non-monotone"), std::string::npos);
}

TEST(HistoryChecker, ViolationNamesBothOpsWithProcessKeyTagAndTimes) {
  OpRecord w = write_op(1, 0, 10, Tag{1, 1}, "a");
  OpRecord r = read_op(2, 20, 30, kInitialTag, "");
  w.key = "hot";
  r.key = "hot";
  auto err = check_atomicity({w, r});
  ASSERT_TRUE(err.has_value());
  // Both operations appear, each with process, key, interval, and tag —
  // enough to act on a chaos-fuzz failure without replaying it.
  EXPECT_NE(err->find(process_name(1)), std::string::npos);
  EXPECT_NE(err->find(process_name(2)), std::string::npos);
  EXPECT_NE(err->find("key \"hot\""), std::string::npos);
  EXPECT_NE(err->find("[20,30]"), std::string::npos);
  EXPECT_NE(err->find("[0,10]"), std::string::npos);
  EXPECT_NE(err->find(Tag{1, 1}.str()), std::string::npos);
  EXPECT_NE(err->find(kInitialTag.str()), std::string::npos);
}

TEST(HistoryChecker, SweepMatchesSemanticsOnInterleavedBatches) {
  // Mixed overlapping/non-overlapping batch exercising the sweep's
  // running-max bookkeeping: every read returns the newest completed
  // write at its start — atomic.
  std::vector<OpRecord> h;
  for (int i = 0; i < 50; ++i) {
    TimeNs base = i * 100;
    h.push_back(write_op(1, base, base + 40, Tag{i + 1, 1}, "v"));
    h.push_back(
        read_op(2, base + 50, base + 60, Tag{i + 1, 1}, "v"));
    // A long-running read from way back may surface anywhere overlapping.
    h.push_back(read_op(3, base + 10, base + 90, Tag{i + 1, 1}, "v"));
  }
  EXPECT_FALSE(check_atomicity(h).has_value());
}

TEST(HistoryChecker, ScalesToFuzzLengthHistories) {
  // 60k sequential ops: quadratic pairwise scans made this take minutes;
  // the sort + sweep finishes instantly. The test's 600s ctest timeout is
  // the regression tripwire.
  std::vector<OpRecord> h;
  h.reserve(60'000);
  for (int i = 0; i < 30'000; ++i) {
    TimeNs base = i * 10;
    h.push_back(write_op(1, base, base + 4, Tag{i + 1, 1}, "v"));
    h.push_back(read_op(2, base + 5, base + 9, Tag{i + 1, 1}, "v"));
  }
  EXPECT_FALSE(check_atomicity(h).has_value());
  // And it still catches a violation buried at the end.
  h.push_back(read_op(3, 400'000, 400'001, Tag{1, 1}, "v"));
  auto err = check_atomicity(h);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("stale read"), std::string::npos);
}

TEST(HistoryRecorder, TracksCompletionsOnly) {
  HistoryRecorder rec;
  auto t1 = rec.begin(OpRecord::Kind::kWrite, 1, 0);
  auto t2 = rec.begin(OpRecord::Kind::kRead, 2, 5);
  rec.end_write(t1, 10, Tag{1, 1}, "a");
  // t2 never completes (e.g. client crashed).
  auto completed = rec.completed();
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].kind, OpRecord::Kind::kWrite);
  EXPECT_EQ(completed[0].value, "a");
  // A closed token, or one never handed out, is a caller bug.
  EXPECT_THROW(rec.end_write(t1, 11, Tag{1, 1}, "a"), std::out_of_range);
  EXPECT_THROW(rec.end_read(t2 + 1, 12, TaggedValue{}), std::out_of_range);
  EXPECT_EQ(rec.completed_count(), 1u);
}

}  // namespace
}  // namespace wrs
