#include "redo/log_merger.h"

#include <thread>

#include <gtest/gtest.h>

#include "common/clock.h"

namespace stratus {
namespace {

RedoRecord Rec(Scn scn) {
  RedoRecord r;
  r.scn = scn;
  return r;
}

TEST(LogMergerTest, MergesTwoStreamsInScnOrder) {
  ReceivedLog a, b;
  a.Deliver({Rec(1), Rec(4), Rec(5)});
  b.Deliver({Rec(2), Rec(3), Rec(6)});
  a.Close();
  b.Close();
  LogMerger merger({&a, &b});
  Scn last = 0;
  RedoRecord out;
  int n = 0;
  while (!merger.Finished()) {
    if (!merger.TryNext(&out)) {
      merger.WaitForProgress(1000);
      continue;
    }
    EXPECT_GT(out.scn, last);
    last = out.scn;
    ++n;
  }
  EXPECT_EQ(n, 6);
  EXPECT_EQ(last, 6u);
}

TEST(LogMergerTest, StallsUntilLaggingStreamCatchesUp) {
  ReceivedLog a, b;
  a.Deliver({Rec(5)});
  LogMerger merger({&a, &b});
  RedoRecord out;
  // b has delivered nothing: a's record at SCN 5 cannot be emitted yet
  // because b might still produce SCN < 5.
  EXPECT_FALSE(merger.TryNext(&out));
  // A heartbeat on b (watermark 10 > 5) releases it.
  b.Deliver({Rec(10)});
  // Now 5 is safe (b's head is 10).
  ASSERT_TRUE(merger.TryNext(&out));
  EXPECT_EQ(out.scn, 5u);
}

TEST(LogMergerTest, ClosedEmptyStreamDoesNotBlock) {
  ReceivedLog a, b;
  a.Deliver({Rec(5)});
  b.Close();
  LogMerger merger({&a, &b});
  RedoRecord out;
  ASSERT_TRUE(merger.TryNext(&out));
  EXPECT_EQ(out.scn, 5u);
}

TEST(LogMergerTest, WatermarkReleasesWithoutRecords) {
  ReceivedLog a, b;
  a.Deliver({Rec(7)});
  b.Deliver({Rec(3)});  // b's head is 3 → emit 3 first.
  LogMerger merger({&a, &b});
  RedoRecord out;
  ASSERT_TRUE(merger.TryNext(&out));
  EXPECT_EQ(out.scn, 3u);
  // b drained but watermark=3 < 7: cannot emit 7 yet.
  EXPECT_FALSE(merger.TryNext(&out));
  b.Deliver({Rec(9)});
  ASSERT_TRUE(merger.TryNext(&out));
  EXPECT_EQ(out.scn, 7u);
}

TEST(LogMergerTest, FinishedOnlyWhenAllClosedAndDrained) {
  ReceivedLog a;
  a.Deliver({Rec(1)});
  LogMerger merger({&a});
  EXPECT_FALSE(merger.Finished());
  a.Close();
  EXPECT_FALSE(merger.Finished());
  RedoRecord out;
  ASSERT_TRUE(merger.TryNext(&out));
  EXPECT_TRUE(merger.Finished());
}

TEST(LogMergerTest, SingleStreamPassesThrough) {
  ReceivedLog a;
  for (Scn s = 1; s <= 50; ++s) a.Deliver({Rec(s)});
  a.Close();
  LogMerger merger({&a});
  RedoRecord out;
  for (Scn s = 1; s <= 50; ++s) {
    ASSERT_TRUE(merger.TryNext(&out));
    EXPECT_EQ(out.scn, s);
  }
  EXPECT_TRUE(merger.Finished());
  EXPECT_EQ(merger.emitted_records(), 50u);
}

TEST(LogMergerTest, WaitBlocksOnLaggingStreamUntilItDelivers) {
  // Stream 0 holds the head (SCN 5) but stream 1 lags behind it, so nothing
  // is emittable. The wait must park on stream 1, the stream that gates
  // emission; parking on stream 0 would return at once because its queue is
  // non-empty, and the caller would spin.
  ReceivedLog a, b;
  a.Deliver({Rec(5)});
  b.Deliver({Rec(2)});
  LogMerger merger({&a, &b});
  RedoRecord out;
  ASSERT_TRUE(merger.TryNext(&out));
  EXPECT_EQ(out.scn, 2u);
  EXPECT_FALSE(merger.TryNext(&out));

  const uint64_t t0 = NowMicros();
  merger.WaitForProgress(20'000);
  EXPECT_GE(NowMicros() - t0, 15'000u) << "wait returned without progress";

  std::thread deliver([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    b.Deliver({Rec(9)});
  });
  const uint64_t t1 = NowMicros();
  merger.WaitForProgress(2'000'000);
  const uint64_t waited = NowMicros() - t1;
  deliver.join();
  EXPECT_LT(waited, 1'000'000u) << "Deliver on the lagging stream did not wake the wait";
  ASSERT_TRUE(merger.TryNext(&out));
  EXPECT_EQ(out.scn, 5u);
}

TEST(LogMergerTest, WaitReturnsAtOnceWhenEmittableOrFinished) {
  ReceivedLog a;
  a.Deliver({Rec(3)});
  LogMerger merger({&a});
  const uint64_t t0 = NowMicros();
  merger.WaitForProgress(2'000'000);  // Head is emittable: no wait.
  RedoRecord out;
  ASSERT_TRUE(merger.TryNext(&out));
  a.Close();
  merger.WaitForProgress(2'000'000);  // Closed and drained: no wait.
  EXPECT_LT(NowMicros() - t0, 1'000'000u);
  EXPECT_TRUE(merger.Finished());
}

}  // namespace
}  // namespace stratus
