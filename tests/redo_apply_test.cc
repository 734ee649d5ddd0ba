#include "adg/redo_apply.h"

#include <map>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"

namespace stratus {
namespace {

/// Records every applied CV, per DBA, in application order.
class RecordingSink : public ApplySink {
 public:
  Status ApplyCv(const ChangeVector& cv) override {
    std::lock_guard<std::mutex> g(mu_);
    applied_[cv.dba].push_back(cv.scn);
    ++total_;
    return Status::OK();
  }

  std::map<Dba, std::vector<Scn>> Applied() {
    std::lock_guard<std::mutex> g(mu_);
    return applied_;
  }
  uint64_t total() {
    std::lock_guard<std::mutex> g(mu_);
    return total_;
  }

 private:
  std::mutex mu_;
  std::map<Dba, std::vector<Scn>> applied_;
  uint64_t total_ = 0;
};

class HookCounter : public ApplyHooks {
 public:
  void OnCvApplied(const ChangeVector& cv, WorkerId worker) override {
    count_.fetch_add(1);
    (void)cv;
    (void)worker;
  }
  uint64_t count() const { return count_.load(); }

 private:
  std::atomic<uint64_t> count_{0};
};

RedoRecord Rec(Scn scn, std::vector<Dba> dbas) {
  RedoRecord r;
  r.scn = scn;
  for (Dba dba : dbas) {
    ChangeVector cv;
    cv.kind = CvKind::kUpdate;
    cv.scn = scn;
    cv.dba = dba;
    r.cvs.push_back(cv);
  }
  return r;
}

RedoRecord Heartbeat(Scn scn) {
  RedoRecord r;
  r.scn = scn;
  ChangeVector cv;
  cv.kind = CvKind::kHeartbeat;
  cv.scn = scn;
  r.cvs.push_back(cv);
  return r;
}

TEST(RedoApplyTest, AppliesEverythingOnce) {
  ReceivedLog stream;
  RecordingSink sink;
  RedoApplyOptions options;
  options.num_workers = 4;
  options.barrier_interval = 8;
  RedoApplyEngine engine(std::make_unique<LogMerger>(std::vector<ReceivedLog*>{&stream}),
                         &sink, nullptr, nullptr, nullptr, options);
  engine.Start();
  Scn scn = 1;
  for (int i = 0; i < 200; ++i)
    stream.Deliver({Rec(scn++, {static_cast<Dba>(i % 13), static_cast<Dba>(100 + i % 7)})});
  stream.Deliver({Heartbeat(scn++)});
  stream.Close();

  const uint64_t deadline = NowMicros() + 5'000'000;
  while (sink.total() < 400 && NowMicros() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  engine.Stop();
  EXPECT_EQ(sink.total(), 400u);
}

TEST(RedoApplyTest, PerDbaScnOrderPreserved) {
  ReceivedLog stream;
  RecordingSink sink;
  RedoApplyOptions options;
  options.num_workers = 4;
  RedoApplyEngine engine(std::make_unique<LogMerger>(std::vector<ReceivedLog*>{&stream}),
                         &sink, nullptr, nullptr, nullptr, options);
  engine.Start();
  Scn scn = 1;
  for (int i = 0; i < 500; ++i) stream.Deliver({Rec(scn++, {static_cast<Dba>(i % 10)})});
  stream.Close();
  const uint64_t deadline = NowMicros() + 5'000'000;
  while (sink.total() < 500 && NowMicros() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  engine.Stop();
  for (const auto& [dba, scns] : sink.Applied()) {
    for (size_t i = 1; i < scns.size(); ++i)
      EXPECT_LT(scns[i - 1], scns[i]) << "dba " << dba;
  }
}

TEST(RedoApplyTest, QueryScnAdvancesToHeartbeat) {
  ReceivedLog stream;
  RecordingSink sink;
  RedoApplyOptions options;
  options.num_workers = 2;
  RedoApplyEngine engine(std::make_unique<LogMerger>(std::vector<ReceivedLog*>{&stream}),
                         &sink, nullptr, nullptr, nullptr, options);
  engine.Start();
  for (Scn s = 1; s <= 20; ++s) stream.Deliver({Rec(s, {s % 5})});
  stream.Deliver({Heartbeat(21)});

  const Scn reached = engine.coordinator()->WaitForQueryScn(21, 5'000'000);
  EXPECT_GE(reached, 21u);
  engine.Stop();
  stream.Close();
}

TEST(RedoApplyTest, MiningHookSeesEveryCv) {
  ReceivedLog stream;
  RecordingSink sink;
  HookCounter hooks;
  RedoApplyOptions options;
  options.num_workers = 3;
  RedoApplyEngine engine(std::make_unique<LogMerger>(std::vector<ReceivedLog*>{&stream}),
                         &sink, &hooks, nullptr, nullptr, options);
  engine.Start();
  Scn scn = 1;
  for (int i = 0; i < 100; ++i) stream.Deliver({Rec(scn++, {static_cast<Dba>(i)})});
  stream.Close();
  const uint64_t deadline = NowMicros() + 5'000'000;
  while (hooks.count() < 100 && NowMicros() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  engine.Stop();
  EXPECT_EQ(hooks.count(), 100u);
}

TEST(RedoApplyTest, TwoMergedStreams) {
  ReceivedLog s1, s2;
  RecordingSink sink;
  RedoApplyOptions options;
  options.num_workers = 2;
  RedoApplyEngine engine(
      std::make_unique<LogMerger>(std::vector<ReceivedLog*>{&s1, &s2}), &sink,
      nullptr, nullptr, nullptr, options);
  engine.Start();
  // Interleaved SCNs across two primary instances, same DBA: order matters.
  for (Scn s = 1; s <= 100; ++s) {
    if (s % 2 == 1) {
      s1.Deliver({Rec(s, {7})});
    } else {
      s2.Deliver({Rec(s, {7})});
    }
  }
  s1.Close();
  s2.Close();
  const uint64_t deadline = NowMicros() + 5'000'000;
  while (sink.total() < 100 && NowMicros() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  engine.Stop();
  const auto applied = sink.Applied();
  ASSERT_TRUE(applied.contains(7));
  const auto& scns = applied.at(7);
  ASSERT_EQ(scns.size(), 100u);
  for (size_t i = 0; i < scns.size(); ++i) EXPECT_EQ(scns[i], i + 1);
}

TEST(RedoApplyTest, QueryScnAdvancesWhenApplyDrains) {
  // No heartbeat and a barrier cap the stream never reaches: the record is
  // published only because the dispatcher barriers when the merged stream
  // drains, and the coordinator wakes on the watermark advance.
  ReceivedLog stream;
  RecordingSink sink;
  RedoApplyOptions options;
  options.num_workers = 2;
  options.barrier_interval = 1 << 20;
  RedoApplyEngine engine(std::make_unique<LogMerger>(std::vector<ReceivedLog*>{&stream}),
                         &sink, nullptr, nullptr, nullptr, options);
  engine.Start();
  stream.Deliver({Rec(7, {3})});

  const Scn reached = engine.coordinator()->WaitForQueryScn(7, 1'000'000);
  EXPECT_GE(reached, 7u);
  EXPECT_EQ(sink.total(), 1u);
  engine.Stop();
  stream.Close();
}

TEST(RedoApplyTest, IdleCoordinatorStopsPromptly) {
  // With no workers the coordinator never advances and parks at once. A
  // Stop() that lands between its stop check and its epoch read must still
  // wake it, or the join below hangs.
  RecoveryCoordinator coordinator({}, nullptr);
  for (int i = 0; i < 2000; ++i) {
    coordinator.Start();
    coordinator.Stop();
  }
  EXPECT_EQ(coordinator.query_scn(), kInvalidScn);
}

TEST(RedoApplyTest, BacklogBatchAppliesOnceInOrder) {
  // A whole backlog lands in one Deliver, so the dispatcher streams it
  // without draining: barriers come from the periodic cap until the end.
  constexpr int kRecords = 2000;
  ReceivedLog stream;
  RecordingSink sink;
  RedoApplyOptions options;
  options.num_workers = 4;
  RedoApplyEngine engine(std::make_unique<LogMerger>(std::vector<ReceivedLog*>{&stream}),
                         &sink, nullptr, nullptr, nullptr, options);
  std::vector<RedoRecord> batch;
  for (Scn s = 1; s <= kRecords; ++s) batch.push_back(Rec(s, {s % 11, 100 + s % 5}));
  stream.Deliver(std::move(batch));
  engine.Start();

  const Scn reached = engine.coordinator()->WaitForQueryScn(kRecords, 5'000'000);
  EXPECT_EQ(reached, static_cast<Scn>(kRecords));
  engine.Stop();
  stream.Close();
  EXPECT_EQ(sink.total(), 2u * kRecords);
  size_t seen = 0;
  for (const auto& [dba, scns] : sink.Applied()) {
    seen += scns.size();
    for (size_t i = 1; i < scns.size(); ++i)
      EXPECT_LT(scns[i - 1], scns[i]) << "dba " << dba;
  }
  EXPECT_EQ(seen, 2u * kRecords);
}

}  // namespace
}  // namespace stratus
