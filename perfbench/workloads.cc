#include "workloads.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "adapter.h"

namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

/// Transaction shapes. kChurn: one row, 90% update of an existing row and
/// 10% insert of a new one (the paper's Fig. 9/10 DML). kFig11: updates of
/// 1, 8 or 64 distinct rows with probability 60/30/10% (~9.3 rows a txn).
enum class TxnMix { kChurn, kFig11 };

struct WorkloadDef {
  const char* name;
  int redo_threads;
  size_t fact_rows;
  /// Open-loop write stream for the whole --seconds window; 0 = no stream.
  int stream_txn_per_s;
  TxnMix mix;
  /// Scans run beside the stream (scan_churn); otherwise a closed-loop scan
  /// probe of fixed size runs on the quiescent standby after the stream.
  bool scans_during_stream;
  /// Catch-up cycles: checkpoint, paused shipping, backlog, drain, restart.
  /// 0 = --seconds / 5.
  int cycles;
  size_t backlog_txns;
};

// Why these three: scan_churn puts the scan stack (imcs scan engine, SMU
// reconciliation, db operators) beside a light apply load, so a scan change
// moves scan_* and a scan change that steals apply CPU shows in
// commit_visible_*. commit_stream drives the write path (redo, net, merge,
// apply, mining/journal, commit table, flush, publish) below saturation with
// the scan stack idle, so a scan change must not move its commit metrics.
// standby_catchup runs the same write path in throughput mode plus the
// persist layer (archive, checkpoint, snapshot, recovery replay).
const WorkloadDef kWorkloads[] = {
    {"scan_churn", 1, 200'000, 2'000, TxnMix::kChurn, true, 2, 40'000},
    {"commit_stream", 2, 50'000, 2'000, TxnMix::kFig11, false, 2, 20'000},
    {"standby_catchup", 2, 50'000, 0, TxnMix::kFig11, false, 0, 30'000},
};

constexpr int64_t kValueDomain = 1'000;  // n1..n8 and string codes.
constexpr int64_t kJoinDomain = 100;     // n9, n10: dimension keys.
constexpr int64_t kDimRows = 100;
constexpr int64_t kRangeWidth = 50;      // Group/join n3 range: 5% of rows.
constexpr int kSetups = 3;               // setup_s is their median.
constexpr uint64_t kScanWarmupNs = 2'000'000'000;  // Unrecorded stream scans.
// Scan rotation: six filters, one group, one join per round.
constexpr QueryClass kRotation[] = {
    QueryClass::kFilter, QueryClass::kFilter, QueryClass::kFilter,
    QueryClass::kGroup,  QueryClass::kFilter, QueryClass::kFilter,
    QueryClass::kFilter, QueryClass::kJoin};
constexpr size_t kProbeFilters = 1'200, kProbeGroups = 200, kProbeJoins = 200;
constexpr int64_t kVisibleTimeoutUs = 10'000'000;
constexpr double kMaxLateMs = 500;  // A run later than this is invalid.
constexpr size_t kSpansWritten = 200'000;  // The self-time table uses all.

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

uint64_t SplitMix(uint64_t* s) {
  uint64_t z = (*s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() { return SplitMix(&s_); }
  int64_t Below(int64_t n) { return static_cast<int64_t>(Next() % static_cast<uint64_t>(n)); }

 private:
  uint64_t s_;
};

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t s = seed * 0x100000001B3ull + stream;
  return SplitMix(&s);
}

/// Running digest of every generated input, printed so two runs can be shown
/// to have fed identical work.
struct InputDigest {
  uint64_t h = 0xcbf29ce484222325ull;
  void Add(uint64_t x) {
    uint64_t s = h ^ x;
    h = SplitMix(&s);
  }
  void Add(const FactRow& r) {
    Add(static_cast<uint64_t>(r.id));
    for (int64_t v : r.n) Add(static_cast<uint64_t>(v));
    for (uint32_t c : r.c) Add(c);
  }
};

FactRow MakeFact(int64_t id, Rng* rng) {
  FactRow r;
  r.id = id;
  for (int k = 0; k < kFactInts; ++k)
    r.n[k] = rng->Below(k >= kFactInts - 2 ? kJoinDomain : kValueDomain);
  for (int k = 0; k < kFactStrings; ++k)
    r.c[k] = static_cast<uint32_t>(rng->Below(kValueDomain));
  return r;
}

struct TxnOp {
  bool insert = false;
  std::vector<FactRow> rows;
};

/// Deterministic transaction stream: depends only on its seed, the mix and
/// the table size it starts from.
class OpStream {
 public:
  OpStream(uint64_t seed, TxnMix mix, int64_t rows, InputDigest* digest)
      : rng_(seed), mix_(mix), next_id_(rows), digest_(digest) {}

  void Next(TxnOp* op) {
    op->rows.clear();
    size_t n = 1;
    op->insert = false;
    if (mix_ == TxnMix::kChurn) {
      op->insert = rng_.Below(10) == 0;
    } else {
      const int64_t d = rng_.Below(10);
      n = d < 6 ? 1 : d < 9 ? 8 : 64;
    }
    while (op->rows.size() < n) {
      const int64_t id = op->insert ? next_id_++ : rng_.Below(next_id_);
      bool dup = false;
      for (const FactRow& r : op->rows) dup |= r.id == id;
      if (dup) continue;
      op->rows.push_back(MakeFact(id, &rng_));
    }
    digest_->Add(op->insert ? 1 : 0);
    for (const FactRow& r : op->rows) digest_->Add(r);
  }

 private:
  Rng rng_;
  TxnMix mix_;
  int64_t next_id_;
  InputDigest* digest_;
};

/// Deterministic query parameters for the scan client.
class QueryStream {
 public:
  explicit QueryStream(uint64_t seed) : rng_(seed) {}
  QuerySpec Next() {
    QuerySpec q;
    q.cls = kRotation[pos_++ % std::size(kRotation)];
    switch (q.cls) {
      case QueryClass::kFilter:
        q.variant = static_cast<uint8_t>(filters_++ % 2);
        q.value = rng_.Below(kValueDomain);
        break;
      // A fixed-width n3 range keeps every group and join at ~5% of the
      // fact rows, so the latency spread reflects the system, not the draw.
      case QueryClass::kGroup:
        q.value = rng_.Below(kValueDomain - kRangeWidth);
        q.hi = q.value + kRangeWidth;
        break;
      case QueryClass::kJoin:
        q.value = rng_.Below(kValueDomain - kRangeWidth);
        q.hi = q.value + kRangeWidth;
        q.variant = static_cast<uint8_t>(rng_.Below(10));  // dim2.filter
        break;
    }
    return q;
  }

 private:
  Rng rng_;
  size_t pos_ = 0;
  uint64_t filters_ = 0;
};

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double Pct(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v->size())));
  rank = std::clamp<size_t>(rank, 1, v->size());
  return (*v)[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Median over windows of each window's percentile `p`.
double WindowedPct(std::vector<std::vector<double>>* windows, double p) {
  std::vector<double> per;
  for (auto& w : *windows)
    if (!w.empty()) per.push_back(Pct(&w, p));
  return Median(per);
}

size_t Samples(const std::vector<std::vector<double>>& windows) {
  size_t n = 0;
  for (const auto& w : windows) n += w.size();
  return n;
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }
double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Sec(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Sleeps until shortly before `t_ns`, then spins: a guest's timer wake-up
/// jitter (tens of microseconds) would otherwise dominate a ~10 us commit.
void SleepUntil(uint64_t t_ns) {
  constexpr uint64_t kSpinNs = 60'000;
  const uint64_t now = NowNs();
  if (now + kSpinNs < t_ns)
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - kSpinNs - now));
  while (NowNs() < t_ns) {
  }
}

struct Tally;
void NoteUnboosted(Tally* t);

/// Prepares a generator or watcher thread to run on schedule: nanosecond
/// timer slack (sleeps otherwise wake up to 50 us late) and nice -10, so the
/// library's own threads, which saturate the cores, do not delay the load or
/// its timestamps. Where raising priority is not permitted the run proceeds
/// and reports that it did.
void PaceThread(Tally* t) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  if (setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), -10) != 0)
    NoteUnboosted(t);
}

// Every counter except im_used_bytes, which is a level, not a count.
constexpr uint64_t Counters::*kCounts[] = {
    &Counters::shipped_bytes,           &Counters::dispatched_records,
    &Counters::advancements,            &Counters::quiesce_ns,
    &Counters::mined_records,           &Counters::journal_bucket_contention,
    &Counters::commit_table_inserts,    &Counters::commit_table_walk_steps,
    &Counters::commit_table_contention, &Counters::flushed_records,
    &Counters::flush_cooperative_steps, &Counters::flush_coordinator_steps,
    &Counters::repopulations,           &Counters::rows_populated,
    &Counters::archived_bytes};

/// Counts accrued from `a` to `b`; the level is `b`'s.
Counters Delta(const Counters& a, const Counters& b) {
  Counters d = b;
  for (auto f : kCounts) d.*f = b.*f - a.*f;
  return d;
}

void Accumulate(Counters* sum, const Counters& d) {
  for (auto f : kCounts) sum->*f += d.*f;
  sum->im_used_bytes = std::max(sum->im_used_bytes, d.im_used_bytes);
}

/// One committed transaction, as the visibility and stage math needs it.
struct Commit {
  Scn scn = 0;
  uint64_t committed_ns = 0;  ///< When Commit returned.
  uint64_t floor_ns = 0;      ///< Visibility clock start (resume for backlogs).
  int thread = 0;
  size_t window = 0;          ///< Tally window the latencies fall in.
  uint64_t visible_ns = 0;    ///< When the watcher saw QuerySCN >= scn.
};

/// Everything a run measures, filled by the phases below.
struct Tally {
  RunResult* result = nullptr;
  // Commit and visibility latencies per window: one window per second of the
  // stream, or one per catch-up drain. Their percentiles are reported as the
  // median over windows, so one bad second on a shared host moves no metric.
  std::vector<std::vector<double>> commit_us, visible_us;
  std::vector<double> update_call_us, commit_call_us;
  // Scan latencies, flat and per second of scanning (counted from the first
  // scan); the p95s are reported as the median over those seconds.
  std::vector<double> scan_us[kQueryClasses];
  std::vector<std::vector<double>> scan_windows[kQueryClasses];
  uint64_t scan_origin_ns = 0;
  // Scans that end before this are run and checked but not recorded.
  uint64_t scan_warm_ns = 0;
  std::vector<double> group_scan_op_us, hash_agg_us, hash_join_us;
  std::vector<double> catchup_rows_per_s, primary_rows_per_s, restart_ready_ms;
  std::vector<double> restart_call_ms, replayed_per_s, restored_smus, post_restart_query_ms;
  std::vector<double> checkpoint_ms;
  std::vector<double> stage_us[5];  // ship, deliver, merge_wait, apply, publish
  // Filter-scan engine accounting (imcs.* per-layer metrics).
  uint64_t filter_scans = 0, filter_invalid_rowpath = 0, filter_rows_from_imcs = 0,
           filter_blocks_rowpath = 0, filter_imcus_pruned = 0, filter_imcus_scanned = 0,
           filter_kernel_words = 0;
  uint64_t scans = 0, scan_leaves = 0, rowpath_leaves = 0, commit_lookups = 0;
  // The window the write-path counters cover: the stream, or the drains.
  Counters window;
  uint64_t window_ns = 0, window_rows = 0;
  // Drains only (adg.drain_records_per_s, persist.archive_bytes_per_row).
  Counters drains;
  uint64_t drain_ns = 0, drain_rows = 0;
  double late_ms_max = 0;
  uint64_t ops_attempted = 0;
  double encode_us_p50 = 0, decode_us_p50 = 0, codec_busy_ms = 0;
  uint64_t measured_ns = 0;
  std::atomic<bool> unboosted{false};

  // attempted/failed/errors are bumped from several threads.
  std::mutex mu;
  void Attempt() {
    std::lock_guard<std::mutex> g(mu);
    ++result->attempted;
  }
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> g(mu);
    ++result->failed;
    result->correct = false;
    if (result->errors.size() < 8) result->errors.push_back(what);
  }
};

/// The wire codec's own histograms (cumulative over the process).
void ReadCodec(System* sys, Tally* t) {
  double enc_sum = 0, dec_sum = 0;
  sys->NetHistogram("encode", &t->encode_us_p50, &enc_sum);
  sys->NetHistogram("decode", &t->decode_us_p50, &dec_sum);
  t->codec_busy_ms = (enc_sum + dec_sum) / 1e3;
}

void NoteUnboosted(Tally* t) { t->unboosted.store(true); }

void RecordQuery(Tally* t, const QuerySpec& q, const QueryOutcome& o) {
  t->Attempt();
  if (!o.ok) {
    t->Fail("query: " + o.error);
    return;
  }
  const int cls = static_cast<int>(q.cls);
  const uint64_t now = NowNs();
  if (now < t->scan_warm_ns) return;
  if (t->scan_origin_ns == 0) t->scan_origin_ns = now;
  const size_t window = static_cast<size_t>((now - t->scan_origin_ns) / 1'000'000'000ull);
  if (t->scan_windows[cls].size() <= window) t->scan_windows[cls].resize(window + 1);
  t->scan_windows[cls][window].push_back(Us(o.wall_ns));
  t->scan_us[cls].push_back(Us(o.wall_ns));
  ++t->scans;
  t->scan_leaves += o.scan_leaves;
  t->rowpath_leaves += o.rowpath_leaves;
  t->commit_lookups += o.commit_lookups;
  switch (q.cls) {
    case QueryClass::kFilter:
      ++t->filter_scans;
      t->filter_invalid_rowpath += o.invalid_rowpath;
      t->filter_rows_from_imcs += o.rows_from_imcs;
      t->filter_blocks_rowpath += o.blocks_rowpath;
      t->filter_imcus_pruned += o.imcus_pruned;
      t->filter_imcus_scanned += o.imcus_scanned;
      t->filter_kernel_words += o.kernel_words;
      break;
    case QueryClass::kGroup:
      t->group_scan_op_us.push_back(static_cast<double>(o.scan_op_us));
      t->hash_agg_us.push_back(static_cast<double>(o.hash_agg_us));
      break;
    case QueryClass::kJoin:
      t->hash_join_us.push_back(static_cast<double>(o.hash_join_us));
      break;
  }
}

/// Runs one generated transaction; returns the commit SCN or 0 on failure.
Scn ExecuteTxn(System* sys, const TxnOp& op, int thread, Tally* t) {
  Txn txn = sys->Begin(thread);
  for (const FactRow& r : op.rows) {
    const uint64_t t0 = NowNs();
    const std::string err = op.insert ? sys->Insert(&txn, r) : sys->Update(&txn, r);
    if (!op.insert) t->update_call_us.push_back(Us(NowNs() - t0));
    if (!err.empty()) {
      t->Fail("dml: " + err);
      return 0;
    }
  }
  std::string err;
  const uint64_t t0 = NowNs();
  const Scn scn = sys->Commit(&txn, &err);
  t->commit_call_us.push_back(Us(NowNs() - t0));
  if (scn == 0) t->Fail("commit: " + err);
  return scn;
}

// ---------------------------------------------------------------------------
// Watchers
// ---------------------------------------------------------------------------

/// Stamps when each commit became visible on the standby: waits on the
/// oldest unseen commit, then marks every queued commit the returned QuerySCN
/// covers.
class VisibilityWatcher {
 public:
  VisibilityWatcher(System* sys, Tally* t) : sys_(sys), t_(t) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~VisibilityWatcher() { Finish(); }

  void Push(Commit* c) {
    {
      std::lock_guard<std::mutex> g(mu_);
      queue_.push_back(c);
    }
    cv_.notify_one();
  }
  /// Waits until every pushed commit is resolved, then stops.
  void Finish() {
    {
      std::lock_guard<std::mutex> g(mu_);
      done_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    PaceThread(t_);
    while (true) {
      Commit* head = nullptr;
      {
        std::unique_lock<std::mutex> g(mu_);
        cv_.wait(g, [&] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        head = queue_.front();
      }
      const Scn seen = sys_->WaitVisible(head->scn, kVisibleTimeoutUs);
      const uint64_t now = NowNs();
      std::lock_guard<std::mutex> g(mu_);
      if (seen < head->scn) {
        t_->Fail("commit " + std::to_string(head->scn) + " not visible within timeout");
        queue_.pop_front();
        continue;
      }
      while (!queue_.empty() && queue_.front()->scn <= seen) {
        queue_.front()->visible_ns = now;
        queue_.pop_front();
      }
    }
  }

  System* sys_;
  Tally* t_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Commit*> queue_;  ///< Guarded by mu_.
  bool done_ = false;          ///< Guarded by mu_.
  std::thread thread_;         // Last: started after the members it uses.
};

/// Traced run only: samples the write path's progress marks so each commit's
/// visibility splits into ship, deliver, merge wait, apply and publish.
class WatermarkSampler {
 public:
  WatermarkSampler(System* sys, Tally* t) : sys_(sys), t_(t) {
    samples_.reserve(1 << 18);
    thread_ = std::thread([this] { Loop(); });
  }
  ~WatermarkSampler() { Stop(); }

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  /// Fills the five stage durations of `c` (needs Stop() first). Returns
  /// false when the samples never covered the commit.
  bool Stages(const Commit& c, uint64_t bounds[6]) const {
    const int th = c.thread;
    const Scn scn = c.scn;
    auto first = [&](auto mark) -> uint64_t {
      auto it = std::partition_point(samples_.begin(), samples_.end(),
                                     [&](const Sample& s) { return mark(s.w) < scn; });
      return it == samples_.end() ? 0 : it->t;
    };
    const uint64_t marks[5] = {
        first([&](const Watermarks& w) { return w.shipped[th]; }),
        first([&](const Watermarks& w) { return w.delivered[th]; }),
        first([&](const Watermarks& w) { return w.dispatched; }),
        first([&](const Watermarks& w) { return w.applied; }),
        first([&](const Watermarks& w) { return w.published; })};
    bounds[0] = c.floor_ns;
    for (int i = 0; i < 5; ++i) {
      if (marks[i] == 0) return false;
      bounds[i + 1] = std::max(bounds[i], marks[i]);
    }
    return true;
  }

 private:
  struct Sample {
    uint64_t t;
    Watermarks w;
  };
  void Loop() {
    PaceThread(t_);
    while (!stop_.load()) {
      Sample s;
      sys_->ReadWatermarks(&s.w);
      s.t = NowNs();
      samples_.push_back(s);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  System* sys_;
  Tally* t_;
  std::vector<Sample> samples_;  ///< Written by the thread, read after Stop().
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Stage durations and trace spans for commits the sampler covered.
void FoldStages(const WatermarkSampler& sampler, const std::vector<Commit>& commits,
                double quiesce_us_per_advance, Tally* t, Tracer* tracer) {
  static const char* kNames[5] = {"redo.ship", "net.deliver", "redo.merge_wait",
                                  "adg.apply", "adg.publish"};
  static const char* kLayers[5] = {"redo", "net", "redo", "adg", "adg"};
  for (const Commit& c : commits) {
    if (c.scn == 0 || c.visible_ns == 0) continue;
    uint64_t b[6];
    if (!sampler.Stages(c, b)) continue;
    for (int i = 0; i < 5; ++i) t->stage_us[i].push_back(Us(b[i + 1] - b[i]));
    if (tracer == nullptr) continue;
    const uint64_t end = std::max(c.visible_ns, b[5]);
    const int64_t root = tracer->Add(Span{"visible", "wait", b[0], end, -1, c.scn});
    for (int i = 0; i < 5; ++i) {
      const int64_t id = tracer->Add(Span{kNames[i], kLayers[i], b[i], b[i + 1], root, c.scn});
      if (i == 4) {
        // The tail of publish is the quiesce period, where the IM-ADG
        // invalidation flush runs; attribute its measured mean to imadg.
        const uint64_t q = std::min<uint64_t>(b[5] - b[4],
                                              static_cast<uint64_t>(quiesce_us_per_advance * 1e3));
        tracer->Add(Span{"imadg.quiesce_flush", "imadg", b[5] - q, b[5], id, c.scn});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

struct Inputs {
  std::vector<FactRow> fact;
  std::array<std::vector<DimRow>, 2> dims;
};

Inputs MakeInputs(const WorkloadDef& w, uint64_t seed, InputDigest* digest) {
  Inputs in;
  Rng rng(StreamSeed(seed, 1));
  in.fact.reserve(w.fact_rows);
  for (size_t i = 0; i < w.fact_rows; ++i) {
    in.fact.push_back(MakeFact(static_cast<int64_t>(i), &rng));
    digest->Add(in.fact.back());
  }
  for (int d = 0; d < 2; ++d) {
    for (int64_t i = 0; i < kDimRows; ++i) {
      in.dims[d].push_back(DimRow{i, rng.Below(10), rng.Below(10)});
      digest->Add(static_cast<uint64_t>(in.dims[d].back().group * 16 + in.dims[d].back().filter));
    }
  }
  return in;
}

std::unique_ptr<System> SetUp(const WorkloadDef& w, const Inputs& in,
                              const std::string& data_dir, Tracer* tracer,
                              std::string* error) {
  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);
  auto sys = std::make_unique<System>(ClusterSpec{w.redo_threads, data_dir}, tracer);
  *error = sys->LoadFact(in.fact);
  for (int d = 0; d < 2 && error->empty(); ++d) *error = sys->LoadDim(d, in.dims[d]);
  if (error->empty()) *error = sys->CatchUpAndPopulate();
  return sys;
}

/// Closed-loop scan client over the standby's live QuerySCN.
void ScanClient(System* sys, QueryStream* qs, Tally* t, const std::atomic<bool>* stop,
                size_t min_filters, size_t min_groups, size_t min_joins) {
  uint64_t seq = 0;
  auto enough = [&] {
    if (stop != nullptr) return stop->load();
    return t->scan_us[0].size() >= min_filters && t->scan_us[1].size() >= min_groups &&
           t->scan_us[2].size() >= min_joins;
  };
  while (!enough()) {
    const QuerySpec q = qs->Next();
    RecordQuery(t, q, sys->Run(q, ReadPath::kStandby, 0, ++seq));
  }
}

/// One slice of the scan probe on the quiescent standby. The IMCS is brought
/// fully up to date first, so every slice scans the same state; slicing the
/// probe between catch-up cycles spreads its samples over the run.
void ProbeSlice(System* sys, QueryStream* qs, Tally* t, int slice, int slices) {
  const std::string err = sys->CatchUpAndPopulate();
  if (!err.empty()) {
    t->Fail("populate before the scan probe: " + err);
    return;
  }
  auto share = [&](size_t total) {
    return (total * static_cast<size_t>(slice + 1) + static_cast<size_t>(slices) - 1) /
           static_cast<size_t>(slices);
  };
  const uint64_t t0 = NowNs();
  ScanClient(sys, qs, t, nullptr, share(kProbeFilters), share(kProbeGroups), share(kProbeJoins));
  t->measured_ns += NowNs() - t0;
}

/// The open-loop write stream: `rate` txn/s for `seconds`, timed from when
/// each transaction was due. Runs the scan client beside it when asked.
void StreamPhase(const WorkloadDef& w, System* sys, const RunConfig& cfg, Tally* t,
                 InputDigest* digest, QueryStream* qs, Tracer* tracer) {
  const size_t n = static_cast<size_t>(w.stream_txn_per_s) * static_cast<size_t>(cfg.seconds);
  std::vector<Commit> commits(n);
  OpStream ops(StreamSeed(cfg.seed, 2), w.mix, static_cast<int64_t>(w.fact_rows), digest);
  std::atomic<bool> stop{false};
  std::unique_ptr<WatermarkSampler> sampler;
  if (cfg.trace) sampler = std::make_unique<WatermarkSampler>(sys, t);
  const Counters c0 = sys->ReadCounters();
  VisibilityWatcher watcher(sys, t);
  std::thread side;
  if (w.scans_during_stream) {
    // The IMCS starts the stream fully populated; its invalid fraction and
    // repopulation settle over the first seconds, which are not recorded.
    t->scan_warm_ns = NowNs() + kScanWarmupNs;
    side = std::thread([&] { ScanClient(sys, qs, t, &stop, 0, 0, 0); });
  } else {
    // Version-chain GC once a second keeps memory bounded under the stream.
    side = std::thread([&] {
      while (!stop.load()) {
        std::this_thread::sleep_for(std::chrono::seconds(1));
        sys->PruneVersions();
      }
    });
  }
  const uint64_t interval_ns = 1'000'000'000ull / static_cast<uint64_t>(w.stream_txn_per_s);
  t->commit_us.resize(static_cast<size_t>(cfg.seconds));
  t->visible_us.resize(static_cast<size_t>(cfg.seconds));
  const uint64_t start = NowNs() + 1'000'000;
  uint64_t rows = 0;
  std::thread writer([&] {
    PaceThread(t);
    TxnOp op;
    for (size_t i = 0; i < n; ++i) {
      ops.Next(&op);
      const uint64_t due = start + i * interval_ns;
      SleepUntil(due);
      t->late_ms_max = std::max(t->late_ms_max, Ms(NowNs() - std::min(NowNs(), due)));
      ++t->ops_attempted;
      t->Attempt();
      Commit& c = commits[i];
      c.thread = static_cast<int>(i % static_cast<size_t>(w.redo_threads));
      c.scn = ExecuteTxn(sys, op, c.thread, t);
      c.committed_ns = c.floor_ns = NowNs();
      rows += op.rows.size();
      if (c.scn == 0) continue;
      c.window = i / static_cast<size_t>(w.stream_txn_per_s);
      t->commit_us[c.window].push_back(Us(c.committed_ns - due));
      watcher.Push(&c);
    }
  });
  writer.join();
  const uint64_t end = NowNs();
  stop.store(true);
  side.join();
  watcher.Finish();
  if (sampler != nullptr) sampler->Stop();
  const Counters d = Delta(c0, sys->ReadCounters());
  Accumulate(&t->window, d);
  t->window_ns += end - start;
  t->window_rows += rows;
  t->measured_ns += end - start;
  ReadCodec(sys, t);
  for (const Commit& c : commits)
    if (c.visible_ns != 0) t->visible_us[c.window].push_back(Us(c.visible_ns - c.floor_ns));
  if (sampler != nullptr)
    FoldStages(*sampler, commits, Ratio(Us(d.quiesce_ns), static_cast<double>(d.advancements)),
               t, tracer);
}

/// Compares each query class on the standby IMCS, the standby row path and
/// the primary at one pinned SCN, plus the whole-table digest.
void QueryGate(System* sys, uint64_t seed, Tally* t) {
  const Scn at = sys->WaitVisible(sys->PrimaryScn(), kVisibleTimeoutUs);
  QueryStream qs(StreamSeed(seed, 5));
  for (size_t i = 0; i < std::size(kRotation) * 2; ++i) {
    const QuerySpec q = qs.Next();
    t->Attempt();
    const QueryOutcome a = sys->Run(q, ReadPath::kStandby, at, 0);
    const QueryOutcome b = sys->Run(q, ReadPath::kStandbyRowPath, at, 0);
    const QueryOutcome c = sys->Run(q, ReadPath::kPrimary, at, 0);
    if (!a.ok || !b.ok || !c.ok) {
      t->Fail("gate query failed: " + a.error + b.error + c.error);
    } else if (a.digest != b.digest || a.digest != c.digest) {
      t->Fail("gate: query class " + std::to_string(static_cast<int>(q.cls)) +
              " differs across IMCS / row path / primary at SCN " + std::to_string(at));
    }
  }
}

void DigestGate(System* sys, const char* when, Tally* t) {
  t->Attempt();
  const Scn at = sys->QueryScn();
  uint64_t a = 0, b = 0;
  std::string err = sys->TableDigest(ReadPath::kStandby, at, &a);
  if (err.empty()) err = sys->TableDigest(ReadPath::kPrimary, at, &b);
  if (!err.empty()) {
    t->Fail(std::string("digest ") + when + ": " + err);
  } else if (a != b) {
    t->Fail(std::string("table digest differs from the primary ") + when + " at SCN " +
            std::to_string(at));
  }
}

/// One catch-up cycle: checkpoint, build a backlog with shipping paused, time
/// the drain, then a clean disk restart and the first IMCS-served query.
void CatchupCycle(const WorkloadDef& w, System* sys, const RunConfig& cfg, int cycle,
                  bool record_commits, Tally* t, InputDigest* digest, Tracer* tracer) {
  sys->PruneVersions();
  uint64_t t0 = NowNs();
  std::string err = sys->Checkpoint();
  t->checkpoint_ms.push_back(Ms(NowNs() - t0));
  if (!err.empty()) {
    t->Fail("checkpoint: " + err);
    return;
  }
  OpStream ops(StreamSeed(cfg.seed, 100 + static_cast<uint64_t>(cycle)), w.mix,
               static_cast<int64_t>(w.fact_rows), digest);
  std::vector<Commit> commits(w.backlog_txns);
  if (record_commits) {
    t->commit_us.emplace_back();
    t->visible_us.emplace_back();
  }
  sys->PauseShipping(true);
  const Counters c0 = sys->ReadCounters();
  uint64_t rows = 0;
  TxnOp op;
  const uint64_t gen0 = NowNs();
  for (size_t i = 0; i < w.backlog_txns; ++i) {
    ops.Next(&op);
    t->Attempt();
    ++t->ops_attempted;
    Commit& c = commits[i];
    c.thread = static_cast<int>(i % static_cast<size_t>(w.redo_threads));
    const uint64_t issued = NowNs();
    c.scn = ExecuteTxn(sys, op, c.thread, t);
    c.committed_ns = NowNs();
    rows += op.rows.size();
    if (record_commits && c.scn != 0) t->commit_us.back().push_back(Us(c.committed_ns - issued));
  }
  const uint64_t gen_ns = NowNs() - gen0;
  t->primary_rows_per_s.push_back(static_cast<double>(rows) / Sec(gen_ns));

  std::unique_ptr<WatermarkSampler> sampler;
  if (cfg.trace) sampler = std::make_unique<WatermarkSampler>(sys, t);
  const uint64_t resume = NowNs();
  sys->PauseShipping(false);
  {
    VisibilityWatcher watcher(sys, t);
    for (Commit& c : commits) {
      c.floor_ns = std::max(c.committed_ns, resume);
      if (c.scn != 0) watcher.Push(&c);
    }
  }
  uint64_t drained = resume;
  for (const Commit& c : commits) drained = std::max(drained, c.visible_ns);
  if (sampler != nullptr) sampler->Stop();
  const Counters d = Delta(c0, sys->ReadCounters());
  t->catchup_rows_per_s.push_back(static_cast<double>(rows) / Sec(drained - resume));
  Accumulate(&t->drains, d);
  t->drain_ns += drained - resume;
  t->drain_rows += rows;
  t->measured_ns += gen_ns + (drained - resume);
  if (record_commits) {
    Accumulate(&t->window, d);
    t->window_ns += drained - resume;
    t->window_rows += rows;
    for (const Commit& c : commits)
      if (c.visible_ns != 0) t->visible_us.back().push_back(Us(c.visible_ns - c.floor_ns));
    if (sampler != nullptr)
      FoldStages(*sampler, commits, Ratio(Us(d.quiesce_ns), static_cast<double>(d.advancements)),
                 t, tracer);
    ReadCodec(sys, t);
  }
  DigestGate(sys, "after the drain", t);
  sys->PruneVersions();

  const Scn before = sys->QueryScn();
  t0 = NowNs();
  err = sys->DiskRestart();
  const uint64_t call_ns = NowNs() - t0;
  t->Attempt();
  if (!err.empty()) {
    t->Fail("disk restart: " + err);
    return;
  }
  const RecoveryInfo rec = sys->LastRecovery();
  t->restart_call_ms.push_back(Ms(call_ns));
  t->replayed_per_s.push_back(static_cast<double>(rec.replayed_records) / Sec(call_ns));
  t->restored_smus.push_back(static_cast<double>(rec.restored_smus));
  if (sys->WaitVisible(before, kVisibleTimeoutUs) < before) {
    t->Fail("QuerySCN did not return to its pre-restart value");
    return;
  }
  // Ready = the first query that sees the pre-restart state (no writes ran
  // since) and that the IMCS serves.
  const QuerySpec probe{QueryClass::kFilter, 0, 7};
  while (true) {
    const QueryOutcome o = sys->Run(probe, ReadPath::kStandby, 0, 0);
    const uint64_t now = NowNs();
    if (o.ok && o.rows_from_imcs > 0) {
      t->restart_ready_ms.push_back(Ms(now - t0));
      t->post_restart_query_ms.push_back(Ms(o.wall_ns));
      break;
    }
    if (!o.ok || now - t0 > static_cast<uint64_t>(kVisibleTimeoutUs) * 1000) {
      t->Fail("no IMCS-served query after restart: " + o.error);
      return;
    }
  }
  t->measured_ns += NowNs() - t0;
  DigestGate(sys, "after the restart", t);
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

void Report(Tally& t, const std::map<std::string, uint64_t>& self, const Tracer* tracer,
            RunResult* r) {
  auto e2e = [&](const char* name, double v, const char* unit, size_t n) {
    r->end_to_end.push_back(Metric{name, v, unit, n});
  };
  auto layer = [&](const char* name, double v, const char* unit, size_t n = 0) {
    r->per_layer.push_back(Metric{name, v, unit, n});
  };
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  e2e("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB", 0);
  const size_t nv = Samples(t.visible_us);
  e2e("commit_visible_us_p50", WindowedPct(&t.visible_us, 50), "us", nv);
  e2e("commit_visible_us_p95", WindowedPct(&t.visible_us, 95), "us", nv);
  e2e("catchup_rows_per_s", Median(t.catchup_rows_per_s), "rows/s", t.catchup_rows_per_s.size());
  e2e("restart_ready_ms", Median(t.restart_ready_ms), "ms", t.restart_ready_ms.size());
  e2e("primary_rows_per_s", Median(t.primary_rows_per_s), "rows/s", t.primary_rows_per_s.size());

  const Counters& wd = t.window;
  const double wsec = Sec(t.window_ns);
  const double wrows = static_cast<double>(t.window_rows);
  const char* kStageNames[5] = {"redo.ship_us_p50", "redo.deliver_us_p50",
                                "redo.merge_wait_us_p50", "adg.apply_us_p50",
                                "adg.publish_us_p50"};
  for (int i = 0; i < 5; ++i) layer(kStageNames[i], Pct(&t.stage_us[i], 50), "us");
  layer("db.update_call_us_p50", Pct(&t.update_call_us, 50), "us");
  layer("db.commit_call_us_p50", Pct(&t.commit_call_us, 50), "us");
  layer("net.bytes_per_row", Ratio(static_cast<double>(wd.shipped_bytes), wrows), "B/row");
  layer("net.encode_us_p50", t.encode_us_p50, "us");
  layer("net.decode_us_p50", t.decode_us_p50, "us");
  layer("net.codec_busy_ms", t.codec_busy_ms, "ms");
  layer("adg.drain_records_per_s",
        Ratio(static_cast<double>(t.drains.dispatched_records), Sec(t.drain_ns)), "1/s");
  layer("adg.advancements_per_s", Ratio(static_cast<double>(wd.advancements), wsec), "1/s");
  layer("adg.quiesce_us_per_advance",
        Ratio(Us(wd.quiesce_ns), static_cast<double>(wd.advancements)), "us");
  layer("imadg.mined_records_per_row", Ratio(static_cast<double>(wd.mined_records), wrows),
        "count");
  layer("imadg.journal_bucket_contention", static_cast<double>(wd.journal_bucket_contention),
        "count");
  layer("imadg.commit_table_walk_steps_per_insert",
        Ratio(static_cast<double>(wd.commit_table_walk_steps),
              static_cast<double>(wd.commit_table_inserts)),
        "count");
  layer("imadg.commit_table_partition_contention",
        static_cast<double>(wd.commit_table_contention), "count");
  layer("imadg.flush_cooperative_share",
        Ratio(static_cast<double>(wd.flush_cooperative_steps),
              static_cast<double>(wd.flush_cooperative_steps + wd.flush_coordinator_steps)),
        "ratio");
  layer("imadg.flushed_records_per_advance",
        Ratio(static_cast<double>(wd.flushed_records), static_cast<double>(wd.advancements)),
        "count");
  const double fs = static_cast<double>(t.filter_scans);
  layer("imcs.invalid_rowpath_per_scan", Ratio(static_cast<double>(t.filter_invalid_rowpath), fs),
        "rows");
  layer("imcs.rows_from_imcs_per_scan", Ratio(static_cast<double>(t.filter_rows_from_imcs), fs),
        "rows");
  layer("imcs.blocks_rowpath_per_scan", Ratio(static_cast<double>(t.filter_blocks_rowpath), fs),
        "blocks");
  layer("imcs.imcus_pruned_ratio",
        Ratio(static_cast<double>(t.filter_imcus_pruned),
              static_cast<double>(t.filter_imcus_pruned + t.filter_imcus_scanned)),
        "ratio");
  layer("imcs.kernel_words_per_scan", Ratio(static_cast<double>(t.filter_kernel_words), fs),
        "words");
  layer("imcs.repopulations_per_s", Ratio(static_cast<double>(wd.repopulations), wsec), "1/s");
  layer("imcs.rows_populated_per_s", Ratio(static_cast<double>(wd.rows_populated), wsec),
        "rows/s");
  layer("imcs.used_mb", static_cast<double>(wd.im_used_bytes) / (1024.0 * 1024.0), "MB");
  layer("exec.scan_op_us_p50", Pct(&t.group_scan_op_us, 50), "us");
  layer("exec.hash_agg_us_p50", Pct(&t.hash_agg_us, 50), "us");
  layer("exec.hash_join_us_p50", Pct(&t.hash_join_us, 50), "us");
  layer("exec.rowpath_share",
        Ratio(static_cast<double>(t.rowpath_leaves), static_cast<double>(t.scan_leaves)),
        "ratio");
  layer("exec.commit_lookups_per_scan",
        Ratio(static_cast<double>(t.commit_lookups), static_cast<double>(t.scans)), "count");
  layer("persist.archive_bytes_per_row",
        Ratio(static_cast<double>(t.drains.archived_bytes), static_cast<double>(t.drain_rows)),
        "B/row");
  layer("persist.checkpoint_ms", Median(t.checkpoint_ms), "ms");
  layer("persist.restart_call_ms", Median(t.restart_call_ms), "ms");
  layer("persist.replayed_records_per_s", Median(t.replayed_per_s), "1/s");
  layer("persist.restored_smus", Median(t.restored_smus), "count");
  layer("persist.post_restart_query_ms", Median(t.post_restart_query_ms), "ms");
  // Commit latency from when each transaction was due. Not end-to-end
  // metrics: on a shared 4-vCPU host these microsecond figures move with the
  // host's scheduling by more than any bound could allow.
  layer("gen.commit_us_p50", WindowedPct(&t.commit_us, 50), "us");
  // Scan latencies. Not end-to-end metrics: scans are bound by memory
  // latency, which on a shared host moves up to 2x with the neighbours' load
  // over tens of minutes, and by 1.3x within five.
  layer("scan.filter_us_p50", Pct(&t.scan_us[0], 50), "us", t.scan_us[0].size());
  layer("scan.group_us_p50", Pct(&t.scan_us[1], 50), "us", t.scan_us[1].size());
  layer("scan.join_us_p50", Pct(&t.scan_us[2], 50), "us", t.scan_us[2].size());
  layer("scan.filter_us_p95", WindowedPct(&t.scan_windows[0], 95), "us", t.scan_us[0].size());
  layer("scan.group_us_p95", WindowedPct(&t.scan_windows[1], 95), "us", t.scan_us[1].size());
  layer("scan.join_us_p95", WindowedPct(&t.scan_windows[2], 95), "us", t.scan_us[2].size());
  layer("gen.commit_us_p95", WindowedPct(&t.commit_us, 95), "us");
  layer("gen.late_ms_max", t.late_ms_max, "ms");
  layer("gen.ops_attempted", static_cast<double>(t.ops_attempted), "count");
  for (const char* l : {"db", "redo", "net", "adg", "imadg", "imcs", "persist", "wait"}) {
    auto it = self.find(l);
    layer((std::string("self.") + l + "_ms").c_str(),
          it == self.end() ? 0.0 : Ms(it->second), "ms");
  }
  if (tracer != nullptr) {
    layer("trace.spans", static_cast<double>(tracer->size()), "count");
    layer("trace.record_ms", Ms(tracer->record_ns()), "ms");
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const WorkloadDef& w : kWorkloads) v.push_back(w.name);
    return v;
  }();
  return names;
}

bool IsWorkload(const std::string& name) {
  const auto& names = WorkloadNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

RunResult RunWorkload(const RunConfig& cfg) {
  RunResult result;
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads)
    if (cfg.workload == w.name) def = &w;
  const WorkloadDef& w = *def;
  Tally t;
  t.result = &result;
  InputDigest digest;
  Tracer tracer;
  Tracer* tr = cfg.trace ? &tracer : nullptr;

  const Inputs in = MakeInputs(w, cfg.seed, &digest);
  auto data_dir = [&](int i) { return cfg.work_dir + "/data" + std::to_string(i); };
  auto remove_data = [&] {
    for (int i = 0; i < kSetups; ++i) std::filesystem::remove_all(data_dir(i));
  };
  // Set up several times and keep the last cluster; setup_s is the median.
  std::vector<double> setup_s;
  std::unique_ptr<System> sys;
  for (int i = 0; i < kSetups; ++i) {
    sys.reset();
    std::string err;
    const uint64_t t0 = NowNs();
    sys = SetUp(w, in, data_dir(i), tr, &err);
    setup_s.push_back(Sec(NowNs() - t0));
    if (!err.empty()) {
      t.Fail("setup: " + err);
      result.inputs_digest = digest.h;
      sys.reset();
      remove_data();
      return result;
    }
  }
  result.end_to_end.push_back(Metric{"setup_s", Median(setup_s), "s", setup_s.size()});

  // The scan client reads a timing-dependent prefix of this stream; digest a
  // fixed prefix.
  {
    QueryStream prefix(StreamSeed(cfg.seed, 4));
    for (int i = 0; i < 4096; ++i) {
      const QuerySpec q = prefix.Next();
      digest.Add(static_cast<uint64_t>(q.value) * 64 + q.variant * 4 + static_cast<uint64_t>(q.cls));
    }
  }
  QueryStream qs(StreamSeed(cfg.seed, 4));
  if (w.stream_txn_per_s > 0) StreamPhase(w, sys.get(), cfg, &t, &digest, &qs, tr);
  const int cycles = w.cycles > 0 ? w.cycles : std::max(3, cfg.seconds / 5);
  const int slices = w.scans_during_stream ? 0 : cycles + 1;
  if (slices > 0) ProbeSlice(sys.get(), &qs, &t, 0, slices);
  QueryGate(sys.get(), cfg.seed, &t);
  DigestGate(sys.get(), "after the stream", &t);

  for (int c = 0; c < cycles && result.correct; ++c) {
    CatchupCycle(w, sys.get(), cfg, c, w.stream_txn_per_s == 0, &t, &digest, tr);
    if (slices > 0 && result.correct) ProbeSlice(sys.get(), &qs, &t, c + 1, slices);
  }

  result.inputs_digest = digest.h;
  result.generator_boosted = !t.unboosted.load();
  const std::map<std::string, uint64_t> self = tracer.SelfTimeByLayer();
  Report(t, self, tr, &result);
  if (tr != nullptr) {
    result.per_layer.push_back(
        Metric{"trace.overhead_pct", 100.0 * Ratio(static_cast<double>(tracer.record_ns()),
                                                   static_cast<double>(t.measured_ns)),
               "%"});
    const std::string path = cfg.work_dir + "/spans-" + w.name + ".json";
    if (!tracer.WriteJson(path, kSpansWritten)) result.errors.push_back("could not write " + path);
  }
  if (t.late_ms_max > kMaxLateMs) {
    result.valid = false;
    result.invalid_reason = "open-loop generator ran " + std::to_string(t.late_ms_max) +
                            " ms late (limit " + std::to_string(kMaxLateMs) + " ms)";
  }
  sys.reset();
  remove_data();
  return result;
}

}  // namespace perfbench
