// The benchmark's only boundary with the stratus library. Every call into the
// library lives in adapter.cc; the workload definitions (workloads.cc) use the
// plain types declared here, so a change to the library's query structs or
// facades edits adapter.cc alone.
#ifndef PERFBENCH_ADAPTER_H_
#define PERFBENCH_ADAPTER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

using Scn = uint64_t;

/// Monotonic clock shared by the benchmark and the library (nanoseconds).
uint64_t NowNs();

inline constexpr int kFactInts = 10;     // n1..n10
inline constexpr int kFactStrings = 10;  // c1..c10

/// One fact-table row as the workloads generate it. String column k holds
/// the code `c[k]`, rendered by the adapter as "v<code>" padded to 8 chars.
struct FactRow {
  int64_t id = 0;
  std::array<int64_t, kFactInts> n{};
  std::array<uint32_t, kFactStrings> c{};
};

/// One dimension-table row: key, a grouping attribute, a filter attribute.
struct DimRow {
  int64_t id = 0;
  int64_t group = 0;
  int64_t filter = 0;
};

enum class QueryClass : uint8_t { kFilter = 0, kGroup = 1, kJoin = 2 };
inline constexpr int kQueryClasses = 3;

/// A query as the workloads describe it.
///  - kFilter, variant 0 (Q1): COUNT(*) WHERE n1 = value.
///  - kFilter, variant 1 (Q2): COUNT(*) WHERE c1 = "v<value>".
///  - kGroup (Q3): n1, COUNT(*), SUM(n2) WHERE value <= n3 < hi GROUP BY n1.
///  - kJoin: fact ⋈ dim1 (n9 = dim1.id) ⋈ dim2 (n10 = dim2.id)
///           WHERE value <= n3 < hi AND dim2.filter = variant,
///           GROUP BY dim1.group, COUNT(*), SUM(n2).
struct QuerySpec {
  QueryClass cls = QueryClass::kFilter;
  uint8_t variant = 0;
  int64_t value = 0;
  int64_t hi = 0;
};

/// Where a query runs.
enum class ReadPath : uint8_t {
  kStandby,         ///< Standby, planner's choice (IMCS when usable).
  kStandbyRowPath,  ///< Standby with the IMCS bypassed.
  kPrimary,         ///< Primary flashback read.
};

/// What the benchmark keeps of one query execution.
struct QueryOutcome {
  bool ok = false;
  std::string error;
  uint64_t digest = 0;  ///< Hash of the result rows and count.
  uint64_t wall_ns = 0;
  // Scan-engine accounting (all scan leaves summed).
  uint64_t rows_from_imcs = 0;
  uint64_t invalid_rowpath = 0;
  uint64_t blocks_rowpath = 0;
  uint64_t imcus_scanned = 0;
  uint64_t imcus_pruned = 0;
  uint64_t kernel_words = 0;
  uint64_t commit_lookups = 0;
  // Operator self times from the execution profile (microseconds).
  uint64_t scan_op_us = 0;
  uint64_t hash_agg_us = 0;
  uint64_t hash_join_us = 0;
  uint32_t scan_leaves = 0;
  uint32_t rowpath_leaves = 0;  ///< Scan leaves the planner sent down the row path.
};

/// Cumulative counters read from the library's public accessors. Pipeline
/// components are rebuilt by a disk restart, so take deltas within one
/// pipeline lifetime.
struct Counters {
  uint64_t shipped_bytes = 0;
  uint64_t dispatched_records = 0;
  uint64_t advancements = 0;
  uint64_t quiesce_ns = 0;
  uint64_t mined_records = 0;
  uint64_t journal_bucket_contention = 0;
  uint64_t commit_table_inserts = 0;
  uint64_t commit_table_walk_steps = 0;
  uint64_t commit_table_contention = 0;
  uint64_t flushed_records = 0;
  uint64_t flush_cooperative_steps = 0;
  uint64_t flush_coordinator_steps = 0;
  uint64_t repopulations = 0;
  uint64_t rows_populated = 0;
  uint64_t im_used_bytes = 0;
  uint64_t archived_bytes = 0;
};

/// Progress marks along the write path, one entry per redo thread where the
/// mark is per stream.
struct Watermarks {
  std::array<Scn, 2> shipped{};
  std::array<Scn, 2> delivered{};
  Scn dispatched = 0;
  Scn applied = 0;
  Scn published = 0;
};

/// Outcome of the last disk restart's recovery pass.
struct RecoveryInfo {
  uint64_t replayed_records = 0;
  uint64_t restored_smus = 0;
};

struct ClusterSpec {
  int redo_threads = 1;
  /// Standby data directory; persistence (archive, checkpoints, snapshots,
  /// no fsync) is on when non-empty.
  std::string data_dir;
};

/// Opaque open transaction.
class Txn {
 public:
  ~Txn();
  Txn(Txn&&) noexcept;

 private:
  friend class System;
  struct Impl;
  explicit Txn(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// A primary + standby cluster holding one fact table and two dimension
/// tables, all IMCS-enabled on the standby. Methods may be called from
/// several threads at once except where noted.
class System {
 public:
  /// `tracer` may be null; when set, every library call is recorded as a span.
  System(const ClusterSpec& spec, Tracer* tracer);
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // --- Setup (single-threaded) ------------------------------------------
  /// Loads rows in transactions of up to 512 rows. Returns "" or an error
  /// (including a failure to create the tables).
  std::string LoadFact(const std::vector<FactRow>& rows);
  std::string LoadDim(int which, const std::vector<DimRow>& rows);
  /// Waits for the standby to catch up, then populates every table's IMCS.
  std::string CatchUpAndPopulate();

  // --- Writes (primary) ---------------------------------------------------
  Txn Begin(int redo_thread);
  std::string Update(Txn* txn, const FactRow& row);
  std::string Insert(Txn* txn, const FactRow& row);
  /// Commits; returns the commit SCN, or 0 with `*error` set.
  Scn Commit(Txn* txn, std::string* error);

  // --- Reads ----------------------------------------------------------------
  /// `at` = 0 runs at the standby's live QuerySCN (kPrimary requires `at`).
  /// `seq` keys the trace span.
  QueryOutcome Run(const QuerySpec& q, ReadPath path, Scn at, uint64_t seq);
  /// Order-independent digest of the whole fact table at `at`.
  std::string TableDigest(ReadPath path, Scn at, uint64_t* digest);

  // --- Standby progress -----------------------------------------------------
  /// Blocks until the QuerySCN reaches `scn` or the timeout; returns the
  /// QuerySCN seen.
  Scn WaitVisible(Scn scn, int64_t timeout_us);
  Scn QueryScn() const;
  Scn PrimaryScn() const;
  void PauseShipping(bool paused);

  // --- Durability -------------------------------------------------------------
  std::string Checkpoint();
  /// Clean disk restart of the standby (replays the archived redo).
  std::string DiskRestart();
  RecoveryInfo LastRecovery() const;

  /// One version-chain garbage-collection pass on both databases (the
  /// library has no background GC; without it a long write stream grows
  /// memory without bound).
  void PruneVersions();

  // --- Observation --------------------------------------------------------------
  Counters ReadCounters() const;
  /// Not safe concurrently with DiskRestart.
  void ReadWatermarks(Watermarks* out) const;
  /// Reads the `stratus_net_<which>_us` histograms (which = encode|decode):
  /// the largest p50 across channels, and the summed time in microseconds.
  void NetHistogram(const std::string& which, double* p50_us, double* sum_us) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  int redo_threads_;
  Tracer* tracer_;
};

/// Refuses to run when an environment override would change what the
/// library executes. Returns "" when clean, else the reason.
std::string CheckEnvironment();
/// True when the library was built with chaos crash points.
bool ChaosPointsCompiledIn();
std::string CompilerVersion();

}  // namespace perfbench

#endif  // PERFBENCH_ADAPTER_H_
