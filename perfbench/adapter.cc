#include "adapter.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <sstream>
#include <utility>

#include "bench_util.h"
#include "common/clock.h"
#include "db/database.h"
#include "obs/metrics.h"

extern char** environ;

namespace perfbench {

using stratus::AggKind;
using stratus::AggSpec;
using stratus::ObjectId;
using stratus::Predicate;
using stratus::PredOp;
using stratus::QueryResult;
using stratus::Row;
using stratus::Status;
using stratus::StatusOr;
using stratus::Value;

uint64_t NowNs() { return stratus::NowNanos(); }

namespace {

// Fact layout: id, n1..n10, c1..c10. Dimension layout: id, group, filter.
constexpr uint32_t kN1 = 1, kN2 = 2, kN3 = 3, kN9 = 9, kN10 = 10;
constexpr uint32_t kC1 = 1 + kFactInts;
constexpr uint32_t kFactArity = 1 + kFactInts + kFactStrings;

std::string CodeString(uint32_t code) {
  std::string s = "v" + std::to_string(code);
  s.resize(8, 'x');
  return s;
}

Row ToRow(const FactRow& r) {
  Row row;
  row.reserve(kFactArity);
  row.emplace_back(r.id);
  for (int64_t v : r.n) row.emplace_back(v);
  for (uint32_t c : r.c) row.emplace_back(CodeString(c));
  return row;
}

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

uint64_t HashRow(const Row& row) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (const Value& v : row) {
    uint64_t x = 0;
    if (v.is_null()) {
      x = 0x6e756c6cull;
    } else if (v.type() == stratus::ValueType::kInt) {
      x = static_cast<uint64_t>(v.as_int());
    } else {
      x = std::hash<std::string>{}(v.as_string());
    }
    h = Mix(h ^ x) + 0x9E3779B97F4A7C15ull;
  }
  return h;
}

const char* StageLayer(const std::string& op) {
  return op == "scan" ? "imcs" : "db";
}

const char* StageName(const std::string& op) {
  if (op == "scan") return "imcs.scan";
  if (op == "hash_agg") return "exec.hash_agg";
  if (op == "hash_join") return "exec.hash_join";
  if (op == "filter") return "exec.filter";
  if (op == "project") return "exec.project";
  return "exec.other";
}

const char* QueryName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kFilter: return "query.filter";
    case QueryClass::kGroup: return "query.group";
    case QueryClass::kJoin: return "query.join";
  }
  return "query";
}

std::string Err(const Status& st) { return st.ok() ? "" : st.ToString(); }

}  // namespace

struct Txn::Impl {
  stratus::Transaction txn;
  uint64_t begin_ns = 0;
  std::vector<Span> children;  // Traced DML calls, parented at commit.
};

Txn::Txn(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Txn::~Txn() = default;
Txn::Txn(Txn&&) noexcept = default;

struct System::Impl {
  explicit Impl(const stratus::DatabaseOptions& options) : cluster(options) {}
  stratus::AdgCluster cluster;
  ObjectId fact = stratus::kInvalidObjectId;
  std::array<ObjectId, 2> dims{};
  std::string create_error;  ///< First CreateTable failure, reported by LoadFact.
};

namespace {

stratus::DatabaseOptions MakeOptions(const ClusterSpec& spec,
                                     stratus::obs::MetricsRegistry* registry) {
  stratus::DatabaseOptions options = stratus::DefaultClusterOptions();
  options.primary_redo_threads = spec.redo_threads;
  options.registry = registry;
  if (!spec.data_dir.empty()) {
    options.persist.enabled = true;
    options.persist.data_dir = spec.data_dir;
    options.persist.sync = stratus::persist::SyncMode::kNone;
  }
  return options;
}

// One registry per process: the cluster's channels and roles publish here, so
// histogram reads see only this run's traffic.
stratus::obs::MetricsRegistry* Registry() {
  static stratus::obs::MetricsRegistry registry;
  return &registry;
}

}  // namespace

System::System(const ClusterSpec& spec, Tracer* tracer)
    : impl_(std::make_unique<Impl>(MakeOptions(spec, Registry()))),
      redo_threads_(spec.redo_threads),
      tracer_(tracer) {
  stratus::AdgCluster& c = impl_->cluster;
  c.Start();
  auto create = [&](const std::string& name, stratus::Schema schema, ObjectId* out) {
    StatusOr<ObjectId> oid = c.CreateTable(name, stratus::kDefaultTenant, std::move(schema),
                                           stratus::ImService::kStandbyOnly, true);
    if (oid.ok()) {
      *out = *oid;
    } else if (impl_->create_error.empty()) {
      impl_->create_error = Err(oid.status());
    }
  };
  create("FACT", stratus::Schema::WideTable(kFactInts, kFactStrings), &impl_->fact);
  create("DIM1", stratus::Schema::WideTable(2, 0), &impl_->dims[0]);
  create("DIM2", stratus::Schema::WideTable(2, 0), &impl_->dims[1]);
}

System::~System() { impl_->cluster.Stop(); }

std::string System::LoadFact(const std::vector<FactRow>& rows) {
  if (!impl_->create_error.empty()) return impl_->create_error;
  stratus::PrimaryDb* p = impl_->cluster.primary();
  for (size_t i = 0; i < rows.size();) {
    stratus::Transaction txn = p->Begin(0);
    for (size_t k = 0; k < 512 && i < rows.size(); ++k, ++i) {
      const Status st = p->Insert(&txn, impl_->fact, ToRow(rows[i]));
      if (!st.ok()) return Err(st);
    }
    StatusOr<stratus::Scn> scn = p->Commit(&txn);
    if (!scn.ok()) return Err(scn.status());
  }
  return "";
}

std::string System::LoadDim(int which, const std::vector<DimRow>& rows) {
  stratus::PrimaryDb* p = impl_->cluster.primary();
  stratus::Transaction txn = p->Begin(0);
  for (const DimRow& r : rows) {
    const Status st = p->Insert(&txn, impl_->dims[which],
                                Row{Value(r.id), Value(r.group), Value(r.filter)});
    if (!st.ok()) return Err(st);
  }
  StatusOr<stratus::Scn> scn = p->Commit(&txn);
  return scn.ok() ? "" : Err(scn.status());
}

std::string System::CatchUpAndPopulate() {
  stratus::AdgCluster& c = impl_->cluster;
  const Scn target = c.primary()->current_scn();
  if (c.WaitForCatchup() < target) return "standby did not catch up";
  for (ObjectId oid : {impl_->fact, impl_->dims[0], impl_->dims[1]}) {
    const Status st = c.standby()->PopulateNow(oid);
    if (!st.ok()) return Err(st);
  }
  return "";
}

Txn System::Begin(int redo_thread) {
  auto impl = std::make_unique<Txn::Impl>();
  impl->begin_ns = NowNs();
  impl->txn = impl_->cluster.primary()->Begin(
      static_cast<stratus::RedoThreadId>(redo_thread));
  return Txn(std::move(impl));
}

std::string System::Update(Txn* txn, const FactRow& row) {
  const uint64_t t0 = NowNs();
  const Status st = impl_->cluster.primary()->UpdateByKey(
      &txn->impl_->txn, impl_->fact, row.id, ToRow(row));
  if (tracer_ != nullptr)
    txn->impl_->children.push_back(Span{"db.update", "db", t0, NowNs(), -1, 0});
  return Err(st);
}

std::string System::Insert(Txn* txn, const FactRow& row) {
  const uint64_t t0 = NowNs();
  const Status st =
      impl_->cluster.primary()->Insert(&txn->impl_->txn, impl_->fact, ToRow(row));
  if (tracer_ != nullptr)
    txn->impl_->children.push_back(Span{"db.insert", "db", t0, NowNs(), -1, 0});
  return Err(st);
}

Scn System::Commit(Txn* txn, std::string* error) {
  const uint64_t t0 = NowNs();
  StatusOr<stratus::Scn> scn = impl_->cluster.primary()->Commit(&txn->impl_->txn);
  const uint64_t t1 = NowNs();
  if (!scn.ok()) {
    *error = Err(scn.status());
    return 0;
  }
  if (tracer_ != nullptr) {
    const int64_t root =
        tracer_->Add(Span{"txn", "db", txn->impl_->begin_ns, t1, -1, *scn});
    for (Span s : txn->impl_->children) {
      s.parent = root;
      s.key = *scn;
      tracer_->Add(s);
    }
    tracer_->Add(Span{"db.commit", "db", t0, t1, root, *scn});
  }
  return *scn;
}

namespace {

stratus::ScanQuery FactScan(const QuerySpec& q, ObjectId fact) {
  stratus::ScanQuery s;
  s.object = fact;
  s.dop = 1;
  if (q.cls == QueryClass::kFilter) {
    s.aggregates = {AggSpec{AggKind::kCount, 0}};
    if (q.variant == 0) {
      s.predicates = {Predicate{kN1, PredOp::kEq, Value(q.value)}};
    } else {
      s.predicates = {Predicate{kC1, PredOp::kEq,
                                Value(CodeString(static_cast<uint32_t>(q.value)))}};
    }
  } else {
    s.predicates = {Predicate{kN3, PredOp::kGe, Value(q.value)},
                    Predicate{kN3, PredOp::kLt, Value(q.hi)}};
    s.group_by = {kN1};
    s.aggregates = {AggSpec{AggKind::kCount, 0}, AggSpec{AggKind::kSum, kN2}};
  }
  return s;
}

stratus::MultiJoinQuery StarJoin(const QuerySpec& q, ObjectId fact,
                                 const std::array<ObjectId, 2>& dims) {
  stratus::MultiJoinQuery j;
  j.fact = fact;
  j.dop = 1;
  j.fact_predicates = {Predicate{kN3, PredOp::kGe, Value(q.value)},
                       Predicate{kN3, PredOp::kLt, Value(q.hi)}};
  stratus::JoinEdge d1;
  d1.object = dims[0];
  d1.probe_column = kN9;
  d1.build_column = 0;
  stratus::JoinEdge d2;
  d2.object = dims[1];
  d2.probe_column = kN10;
  d2.build_column = 0;
  d2.predicates = {Predicate{2, PredOp::kEq, Value(static_cast<int64_t>(q.variant))}};
  j.joins = {d1, d2};
  j.group_by = {kFactArity + 1};  // dim1.group
  j.aggregates = {AggSpec{AggKind::kCount, 0}, AggSpec{AggKind::kSum, kN2}};
  return j;
}

}  // namespace

QueryOutcome System::Run(const QuerySpec& q, ReadPath path, Scn at, uint64_t seq) {
  QueryOutcome out;
  stratus::AdgCluster& c = impl_->cluster;
  const bool row_path = path == ReadPath::kStandbyRowPath;
  const uint64_t t0 = NowNs();
  StatusOr<QueryResult> r = Status::OK();
  if (q.cls == QueryClass::kJoin) {
    stratus::MultiJoinQuery j = StarJoin(q, impl_->fact, impl_->dims);
    j.force_row_store = row_path;
    if (path == ReadPath::kPrimary) {
      r = c.primary()->MultiJoinAt(j, at);
    } else {
      r = at == 0 ? c.standby()->MultiJoin(j) : c.standby()->MultiJoinAt(j, at);
    }
  } else {
    stratus::ScanQuery s = FactScan(q, impl_->fact);
    s.force_row_store = row_path;
    if (path == ReadPath::kPrimary) {
      r = c.primary()->QueryAt(s, at);
    } else {
      r = at == 0 ? c.standby()->Query(s) : c.standby()->QueryAt(s, at);
    }
  }
  const uint64_t t1 = NowNs();
  out.wall_ns = t1 - t0;
  if (!r.ok()) {
    out.error = Err(r.status());
    return out;
  }
  out.ok = true;
  const QueryResult& res = *r;
  uint64_t h = Mix(res.count + 1);
  for (const Row& row : res.rows) h = Mix(h ^ HashRow(row));
  out.digest = h;
  const stratus::ScanStats& st = res.profile.scan;
  out.rows_from_imcs = st.rows_from_imcs;
  out.invalid_rowpath = st.invalid_rowpath;
  out.blocks_rowpath = st.blocks_rowpath;
  out.imcus_scanned = st.imcus_scanned;
  out.imcus_pruned = st.imcus_pruned;
  out.kernel_words = st.kernel_swar_words + st.kernel_avx2_words;
  out.commit_lookups = res.profile.commit_lookups;
  for (const stratus::OperatorStage& stage : res.profile.stages) {
    if (stage.op == "scan") {
      out.scan_op_us += stage.elapsed_us;
      ++out.scan_leaves;
      if (stage.path == "row") ++out.rowpath_leaves;
    } else if (stage.op == "hash_agg") {
      out.hash_agg_us += stage.elapsed_us;
    } else if (stage.op == "hash_join") {
      out.hash_join_us += stage.elapsed_us;
    }
  }
  if (tracer_ != nullptr) {
    // Operator self times from the profile, laid end to end under the call.
    const int64_t root = tracer_->Add(Span{QueryName(q.cls), "db", t0, t1, -1, seq});
    uint64_t cursor = t0;
    for (const stratus::OperatorStage& stage : res.profile.stages) {
      const uint64_t end = std::min(t1, cursor + stage.elapsed_us * 1000);
      tracer_->Add(Span{StageName(stage.op), StageLayer(stage.op), cursor, end, root, seq});
      cursor = end;
    }
  }
  return out;
}

std::string System::TableDigest(ReadPath path, Scn at, uint64_t* digest) {
  stratus::ScanQuery s;
  s.object = impl_->fact;
  s.dop = 1;
  s.force_row_store = path == ReadPath::kStandbyRowPath;
  StatusOr<QueryResult> r = path == ReadPath::kPrimary
                                ? impl_->cluster.primary()->QueryAt(s, at)
                                : impl_->cluster.standby()->QueryAt(s, at);
  if (!r.ok()) return Err(r.status());
  // Row order follows physical layout; sum the row hashes so the digest
  // compares content only.
  uint64_t sum = 0;
  for (const Row& row : r->rows) sum += Mix(HashRow(row));
  *digest = Mix(sum ^ r->rows.size());
  return "";
}

Scn System::WaitVisible(Scn scn, int64_t timeout_us) {
  const uint64_t t0 = NowNs();
  const Scn seen = impl_->cluster.standby()->WaitForQueryScn(scn, timeout_us);
  if (tracer_ != nullptr) tracer_->Add(Span{"adg.wait_query_scn", "wait", t0, NowNs(), -1, scn});
  return seen;
}

Scn System::QueryScn() const { return impl_->cluster.standby()->query_scn(); }

Scn System::PrimaryScn() const { return impl_->cluster.primary()->current_scn(); }

void System::PauseShipping(bool paused) { impl_->cluster.SetShippingPaused(paused); }

std::string System::Checkpoint() {
  const uint64_t t0 = NowNs();
  const Status st = impl_->cluster.standby()->TakeCheckpoint();
  if (tracer_ != nullptr) tracer_->Add(Span{"persist.checkpoint", "persist", t0, NowNs(), -1, 0});
  return Err(st);
}

std::string System::DiskRestart() {
  const uint64_t t0 = NowNs();
  const Status st = impl_->cluster.DiskRestartStandby();
  if (tracer_ != nullptr) tracer_->Add(Span{"persist.disk_restart", "persist", t0, NowNs(), -1, 0});
  return Err(st);
}

RecoveryInfo System::LastRecovery() const {
  const stratus::persist::RecoveryResult r = impl_->cluster.standby()->last_recovery();
  return RecoveryInfo{r.replayed_records, r.restored_smus};
}

void System::PruneVersions() {
  impl_->cluster.primary()->PruneVersions();
  impl_->cluster.standby()->PruneVersions();
}

Counters System::ReadCounters() const {
  Counters k;
  stratus::AdgCluster& c = impl_->cluster;
  for (size_t i = 0; i < c.shipper_count(); ++i) k.shipped_bytes += c.shipper(i)->bytes_shipped();
  stratus::StandbyDb* sb = c.standby();
  if (sb->apply_engine() != nullptr) k.dispatched_records = sb->apply_engine()->dispatched_records();
  if (sb->coordinator() != nullptr) {
    k.advancements = sb->coordinator()->advancements();
    k.quiesce_ns = sb->coordinator()->quiesce_nanos();
  }
  if (sb->mining() != nullptr) k.mined_records = sb->mining()->mined_records();
  if (sb->journal() != nullptr) k.journal_bucket_contention = sb->journal()->bucket_contention();
  if (sb->commit_table() != nullptr) {
    k.commit_table_inserts = sb->commit_table()->inserts();
    k.commit_table_walk_steps = sb->commit_table()->insert_walk_steps();
    k.commit_table_contention = sb->commit_table()->partition_contention();
  }
  if (sb->flush() != nullptr) {
    const stratus::FlushStats f = sb->flush()->stats();
    k.flushed_records = f.flushed_records;
    k.flush_cooperative_steps = f.cooperative_steps;
    k.flush_coordinator_steps = f.coordinator_steps;
  }
  if (sb->populator() != nullptr) {
    const stratus::PopulationStats p = sb->populator()->stats();
    k.repopulations = p.repopulations;
    k.rows_populated = p.rows_populated;
  }
  k.im_used_bytes = sb->im_store()->used_bytes();
  const stratus::persist::PersistStats ps = sb->PersistStatsSnapshot();
  k.archived_bytes = ps.archived_bytes;
  return k;
}

void System::ReadWatermarks(Watermarks* out) const {
  stratus::AdgCluster& c = impl_->cluster;
  stratus::StandbyDb* sb = c.standby();
  for (int i = 0; i < redo_threads_ && i < 2; ++i) {
    out->shipped[i] = c.shipper(static_cast<size_t>(i))->last_shipped_scn();
    out->delivered[i] = sb->stream(static_cast<size_t>(i))->DeliveredWatermark();
  }
  out->dispatched = sb->apply_engine() != nullptr ? sb->apply_engine()->dispatched_scn() : 0;
  out->applied = sb->applied_scn();
  out->published = sb->published_query_scn();
}

void System::NetHistogram(const std::string& which, double* p50_us, double* sum_us) const {
  const std::string name = "stratus_net_" + which + "_us";
  std::istringstream in(impl_->cluster.MetricsText());
  std::string line;
  *p50_us = 0;
  *sum_us = 0;
  while (std::getline(in, line)) {
    const size_t sp = line.rfind(' ');
    if (line.compare(0, name.size(), name) != 0 || sp == std::string::npos) continue;
    const double v = std::strtod(line.c_str() + sp + 1, nullptr);
    const std::string series = line.substr(name.size(), line.find('{') - name.size());
    if (series == "_p50_us") *p50_us = std::max(*p50_us, v);
    if (series == "_sum_us") *sum_us += v;
  }
}

std::string CheckEnvironment() {
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "STRATUS_", 8) == 0) {
      const char* eq = std::strchr(*e, '=');
      return "environment override " +
             std::string(*e, eq == nullptr ? std::strlen(*e)
                                           : static_cast<size_t>(eq - *e)) +
             " is set; unset every STRATUS_* variable";
    }
  }
  return "";
}

bool ChaosPointsCompiledIn() {
#ifdef STRATUS_CHAOS_POINTS
  return true;
#else
  return false;
#endif
}

std::string CompilerVersion() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace perfbench
