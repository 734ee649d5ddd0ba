#include "persist/recovery.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "storage/block.h"

namespace stratus {
namespace persist {

namespace {

struct Touch {
  TenantId tenant;
  Dba dba;
  SlotId slot;
};

}  // namespace

StatusOr<RecoveryResult> RecoveryManager::Recover(
    const CheckpointImage* ckpt, const ImcsSnapshotImage* snap,
    std::vector<std::vector<RedoRecord>> stream_records,
    const std::function<bool(ObjectId, Schema*)>& schema_of) {
  RecoveryResult result;

  // -- Phase 1: restore the dictionary and the row store from the checkpoint.
  if (ckpt != nullptr) {
    result.checkpoint_loaded = true;
    result.checkpoint_scn = ckpt->recovery_scn;
    if (hooks_.restore_table) {
      for (const TableImage& t : ckpt->tables) hooks_.restore_table(t);
    }
    for (const BlockImage& img : ckpt->blocks) {
      Block* b = blocks_->EnsureBlock(img.dba, img.object_id, img.tenant);
      if (b == nullptr)
        return Status::Corruption("checkpoint names a txn-table dba");
      b->RestoreChains(img.chains, img.frontier);
      ++result.restored_blocks;
      if (hooks_.restore_block) hooks_.restore_block(img);
    }
    txns_->Restore(ckpt->txns);
  }

  // -- Phase 2: reload the columnar snapshot (resume-from-SCN, not rebuild).
  const bool have_snap = snap != nullptr && im_store_ != nullptr;
  if (have_snap) {
    auto restored = LoadImcsSnapshot(*snap, im_store_, schema_of);
    STRATUS_RETURN_IF_ERROR(restored.status());
    result.restored_smus = restored.value();
    result.snapshot_loaded = true;
    result.snapshot_scn = snap->floor_scn;
  }

  // -- Phase 3: replay archived redo from the recovery floor.
  //
  // Floor = min(checkpoint recovery SCN, snapshot floor): the row store needs
  // nothing below the former, the IMCS invalidation mining nothing below the
  // latter. kInvalidScn (no checkpoint) replays everything.
  Scn floor = ckpt != nullptr ? ckpt->recovery_scn : kInvalidScn;
  if (result.snapshot_loaded && snap->floor_scn < floor)
    floor = snap->floor_scn;
  result.replay_floor = floor;

  Scn max_seen = ckpt != nullptr ? std::max(ckpt->recovery_scn, ckpt->end_scn)
                                 : kInvalidScn;

  // K-way merge of the per-stream archives by SCN (each stream is already
  // SCN-ascending — delivery order is archive order).
  using HeapItem = std::pair<Scn, size_t>;  // (scn of head, stream)
  std::vector<size_t> cursor(stream_records.size(), 0);
  auto cmp = [](const HeapItem& a, const HeapItem& b) { return a.first > b.first; };
  std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(cmp)> heap(cmp);
  for (size_t k = 0; k < stream_records.size(); ++k)
    if (!stream_records[k].empty())
      heap.push({stream_records[k][0].scn, k});

  // Mining-lite journal: per-XID DML touches seen during replay. A begin seen
  // during replay guarantees the touch set is complete (a transaction's begin
  // precedes its first DML in SCN order on its own stream).
  std::unordered_map<Xid, std::vector<Touch>> touches;
  std::unordered_set<Xid> begin_seen;

  while (!heap.empty()) {
    const size_t k = heap.top().second;
    heap.pop();
    RedoRecord& rec = stream_records[k][cursor[k]];
    if (++cursor[k] < stream_records[k].size())
      heap.push({stream_records[k][cursor[k]].scn, k});

    if (rec.scn < floor) continue;  // Fully covered by checkpoint + snapshot.
    ++result.replayed_records;

    for (ChangeVector& cv : rec.cvs) {
      switch (cv.kind) {
        case CvKind::kInsert:
        case CvKind::kUpdate:
        case CvKind::kDelete: {
          ++result.replayed_cvs;
          Block* b = blocks_->EnsureBlock(cv.dba, cv.object_id, cv.tenant);
          if (b == nullptr)
            return Status::Corruption("data CV targets a txn-table dba");
          if (have_snap) {
            touches[cv.xid].push_back(Touch{cv.tenant, cv.dba, cv.slot});
          }
          // The frontier gate: at or below it the checkpointed chains already
          // contain this CV's effect.
          if (cv.scn <= b->last_change_scn()) break;
          Status s;
          if (cv.kind == CvKind::kInsert) {
            s = b->ApplyInsert(cv.slot, cv.xid, cv.after, cv.scn);
          } else if (cv.kind == CvKind::kUpdate) {
            s = b->ApplyUpdate(cv.slot, cv.xid, cv.after, cv.scn);
          } else {
            s = b->ApplyDelete(cv.slot, cv.xid, cv.scn);
          }
          if (!s.ok())
            return Status::Corruption("redo replay failed at scn " +
                                      std::to_string(cv.scn) + ": " + s.message());
          ++result.applied_cvs;
          if (hooks_.note_applied) hooks_.note_applied(cv);
          break;
        }
        case CvKind::kTxnBegin:
          txns_->Begin(cv.xid);
          begin_seen.insert(cv.xid);
          break;
        case CvKind::kTxnCommit: {
          txns_->Commit(cv.xid, cv.scn);
          if (have_snap && cv.scn > result.snapshot_scn) {
            auto it = touches.find(cv.xid);
            if (begin_seen.count(cv.xid) != 0) {
              if (it != touches.end()) {
                for (const Touch& t : it->second) {
                  result.row_invalidations +=
                      im_store_->MarkRowInvalid(t.dba, t.slot);
                }
              }
            } else if (cv.im_flag) {
              // Straddler: the transaction began below the replay floor, so
              // its touch set is incomplete. Same fallback as online mining:
              // coarsely invalidate the tenant's IMCUs.
              im_store_->CoarseInvalidateTenant(cv.tenant);
              ++result.coarse_invalidations;
            }
          }
          touches.erase(cv.xid);
          break;
        }
        case CvKind::kTxnAbort:
          txns_->Abort(cv.xid);
          touches.erase(cv.xid);  // Aborted rows are invisible; no mining.
          break;
        case CvKind::kDdlMarker:
          if (hooks_.apply_ddl) hooks_.apply_ddl(cv.ddl, cv.scn);
          break;
        case CvKind::kHeartbeat:
          break;
      }
      if (cv.kind != CvKind::kHeartbeat && cv.scn > max_seen) max_seen = cv.scn;
    }
  }

  result.recovered_scn = max_seen;
  return result;
}

}  // namespace persist
}  // namespace stratus
