#include "redo/log_merger.h"

namespace stratus {

LogMerger::Gate LogMerger::Inspect() const {
  // The stream whose head record has the smallest SCN is emittable iff every
  // *other* stream either has a head (its head SCN is larger) or has a
  // delivered watermark past the candidate (no smaller record can ever arrive
  // on it) or is closed and drained. With every stream empty the candidate is
  // "any future record", gated by every open stream.
  int best = -1;
  Scn best_scn = kMaxScn;
  for (size_t i = 0; i < streams_.size(); ++i) {
    const Scn head = streams_[i]->PeekScn();
    if (head != kInvalidScn && head < best_scn) {
      best_scn = head;
      best = static_cast<int>(i);
    }
  }
  Gate gate;
  bool safe = best >= 0;
  bool rescan = false;
  for (size_t i = 0; i < streams_.size(); ++i) {
    if (static_cast<int>(i) == best) continue;
    ReceivedLog* s = streams_[i];
    // Closed flag and watermark are read before the queue. Deliver raises
    // the watermark and enqueues under the stream lock, so every record at
    // or below `wm` is visible to PeekScn (or was already emitted): an empty
    // queue then really means nothing below `wm` is pending.
    const bool closed = s->closed();
    const Scn wm = s->DeliveredWatermark();
    const Scn head = s->PeekScn();
    if (head != kInvalidScn) {
      // Arrived after the first pass with a smaller SCN: look again.
      if (head < best_scn) {
        safe = false;
        rescan = true;
      }
      continue;
    }
    if (closed || wm >= best_scn) continue;
    safe = false;
    // Any record that arrives on another stream lies above that stream's
    // watermark, so the lowest-watermark gate must move before anything
    // becomes emittable.
    if (gate.wait < 0 || wm < gate.wait_watermark) {
      gate.wait = static_cast<int>(i);
      gate.wait_watermark = wm;
    }
  }
  if (safe) gate.emit = best;
  if (rescan) gate.wait = -1;
  return gate;
}

bool LogMerger::TryNext(RedoRecord* out) {
  const Gate gate = Inspect();
  if (gate.emit < 0 || !streams_[gate.emit]->Pop(out)) return false;
  ++emitted_;
  return true;
}

void LogMerger::WaitForProgress(int64_t timeout_us) const {
  const Gate gate = Inspect();
  if (gate.emit >= 0 || gate.wait < 0) return;
  streams_[gate.wait]->WaitForProgress(gate.wait_watermark, timeout_us);
}

bool LogMerger::Finished() const {
  for (ReceivedLog* s : streams_) {
    if (!s->closed() || !s->Empty()) return false;
  }
  return true;
}

}  // namespace stratus
