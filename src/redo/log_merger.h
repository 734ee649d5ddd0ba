#ifndef STRATUS_REDO_LOG_MERGER_H_
#define STRATUS_REDO_LOG_MERGER_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "redo/log_shipping.h"

namespace stratus {

/// The standby Log Merger (Section II.A): re-establishes total SCN order over
/// the redo streams shipped from each primary instance. A record with SCN `s`
/// is emitted only once every other stream is known to have no pending record
/// with a smaller SCN (its delivered watermark has passed `s`); idle streams
/// advance via shipper heartbeats.
class LogMerger {
 public:
  explicit LogMerger(std::vector<ReceivedLog*> streams)
      : streams_(std::move(streams)) {}

  LogMerger(const LogMerger&) = delete;
  LogMerger& operator=(const LogMerger&) = delete;

  /// Emits the next record in global SCN order if one is emittable right
  /// now; never blocks. A false return means the merged order is drained up
  /// to the last emitted record (caller checks `Finished()` to tell
  /// end-of-stream from a stall).
  bool TryNext(RedoRecord* out);

  /// Blocks up to `timeout_us` until the stream that gates emission makes
  /// progress: the open, empty stream with the lowest delivered watermark
  /// (no record on any other stream can become emittable before it moves).
  /// Returns at once when a record is already emittable or every stream is
  /// closed and drained.
  void WaitForProgress(int64_t timeout_us) const;

  /// True when every stream is closed and drained.
  bool Finished() const;

  uint64_t emitted_records() const { return emitted_; }

 private:
  /// One pass over the streams: which one may emit now, or which one gates
  /// emission and the watermark it was seen at.
  struct Gate {
    int emit = -1;   ///< Stream whose head is safe to pop, or -1.
    int wait = -1;   ///< Open, empty stream with the lowest watermark below
                     ///< the smallest head, or -1 (nothing to wait for).
    Scn wait_watermark = kInvalidScn;
  };
  Gate Inspect() const;

  std::vector<ReceivedLog*> streams_;
  uint64_t emitted_ = 0;
};

}  // namespace stratus

#endif  // STRATUS_REDO_LOG_MERGER_H_
