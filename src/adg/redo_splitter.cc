#include "adg/redo_splitter.h"

namespace stratus {

RedoSplitter::RedoSplitter(std::unique_ptr<LogMerger> merger,
                           std::vector<ReceivedLog*> outputs)
    : merger_(std::move(merger)), outputs_(std::move(outputs)) {}

RedoSplitter::~RedoSplitter() {
  if (thread_.joinable()) Stop();
}

void RedoSplitter::Start() {
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
}

void RedoSplitter::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  for (ReceivedLog* out : outputs_) out->Close();
}

void RedoSplitter::Run() {
  while (!stop_.load(std::memory_order_acquire)) {
    RedoRecord rec;
    if (!merger_->TryNext(&rec)) {
      if (merger_->Finished()) break;
      merger_->WaitForProgress(/*timeout_us=*/1000);
      continue;
    }
    // Partition the record's CVs by owning instance; every instance receives
    // a record at this SCN (empty = pure watermark advance).
    std::vector<RedoRecord> per_instance(outputs_.size());
    for (size_t i = 0; i < outputs_.size(); ++i) {
      per_instance[i].scn = rec.scn;
      per_instance[i].thread = rec.thread;
    }
    for (ChangeVector& cv : rec.cvs) {
      if (cv.kind == CvKind::kHeartbeat) continue;
      per_instance[InstanceFor(cv.dba)].cvs.push_back(std::move(cv));
    }
    for (size_t i = 0; i < outputs_.size(); ++i) {
      outputs_[i]->Deliver({std::move(per_instance[i])});
    }
    routed_.fetch_add(1, std::memory_order_relaxed);
  }
  for (ReceivedLog* out : outputs_) out->Close();
}

}  // namespace stratus
