#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {
uint64_t SteadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

int64_t Tracer::Add(const Span& s) {
  const uint64_t t0 = SteadyNs();
  std::lock_guard<std::mutex> g(mu_);
  spans_.push_back(s);
  record_ns_ += SteadyNs() - t0;
  return static_cast<int64_t>(spans_.size()) - 1;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> g(mu_);
  return spans_.size();
}

uint64_t Tracer::record_ns() const {
  std::lock_guard<std::mutex> g(mu_);
  return record_ns_;
}

std::map<std::string, uint64_t> Tracer::SelfTimeByLayer() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, uint64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    // Union of the children's intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[s.layer] += dur - std::min(dur, covered);
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path, size_t max_spans) const {
  std::lock_guard<std::mutex> g(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size() && i < max_spans; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%lld,\"key\":%llu}\n",
                 i == 0 ? "" : ",", i, s.name, s.layer,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.key));
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
