// In-memory spans for the traced run: the benchmark records one span around
// each library call it makes (and spans derived from the library's own
// watermarks and query profiles), keeps them in memory, and writes them out
// when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  const char* layer = "";  ///< db, redo, net, adg, imadg, imcs or persist.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;     ///< Index of the causing span, -1 for a root.
  uint64_t key = 0;        ///< Commit SCN for writes, sequence number for scans.
};

class Tracer {
 public:
  /// Appends `s` and returns its index (for children's `parent`).
  int64_t Add(const Span& s);

  /// Layer -> summed self time in nanoseconds: each span's duration minus the
  /// part of it its children cover.
  std::map<std::string, uint64_t> SelfTimeByLayer() const;
  size_t size() const;
  /// Time spent inside Add(), the recording cost of tracing.
  uint64_t record_ns() const;
  /// Writes the first `max_spans` spans as one JSON array (a long run records
  /// millions). Returns false on I/O failure.
  bool WriteJson(const std::string& path, size_t max_spans) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< Guarded by mu_.
  uint64_t record_ns_ = 0;   ///< Guarded by mu_.
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
