// The three standby workloads. Each runs in its own process against a fresh
// cluster; see README.md for what each stresses and which metric should move.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  /// Directory (relative to the working directory) for the standby's data
  /// files and the span dump.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  ///< Sample count behind a percentile or median.
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics, always measured.
  std::vector<Metric> end_to_end;
  /// Per-layer metrics, reported by the traced run.
  std::vector<Metric> per_layer;
  /// False when the open-loop generator fell behind; the figures are then
  /// not reported.
  bool valid = true;
  std::string invalid_reason;
  uint64_t inputs_digest = 0;
  /// False when the generator and watcher threads could not be given a
  /// higher scheduling priority (see PaceThread in workloads.cc).
  bool generator_boosted = true;
  std::vector<std::string> errors;  ///< First few failures, for the log.
};

bool IsWorkload(const std::string& name);
const std::vector<std::string>& WorkloadNames();
RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
