// Standby benchmark binary. Usage:
//   stratus_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--work-dir <dir>] [--source-id <id>]
// Prints a human-readable report, then as its last line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// End-to-end metrics with --trace 0, per-layer metrics with --trace 1.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "adapter.h"
#include "workloads.h"

namespace {

std::string Num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: stratus_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] [--source-id <id>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  cfg.work_dir = ".bench_build/perfbench-run";
  std::string source_id = "unknown";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      cfg.seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      cfg.trace = v == "1";
    } else if (k == "--work-dir") {
      cfg.work_dir = v;
    } else if (k == "--source-id") {
      source_id = v;
    } else {
      return Usage(("unknown argument " + k).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("arguments come in --name value pairs");
  if (!have_workload || !IsWorkload(cfg.workload)) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    return Usage(("--workload must be one of:" + names).c_str());
  }
  if (cfg.seconds < 1) return Usage("--seconds must be at least 1");

  const std::string env = CheckEnvironment();
  if (!env.empty()) return Usage(env.c_str());
  if (ChaosPointsCompiledIn())
    return Usage("library built with chaos crash points; build with CMAKE_BUILD_TYPE=Release");

  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("provenance source=%s build=%s compiler=\"%s\" nproc=%u\n", source_id.c_str(),
              PERFBENCH_BUILD_TYPE, CompilerVersion().c_str(),
              std::thread::hardware_concurrency());
  std::fflush(stdout);

  const RunResult r = RunWorkload(cfg);

  std::printf("inputs_digest=%016llx generator_priority=%s\n",
              static_cast<unsigned long long>(r.inputs_digest),
              r.generator_boosted ? "boosted" : "default");
  for (const std::string& e : r.errors) std::printf("error: %s\n", e.c_str());
  const auto& shown = cfg.trace ? r.per_layer : r.end_to_end;
  for (const Metric& m : cfg.trace ? r.end_to_end : r.per_layer)
    std::printf("  (%s) %-44s %14.3f %s\n", cfg.trace ? "e2e, traced" : "layer",
                m.name.c_str(), m.value, m.unit.c_str());
  for (const Metric& m : shown) {
    if (m.samples > 0) {
      std::printf("  %-52s %14.3f %-7s n=%llu\n", m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("  %-52s %14.3f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  if (cfg.trace) {
    double total = 0;
    for (const Metric& m : r.per_layer)
      if (m.name.rfind("self.", 0) == 0) total += m.value;
    std::printf("per-layer self time (span self time summed over spans):\n");
    for (const Metric& m : r.per_layer) {
      if (m.name.rfind("self.", 0) != 0) continue;
      std::printf("  %-8s %12.1f ms %6.1f %%\n", m.name.substr(5, m.name.size() - 8).c_str(),
                  m.value, total > 0 ? 100.0 * m.value / total : 0.0);
    }
  }
  std::printf("attempted=%llu failed=%llu error_ratio=%s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              Num(r.attempted == 0 ? 0.0
                                   : static_cast<double>(r.failed) /
                                         static_cast<double>(r.attempted))
                  .c_str());
  if (!r.valid) {
    std::fprintf(stderr, "run invalid, not reported: %s\n", r.invalid_reason.c_str());
    return 3;
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < shown.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + shown[i].name + "\": {\"value\": " + Num(shown[i].value) +
            ", \"unit\": \"" + shown[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
