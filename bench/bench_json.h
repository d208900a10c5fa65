// Glue between google-benchmark and the harness's BENCH_*.json emitter.
//
// The micro benches replace BENCHMARK_MAIN() with WCSD_BENCH_JSON_MAIN(suite)
// so every run leaves a machine-readable BENCH_<suite>.json next to the
// console output. `threads` and `backend` are recovered from the benchmark
// name's Arg annotations ("/threads:4", "/backend:1" with 0 = vector,
// 1 = flat). Benchmarks without a /backend: argument name the backend they
// serve through SetBackend (flat, mmap, compressed); the rest record
// threads=1, backend "vector".

#ifndef WCSD_BENCH_BENCH_JSON_H_
#define WCSD_BENCH_BENCH_JSON_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench/harness.h"

namespace wcsd::bench {

/// Extracts the integer following `key:` in a benchmark run name, or `def`.
inline long ArgFromRunName(const std::string& name, const std::string& key,
                           long def) {
  size_t pos = name.find(key + ":");
  if (pos == std::string::npos) return def;
  return std::strtol(name.c_str() + pos + key.size() + 1, nullptr, 10);
}

/// Names the label backend a benchmark without a /backend: argument
/// serves ("flat", "mmap", "compressed"); recorded as the run's label.
/// Like every label, it must be set after the benchmark loop.
inline void SetBackend(benchmark::State& state, const char* backend) {
  state.SetLabel(std::string("backend:") + backend);
}

/// The backend a run served: its /backend: argument, else its SetBackend
/// label, else "vector".
inline std::string BackendOf(const benchmark::BenchmarkReporter::Run& run) {
  const std::string name = run.benchmark_name();
  if (name.find("backend:") != std::string::npos) {
    return ArgFromRunName(name, "backend", 0) == 1 ? "flat" : "vector";
  }
  const std::string prefix = "backend:";
  if (run.report_label.compare(0, prefix.size(), prefix) == 0) {
    return run.report_label.substr(prefix.size());
  }
  return "vector";
}

/// Console reporter that also feeds every run into a BenchJsonWriter.
class JsonExportReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonExportReporter(const std::string& suite) : writer_(suite) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      // Aggregate rows (mean/median/stddev/cv under --benchmark_repetitions)
      // would put non-latency values into median_ns; keep raw runs only.
      if (run.error_occurred || run.run_type == Run::RT_Aggregate) continue;
      BenchRecord record;
      record.name = run.benchmark_name();
      record.median_ns =
          run.GetAdjustedRealTime() *
          benchmark::GetTimeUnitMultiplier(benchmark::kNanosecond) /
          benchmark::GetTimeUnitMultiplier(run.time_unit);
      record.threads =
          static_cast<size_t>(ArgFromRunName(record.name, "threads", 1));
      record.backend = BackendOf(run);
      for (const auto& [name, counter] : run.counters) {
        record.counters.emplace_back(name,
                                     static_cast<double>(counter.value));
      }
      writer_.Record(std::move(record));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  // Framework hook, called once by RunSpecifiedBenchmarks after all runs.
  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    std::string path;
    Status st = writer_.WriteFile(&path);
    if (st.ok()) {
      std::printf("wrote %s (%zu records)\n", path.c_str(),
                  writer_.records().size());
    } else {
      std::fprintf(stderr, "BENCH json: %s\n", st.ToString().c_str());
    }
  }

 private:
  BenchJsonWriter writer_;
};

}  // namespace wcsd::bench

#define WCSD_BENCH_JSON_MAIN(suite)                          \
  int main(int argc, char** argv) {                          \
    benchmark::Initialize(&argc, argv);                      \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) { \
      return 1;                                              \
    }                                                        \
    wcsd::bench::JsonExportReporter reporter(suite);         \
    benchmark::RunSpecifiedBenchmarks(&reporter);            \
    benchmark::Shutdown();                                   \
    return 0;                                                \
  }

#endif  // WCSD_BENCH_BENCH_JSON_H_
