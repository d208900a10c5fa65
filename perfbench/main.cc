// perfbench: one workload of the wire-level serving benchmark per run.
//
//   perfbench --workload road-batch|social-zipf-swap|road-cold-sharded
//             --seed N --seconds S --trace 0|1 --workdir DIR
//             [--toy] [--inject wrong,refused,stall]
//
// --trace 0 sets the workload up three times, each on its own graph drawn
// from the seed, and serves each for a third of --seconds; it prints the
// end-to-end metrics (medians over the setups, latency and throughput
// pooled over the phases). --trace 1 sets up once, runs the timed phase
// untraced and then traced, and prints the per-layer metrics. Every answer is checked; the last
// stdout line is one JSON object. Exit code 1 on any wrong answer, 2 on a
// setup or usage failure.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "util/checksum.h"

namespace wcsd::perfbench {
namespace {

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Server- and cache-side counters, read before and after a phase.
struct Counters {
  WcServerStats server;
  std::vector<WcReactorStats> reactors;
  ResultCacheStats cache;
  QueryEngineStats engine;
};

Counters ReadCounters(const Served& s) {
  Counters c;
  c.server = s.server->stats();
  c.reactors = s.server->reactor_stats();
  if (s.cache) c.cache = s.cache->stats();
  if (s.sharded) c.engine = s.sharded->stats();
  return c;
}

/// Closed-loop throughput as the median over consecutive 50 ms windows of
/// a phase. Each answered frame is shared out over the windows its request
/// spanned, in proportion to the time it spent in each, so a window counts
/// fractions of frames rather than whole ones. A burst of noise from outside
/// the process then moves only the windows it falls in. Empty when the phase
/// has no whole window.
std::vector<double> WindowQps(const LoadReport& load, size_t frame_queries) {
  constexpr int64_t kWindowNs = 50'000'000;
  if (load.latency.empty()) return {};
  int64_t start = load.latency.front().at_ns, end = start;
  for (const LatencySample& s : load.latency) {
    start = std::min(start, s.at_ns);
    end = std::max(end, s.at_ns + static_cast<int64_t>(s.us * 1e3));
  }
  const int64_t windows = (end - start) / kWindowNs;
  std::vector<double> qps(static_cast<size_t>(windows), 0);
  for (const LatencySample& s : load.latency) {
    const int64_t t0 = s.at_ns - start;
    const int64_t t1 = t0 + std::max<int64_t>(1, static_cast<int64_t>(s.us * 1e3));
    for (int64_t w = t0 / kWindowNs; w * kWindowNs < t1 && w < windows; ++w) {
      const int64_t lo = std::max(t0, w * kWindowNs);
      const int64_t hi = std::min(t1, (w + 1) * kWindowNs);
      qps[w] += static_cast<double>(hi - lo) / static_cast<double>(t1 - t0);
    }
  }
  for (double& q : qps) q *= static_cast<double>(frame_queries) * 1e9 / kWindowNs;
  return qps;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--workload") {
      opt->workload = value();
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt->trace = value() == "1";
    } else if (arg == "--workdir") {
      opt->workdir = value();
    } else if (arg == "--toy") {
      opt->toy = true;
    } else if (arg == "--inject") {
      std::string what = value();
      opt->inject.wrong_answer = what.find("wrong") != std::string::npos;
      opt->inject.refused = what.find("refused") != std::string::npos;
      if (what.find("stall") != std::string::npos) opt->inject.stall_ms = 50;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  return !opt->workload.empty() && !opt->workdir.empty() &&
         opt->seconds > 0;
}

void PrintMetric(const Metric& m, const char* note = "") {
  std::printf("metric %-40s %16.6f %-6s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note);
}

int Run(const Options& opt) {
  const WorkloadSpec spec = MakeSpec(opt.workload, opt.toy);
  if (spec.name.empty()) {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(opt.workdir);
  Tracer tracer;

  // Untraced: three setups, each on its own graph draw and each followed by
  // a third of the timed phase, so every end-to-end figure spans three
  // graphs of the family. Traced: one setup, the phase untraced, then
  // traced.
  const size_t setups = opt.trace ? 1 : 3;
  const size_t phases = opt.trace ? 2 : 1;
  const double phase_s = opt.trace ? opt.seconds : opt.seconds / setups;
  const OpenShape shape = MakeOpenShape(spec, phase_s, opt.trace);
  const size_t generations = spec.open_loop ? 1 + shape.swaps * phases : 1;

  // Inputs come from the seed alone.
  std::vector<BatchQueryInput> queries;
  {
    QualityGraph g = MakeGraph(spec, opt.seed);
    const size_t count = spec.open_loop ? shape.total_queries
                                        : spec.frame_count * spec.frame_queries;
    queries = MakeQueries(spec, g, count, opt.seed);
  }

  ReplayReport replay;
  std::vector<SetupReport> setup_reports;
  std::vector<LoadReport> loads;
  std::vector<double> rss;
  Counters before, after;
  size_t decode_bytes = 0;
  uint32_t crc = 0;
  size_t answers = 0, dijkstra_checked = 0, dijkstra_mismatches = 0;
  for (size_t rep = 0; rep < setups; ++rep) {
    Served served;
    Oracle oracle;
    // Every generation answers the reference and swap steps (the first
    // queries); a ladder after them runs on the phase's last generation.
    oracle.prefix = spec.open_loop
                        ? shape.reference_queries + shape.swap_queries
                        : queries.size();
    oracle.whole.assign(generations, false);
    for (size_t p = 1; p <= phases; ++p) {
      oracle.whole[p * shape.swaps] = shape.ladder || !spec.open_loop;
    }
    tracer.set_enabled(opt.trace);
    setup_reports.push_back(RunSetup(spec, opt, DrawSeed(opt.seed, rep),
                                     generations, queries, &served, &oracle,
                                     &replay, &tracer));
    tracer.set_enabled(false);
    if (!served.server) {
      std::fprintf(stderr, "setup %zu failed\n", rep);
      return 2;
    }
    for (size_t p = 0; p < phases; ++p) {
      const bool last = rep + 1 == setups && p + 1 == phases;
      before = ReadCounters(served);
      tracer.set_enabled(opt.trace && p + 1 == phases);
      const Injection inject = last ? opt.inject : Injection();
      const KeepCpusAwake awake;
      loads.push_back(spec.open_loop
                          ? RunOpenLoop(spec, &served, queries, oracle, shape,
                                        p * shape.swaps, inject, &tracer)
                          : RunClosedLoop(spec, &served, queries, oracle,
                                          phase_s, inject, &tracer));
      tracer.set_enabled(false);
      after = ReadCounters(served);
    }
    // Every reply was checked equal to these tables.
    for (const auto& table : oracle.expected) {
      for (Distance d : table) {
        if (d == Oracle::kNotComputed) continue;
        crc = Crc32c(&d, sizeof(d), crc);
        ++answers;
      }
    }
    dijkstra_checked += oracle.dijkstra_checked;
    dijkstra_mismatches += oracle.dijkstra_mismatches;
    // Resident memory with the server still up; the answer tables are
    // released first.
    oracle = Oracle();
    malloc_trim(0);
    rss.push_back(RssMiB());
    if (served.sharded && served.sharded->decode_cache() != nullptr) {
      decode_bytes = served.sharded->decode_cache()->MemoryBytes();
    }
    served.server->Stop();
    for (const std::string& f : served.files) std::remove(f.c_str());
  }

  uint64_t attempted = 0, errors = 0, wrong = 0;
  for (const LoadReport& l : loads) {
    attempted += l.attempted;
    errors += l.errors;
    wrong += l.wrong;
  }
  const bool correct =
      wrong == 0 && dijkstra_mismatches == 0 && dijkstra_checked > 0;

  // End-to-end figures pool the untraced phases; per-layer ones come from
  // the traced phase.
  std::vector<LatencySample> samples;
  std::vector<double> window_qps;
  double queries_done = 0, seconds_done = 0;
  for (size_t i = 0; i < loads.size(); ++i) {
    if (opt.trace && i + 1 != loads.size()) continue;
    samples.insert(samples.end(), loads[i].latency.begin(),
                   loads[i].latency.end());
    queries_done += static_cast<double>(loads[i].queries);
    seconds_done += loads[i].seconds;
    if (!spec.open_loop) {
      std::vector<double> w = WindowQps(loads[i], spec.frame_queries);
      window_qps.insert(window_qps.end(), w.begin(), w.end());
    }
  }
  const LatencySummary lat = SummarizeLatency(std::move(samples));
  // The open loop offers a fixed rate, so its qps is the answered rate.
  const double qps = !window_qps.empty() ? Median(window_qps)
                     : seconds_done > 0  ? queries_done / seconds_done
                                         : 0;
  const LoadReport& load = loads.back();

  std::printf("workload %s seed %llu seconds %.1f trace %d toy %d\n",
              spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.toy ? 1 : 0);
  for (const LoadReport& l : loads) {
    for (const std::string& note : l.notes) std::printf("step %s\n", note.c_str());
  }
  std::printf("answers_crc %08x over %zu expected answers (%zu setups x %zu "
              "generations)\n",
              crc, answers, setups, generations);
  std::printf("dijkstra_checked %zu mismatches %zu\n", dijkstra_checked,
              dijkstra_mismatches);
  std::printf("requests attempted %llu errors %llu wrong %llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(wrong));
  std::printf("latency samples %zu windows %zu beyond_p99 %zu (smallest "
              "window) p50_all_us %.1f p99_all_us %.1f swap_samples %zu\n",
              lat.samples, lat.windows, lat.beyond_p99, lat.p50_all_us,
              lat.p99_all_us,
              load.swap_latency_us.size());
  std::printf("window_p99_us");
  for (size_t w = 0; w < lat.window_p99_us.size(); ++w) {
    if (w == 12) {
      std::printf(" ...");
      break;
    }
    std::printf(" %.1f", lat.window_p99_us[w]);
  }
  std::printf("\n");
  for (size_t i = 0; i < setup_reports.size(); ++i) {
    const SetupReport& r = setup_reports[i];
    std::printf("setup %zu setup_s %.3f build_s %.3f write_s %.3f "
                "open_ms %.2f entries %llu index_bytes %llu rss_mb %.1f\n",
                i, r.setup_s, r.build_s, r.write_s, r.open_ms,
                static_cast<unsigned long long>(r.build_entries),
                static_cast<unsigned long long>(r.index_bytes), rss[i]);
  }
  if (!window_qps.empty()) {
    std::printf("qps windows %zu (50 ms) over-phase qps %.0f\n",
                window_qps.size(),
                seconds_done > 0 ? queries_done / seconds_done : 0);
  }
  // Spread of the windows behind the medians (p10 p25 p50 p75 p90).
  auto print_quantiles = [](const char* what, std::vector<double> v) {
    if (v.empty()) return;
    std::printf("%s", what);
    for (double f : {0.1, 0.25, 0.5, 0.75, 0.9}) {
      std::printf(" %.1f", Quantile(&v, f));
    }
    std::printf("\n");
  };
  print_quantiles("qps_windows", window_qps);
  print_quantiles("p50_windows_us", lat.window_p50_us);
  if (lat.beyond_p99 < 10) {
    std::printf("warning: fewer than 10 latency samples beyond p99\n");
  }

  std::vector<double> setup_s, build_s, index_bytes;
  for (const SetupReport& r : setup_reports) {
    setup_s.push_back(r.setup_s);
    build_s.push_back(r.build_s);
    index_bytes.push_back(static_cast<double>(r.index_bytes));
  }
  std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s), "s"},
      {"build_s", Median(build_s), "s"},
      {"index_bytes", Median(index_bytes), "B"},
      {"rss_mb", Median(rss), "MiB"},
      {"qps", qps, "q/s"},
      {"p50_us", lat.p50_us, "us"},
  };
  // p99 is printed on every run but not gated: its run-to-run spread on a
  // shared machine is wider than any bound BENCHMARK.json may set.
  const Metric p99 = {"p99_us", lat.p99_us, "us"};

  std::vector<Metric> layer;
  if (opt.trace) {
    std::vector<SpanTotals> totals = tracer.Summarize();
    auto find = [&](const char* name) -> const SpanTotals* {
      for (const SpanTotals& t : totals) {
        if (t.name == name) return &t;
      }
      return nullptr;
    };
    auto median_us = [&](const char* name) {
      const SpanTotals* t = find(name);
      return t != nullptr ? t->median_us : 0.0;
    };
    const SpanTotals* client = find(kClientRequestSpan);
    const double residual =
        client != nullptr ? client->median_self_us_with_children : 0;
    const double batch_us = median_us("serve.batch");
    const double pool_eff =
        batch_us > 0 ? replay.merge_ns * spec.frame_queries /
                           (batch_us * 1e3 * spec.engine_threads)
                     : 0;
    const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
    const double lookups =
        hits + static_cast<double>(after.cache.misses - before.cache.misses);
    const double dhits =
        static_cast<double>(after.engine.decode_hits - before.engine.decode_hits);
    const double dlookups =
        dhits + static_cast<double>(after.engine.decode_misses -
                                    before.engine.decode_misses);
    std::vector<double> post_hit, inval_ms, dropped, open_ms, swap_us, swap_s;
    for (const SwapRecord& s : load.swaps) {
      post_hit.push_back(s.post_hit_rate);
      inval_ms.push_back(s.invalidate_ms);
      dropped.push_back(static_cast<double>(s.dropped));
      open_ms.push_back(s.open_ms);
      swap_us.push_back(s.swap_us);
      swap_s.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e9);
    }
    std::vector<double> swap_lat = load.swap_latency_us;
    const double swap_p99 =
        swap_lat.size() >= 1000 ? Quantile(&swap_lat, 0.99) : 0;
    double frames_max = 0, frames_sum = 0;
    for (size_t r = 0; r < after.reactors.size(); ++r) {
      const double f = static_cast<double>(after.reactors[r].frames_served -
                                           before.reactors[r].frames_served);
      frames_max = std::max(frames_max, f);
      frames_sum += f;
    }
    const double p50_untraced =
        SummarizeLatency(loads.front().latency).p50_us;
    layer = {
        {"core.build_entries", static_cast<double>(setup_reports.back().build_entries), "count"},
        {"core.build_pops", static_cast<double>(setup_reports.back().build_pops), "count"},
        {"labeling.merge_ns", replay.merge_ns, "ns"},
        {"labeling.compressed_merge_ns", replay.compressed_merge_ns, "ns"},
        {"labeling.entries_per_query", replay.entries_per_query, "count"},
        {"labeling.snapshot_write_s", setup_reports.back().write_s, "s"},
        {"labeling.snapshot_open_ms", setup_reports.back().open_ms, "ms"},
        {"serve.engine_single_ns", median_us("serve.query") * 1e3, "ns"},
        {"serve.engine_batch_us", batch_us, "us"},
        {"serve.pool_efficiency", pool_eff, "ratio"},
        {"serve.result_cache.hit_rate", lookups > 0 ? hits / lookups : 0, "ratio"},
        {"serve.result_cache.evictions",
         static_cast<double>(after.cache.evictions - before.cache.evictions), "count"},
        {"serve.result_cache.admission_rejects",
         static_cast<double>(after.cache.admission_rejects -
                             before.cache.admission_rejects), "count"},
        {"serve.result_cache.post_swap_hit_rate", Mean(post_hit), "ratio"},
        {"serve.result_cache.invalidate_ms", Mean(inval_ms), "ms"},
        {"serve.result_cache.dropped_per_swap", Mean(dropped), "count"},
        {"serve.decode_cache.hit_rate", dlookups > 0 ? dhits / dlookups : 0, "ratio"},
        {"serve.decode_cache.cold_pageins",
         static_cast<double>(after.engine.cold_pageins - before.engine.cold_pageins),
         "count"},
        {"serve.decode_cache.bytes", static_cast<double>(decode_bytes), "B"},
        {"net.wire.encode_ns", replay.encode_ns, "ns"},
        {"net.wire.decode_ns", replay.decode_ns, "ns"},
        {"net.wire.bytes_per_query", replay.bytes_per_query, "B"},
        {"net.server.residual_us", residual, "us"},
        {"net.server.frames_served",
         static_cast<double>(after.server.frames_served - before.server.frames_served),
         "count"},
        {"net.server.overload_rejections",
         static_cast<double>(after.server.overload_rejections -
                             before.server.overload_rejections), "count"},
        {"net.server.deadline_rejections",
         static_cast<double>(after.server.deadline_rejections -
                             before.server.deadline_rejections), "count"},
        {"net.server.reactor_skew",
         frames_sum > 0 ? frames_max / (frames_sum / after.reactors.size()) : 0,
         "ratio"},
        {"net.client.gen_lag_p99_us", load.gen_lag_p99_us, "us"},
        {"net.client.backlog_max", static_cast<double>(load.backlog_max), "count"},
        {"net.swap.open_ms", Mean(open_ms), "ms"},
        {"net.swap.swap_us", Mean(swap_us), "us"},
        {"slo_qps", load.slo_qps, "q/s"},
        {"error_rate",
         attempted > 0 ? static_cast<double>(errors + wrong) / attempted : 0,
         "ratio"},
        {"swap_s", Mean(swap_s), "s"},
        {"swap_p99_us", swap_p99, "us"},
        p99,
        {"trace.overhead_pct",
         p50_untraced > 0 ? (lat.p50_us / p50_untraced - 1) * 100 : 0, "%"},
    };
    for (const SpanTotals& t : totals) {
      std::printf("span %-34s count %9llu total_us %14.1f self_us %14.1f "
                  "median_us %10.2f\n",
                  t.name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_us, t.self_us, t.median_us);
    }
    const std::string csv = opt.workdir + "/trace-" + spec.name + ".csv";
    if (!tracer.WriteCsv(csv)) {
      std::fprintf(stderr, "could not write %s\n", csv.c_str());
    }
    std::printf("trace %zu spans written to %s\n", tracer.NumSpans(),
                csv.c_str());
  }

  std::vector<Metric> printed = e2e;
  if (!opt.trace) printed.push_back(p99);
  for (const Metric& m : printed) {
    char note[64] = "";
    if (m.name == "p50_us" || m.name == "p99_us") {
      std::snprintf(note, sizeof(note), " (n=%zu, beyond p99=%zu)",
                    lat.samples, lat.beyond_p99);
    }
    PrintMetric(m, note);
  }
  for (const Metric& m : layer) PrintMetric(m);
  const std::vector<Metric>& reported = opt.trace ? layer : e2e;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(errors + wrong));
  for (size_t i = 0; i < reported.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", reported[i].name.c_str(),
                std::isfinite(reported[i].value) ? reported[i].value : 0.0,
                reported[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wcsd::perfbench

int main(int argc, char** argv) {
  wcsd::perfbench::Options opt;
  if (!wcsd::perfbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--toy] [--inject LIST]\n");
    return 2;
  }
  return wcsd::perfbench::Run(opt);
}
