// Google-benchmark microbenchmarks for the serving subsystem: snapshot
// mmap-load latency vs the full deserializing Load — at two index sizes,
// to show mmap load time is independent of label count — plus QueryEngine
// batch throughput at 1/2/4/8 threads, the sharded engine over even and
// label-mass-planned shard sets (with the planned-vs-even byte skew as
// counters), per-shard query throughput over the planned set, and the
// compressed-backend latency-penalty sweep across decode-cache budgets.
// Emits BENCH_micro_serve.json for cross-PR tracking.

#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_json.h"
#include "bench/datasets.h"
#include "bench/workload.h"
#include "core/batch.h"
#include "core/dynamic_wc_index.h"
#include "core/path_index.h"
#include "core/wc_index.h"
#include "labeling/delta.h"
#include "labeling/shard_manifest.h"
#include "labeling/shard_plan.h"
#include "labeling/snapshot.h"
#include "net/server.h"
#include "net/swap_service.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "util/random.h"

namespace wcsd {
namespace {

using bench::SetBackend;

constexpr int kBenchShards = 4;

// Two sizes of the same social family; "size:1" has ~4x the label entries
// of "size:0". Files are written once into /tmp and reused.
struct ServeFixture {
  std::string snap_path;
  std::string csnap_path;  // same labels, v3 compressed sections
  std::vector<std::string> shard_paths;  // even vertex-range shards
  std::string manifest_path;             // label-mass-planned shard set
  ShardPlan plan;                        // the planned tiling
  double planned_skew = 0.0;             // max/mean bytes, planned split
  double even_skew = 0.0;                // max/mean bytes, even split
  size_t num_vertices = 0;
  size_t total_entries = 0;
};

const ServeFixture& FixtureForSize(int size) {
  static const std::array<ServeFixture, 2> fixtures = [] {
    std::array<ServeFixture, 2> out;
    const double scales[2] = {0.12, 0.25};
    for (int i = 0; i < 2; ++i) {
      Dataset d = MakeSocialDataset("EU", scales[i]);
      WcIndex index = WcIndex::Build(d.graph, WcIndexOptions::Plus());
      index.Finalize();
      ServeFixture f;
      f.num_vertices = index.NumVertices();
      f.total_entries = index.TotalEntries();
      std::string stem = "/tmp/bench_serve_" + std::to_string(i);
      f.snap_path = stem + ".wcsnap";
      f.csnap_path = stem + "_c.wcsnap";
      SnapshotWriteOptions compress_options;
      compress_options.compress = true;
      if (!index.SaveSnapshot(f.snap_path).ok() ||
          !index.SaveSnapshot(f.csnap_path, compress_options).ok()) {
        std::fprintf(stderr, "bench fixture write failed\n");
        std::abort();
      }
      for (int k = 0; k < kBenchShards; ++k) {
        std::string path = stem + ".shard" + std::to_string(k);
        uint64_t n = f.num_vertices;
        if (!WriteSnapshotShard(path, index.flat_labels(),
                                n * k / kBenchShards,
                                n * (k + 1) / kBenchShards, n)
                 .ok()) {
          std::fprintf(stderr, "bench shard write failed\n");
          std::abort();
        }
        f.shard_paths.push_back(path);
      }
      ShardPlanOptions plan_options;
      plan_options.num_shards = kBenchShards;
      auto planned = PlanShards(index.flat_labels(), plan_options);
      plan_options.even_vertex = true;
      auto even = PlanShards(index.flat_labels(), plan_options);
      if (!planned.ok() || !even.ok()) {
        std::fprintf(stderr, "bench shard planning failed\n");
        std::abort();
      }
      f.plan = planned.value();
      f.planned_skew = planned.value().ByteSkew();
      f.even_skew = even.value().ByteSkew();
      auto written = WriteShardSet(stem + "_planned", index.flat_labels(),
                                   planned.value());
      if (!written.ok()) {
        std::fprintf(stderr, "bench shard-set write failed\n");
        std::abort();
      }
      f.manifest_path = written.value().manifest_path;
      out[i] = std::move(f);
    }
    return out;
  }();
  return fixtures[static_cast<size_t>(size)];
}

const std::vector<BatchQueryInput>& ServeWorkload() {
  static const std::vector<BatchQueryInput> workload = [] {
    Dataset d = MakeSocialDataset("EU", 0.25);
    std::vector<BatchQueryInput> out;
    for (const WcsdQuery& q : MakeQueryWorkload(d.graph, 8192, 7)) {
      out.push_back({q.s, q.t, q.w});
    }
    return out;
  }();
  return workload;
}

// Zero-copy mmap load: header + O(vertices) validation only. Comparing
// size:0 to size:1 shows the label-count independence.
void BM_LoadMmap(benchmark::State& state) {
  const ServeFixture& f = FixtureForSize(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto loaded = WcIndex::LoadMmap(f.snap_path);
    if (!loaded.ok()) state.SkipWithError("mmap load failed");
    benchmark::DoNotOptimize(loaded.value().finalized());
  }
  state.counters["entries"] = static_cast<double>(f.total_entries);
  SetBackend(state, "mmap");
}
BENCHMARK(BM_LoadMmap)->Arg(0)->Arg(1)->ArgNames({"size"})
    ->Unit(benchmark::kMicrosecond);

// Batch throughput through the engine at 1/2/4/8 threads, serving the
// mmap-loaded snapshot.
void BM_ServeBatchThroughput(benchmark::State& state) {
  const ServeFixture& f = FixtureForSize(1);
  QueryEngineOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  static std::unique_ptr<QueryEngine> engine;
  static size_t engine_threads = 0;
  if (!engine || engine_threads != options.num_threads) {
    auto opened = QueryEngine::Open(f.snap_path, options);
    if (!opened.ok()) {
      state.SkipWithError("engine open failed");
      return;
    }
    engine = std::make_unique<QueryEngine>(std::move(opened).value());
    engine_threads = options.num_threads;
  }
  const auto& workload = ServeWorkload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Batch(workload));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(workload.size()));
  SetBackend(state, "mmap");
}
BENCHMARK(BM_ServeBatchThroughput)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->ArgNames({"threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Same workload through four vertex-range shards.
void BM_ShardedBatchThroughput(benchmark::State& state) {
  const ServeFixture& f = FixtureForSize(1);
  QueryEngineOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  static std::unique_ptr<QueryEngine> engine;
  static size_t engine_threads = 0;
  if (!engine || engine_threads != options.num_threads) {
    auto opened = QueryEngine::OpenMmap(f.shard_paths, options);
    if (!opened.ok()) {
      state.SkipWithError("sharded open failed");
      return;
    }
    engine =
        std::make_unique<QueryEngine>(std::move(opened).value());
    engine_threads = options.num_threads;
  }
  const auto& workload = ServeWorkload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Batch(workload));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(workload.size()));
  SetBackend(state, "mmap");
}
BENCHMARK(BM_ShardedBatchThroughput)
    ->Arg(1)->Arg(4)
    ->ArgNames({"threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Label-mass-balanced shard planning over the hub-heavy social index.
// The planned-vs-even byte skew (max/mean shard bytes; 1.0 = perfect)
// lands in BENCH_micro_serve.json as counters.
void BM_ShardPlan(benchmark::State& state) {
  const ServeFixture& f = FixtureForSize(1);
  auto loaded = WcIndex::LoadMmap(f.snap_path);
  if (!loaded.ok()) {
    state.SkipWithError("mmap load failed");
    return;
  }
  ShardPlanOptions options;
  options.num_shards = kBenchShards;
  for (auto _ : state) {
    auto plan = PlanShards(loaded.value().flat_labels(), options);
    if (!plan.ok()) {
      state.SkipWithError("planning failed");
      return;
    }
    benchmark::DoNotOptimize(plan.value().total_bytes);
  }
  state.counters["planned_skew"] = f.planned_skew;
  state.counters["even_skew"] = f.even_skew;
  state.counters["shards"] = kBenchShards;
  SetBackend(state, "mmap");
}
BENCHMARK(BM_ShardPlan)->Unit(benchmark::kMicrosecond);

// Opening a whole shard set through its manifest (parse + map + header
// cross-checks; no payload reads).
void BM_ManifestOpen(benchmark::State& state) {
  const ServeFixture& f = FixtureForSize(1);
  QueryEngineOptions options;
  options.num_threads = 1;
  for (auto _ : state) {
    auto engine = QueryEngine::OpenManifest(f.manifest_path, options);
    if (!engine.ok()) {
      state.SkipWithError("manifest open failed");
      return;
    }
    benchmark::DoNotOptimize(engine.value().NumVertices());
  }
  state.counters["shards"] = kBenchShards;
  SetBackend(state, "mmap");
}
BENCHMARK(BM_ManifestOpen)->Unit(benchmark::kMicrosecond);

// The mixed workload through the planned (label-mass-balanced) shard set;
// compare against BM_ShardedBatchThroughput's even split.
void BM_PlannedShardedBatchThroughput(benchmark::State& state) {
  const ServeFixture& f = FixtureForSize(1);
  QueryEngineOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  static std::unique_ptr<QueryEngine> engine;
  static size_t engine_threads = 0;
  if (!engine || engine_threads != options.num_threads) {
    auto opened = QueryEngine::OpenManifest(f.manifest_path, options);
    if (!opened.ok()) {
      state.SkipWithError("manifest open failed");
      return;
    }
    engine =
        std::make_unique<QueryEngine>(std::move(opened).value());
    engine_threads = options.num_threads;
  }
  const auto& workload = ServeWorkload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Batch(workload));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(workload.size()));
  state.counters["planned_skew"] = f.planned_skew;
  SetBackend(state, "mmap");
}
BENCHMARK(BM_PlannedShardedBatchThroughput)
    ->Arg(1)->Arg(4)
    ->ArgNames({"threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Per-shard query throughput over the planned set: both endpoints of every
// query land inside shard k, so the run measures one shard's locality.
// With mass-balanced shards these runs should look alike; shard_bytes
// records each shard's label mass alongside.
void BM_ShardLocalThroughput(benchmark::State& state) {
  const ServeFixture& f = FixtureForSize(1);
  const int shard = static_cast<int>(state.range(0));
  QueryEngineOptions options;
  options.num_threads = 1;
  static std::unique_ptr<QueryEngine> engine;
  if (!engine) {
    auto opened = QueryEngine::OpenManifest(f.manifest_path, options);
    if (!opened.ok()) {
      state.SkipWithError("manifest open failed");
      return;
    }
    engine =
        std::make_unique<QueryEngine>(std::move(opened).value());
  }
  if (static_cast<size_t>(shard) >= f.plan.shards.size()) {
    state.SkipWithError("shard index out of range");
    return;
  }
  const PlannedShard& range = f.plan.shards[static_cast<size_t>(shard)];
  std::vector<BatchQueryInput> workload;
  Rng rng(0x5eedu + static_cast<uint64_t>(shard));
  const uint64_t span = range.num_vertices();
  for (size_t i = 0; i < 8192; ++i) {
    workload.push_back(
        {static_cast<Vertex>(range.begin + rng.NextBounded(span)),
         static_cast<Vertex>(range.begin + rng.NextBounded(span)),
         static_cast<Quality>(rng.NextInRange(1, 7))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Batch(workload));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(workload.size()));
  state.counters["shard_bytes"] = static_cast<double>(range.bytes);
  SetBackend(state, "mmap");
}
BENCHMARK(BM_ShardLocalThroughput)
    ->DenseRange(0, kBenchShards - 1)
    ->ArgNames({"shard"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------- compressed-backend benchmarks

// The latency penalty of serving delta/varint-compressed labels, swept
// across decode-cache budgets. compressed:0 is the uncompressed baseline
// (the snapshot the writer picks: sliced on this fixture);
// compressed:1 cache_mb:0 streams every touched hub group per query (the
// worst case); growing budgets keep hot vertices' level slices decoded
// and claw the penalty back. The engine is opened fresh per run so the
// compression_ratio / decode_cache_hit_rate / cold_pageins counters in
// BENCH_micro_serve.json describe exactly the timed workload (the tier-1
// bench-smoke asserts their presence and sanity).
void BM_CompressedServeThroughput(benchmark::State& state) {
  const ServeFixture& f = FixtureForSize(1);
  const bool compressed = state.range(0) != 0;
  const int cache_mb = static_cast<int>(state.range(1));
  QueryEngineOptions options;
  options.num_threads = 1;
  options.decode_cache_bytes = static_cast<size_t>(cache_mb) << 20;
  auto opened =
      QueryEngine::Open(compressed ? f.csnap_path : f.snap_path, options);
  if (!opened.ok()) {
    state.SkipWithError("engine open failed");
    return;
  }
  QueryEngine engine = std::move(opened).value();
  const auto& workload = ServeWorkload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Batch(workload));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(workload.size()));
  QueryEngineStats stats = engine.stats();
  state.counters["compression_ratio"] =
      stats.label_bytes > 0
          ? static_cast<double>(stats.uncompressed_label_bytes) /
                static_cast<double>(stats.label_bytes)
          : 1.0;
  const double decode_lookups =
      static_cast<double>(stats.decode_hits + stats.decode_misses);
  state.counters["decode_cache_hit_rate"] =
      decode_lookups > 0
          ? static_cast<double>(stats.decode_hits) / decode_lookups
          : 0.0;
  state.counters["cold_pageins"] = static_cast<double>(stats.cold_pageins);
  SetBackend(state, compressed ? "compressed" : "mmap");
}
BENCHMARK(BM_CompressedServeThroughput)
    // {compressed, decode cache MiB}: uncompressed baseline, then the
    // compressed penalty sweep from uncached decode to a budget that holds
    // the whole working set.
    ->Args({0, 0})
    ->Args({1, 0})->Args({1, 1})->Args({1, 8})->Args({1, 64})
    ->ArgNames({"compressed", "cache_mb"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------- query-family benchmarks

// Top-k closest through the engine serving the mmap snapshot. The hoisted
// source-side scan is paid once per request, so cost scales with the
// candidate count, not k; the sweep shows both axes.
void BM_ServeTopKClosest(benchmark::State& state) {
  const ServeFixture& f = FixtureForSize(1);
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t num_candidates = static_cast<size_t>(state.range(1));
  QueryEngineOptions options;
  options.num_threads = 1;
  static std::unique_ptr<QueryEngine> engine;
  if (!engine) {
    auto opened = QueryEngine::Open(f.snap_path, options);
    if (!opened.ok()) {
      state.SkipWithError("engine open failed");
      return;
    }
    engine = std::make_unique<QueryEngine>(std::move(opened).value());
  }
  Rng rng(0x70b7u);
  const size_t n = f.num_vertices;
  std::vector<Vertex> candidates;
  for (size_t i = 0; i < num_candidates; ++i) {
    candidates.push_back(static_cast<Vertex>(rng.NextBounded(n)));
  }
  std::vector<Vertex> sources;
  for (size_t i = 0; i < 64; ++i) {
    sources.push_back(static_cast<Vertex>(rng.NextBounded(n)));
  }
  size_t si = 0;
  std::vector<RankedCandidate> ranked;
  for (auto _ : state) {
    engine->TopKEx(sources[si++ % sources.size()], candidates, 3.0f, k,
                   &ranked);
    benchmark::DoNotOptimize(ranked);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(num_candidates));
  SetBackend(state, "mmap");
}
BENCHMARK(BM_ServeTopKClosest)
    ->Args({8, 64})->Args({8, 512})->Args({64, 512})
    ->ArgNames({"k", "candidates"})
    ->Unit(benchmark::kMicrosecond);

// Quality profile via the interval kernel: a dense threshold sweep costs
// one label merge per DISTINCT certified interval, so 64 thresholds
// should not cost ~10x what 6 do. merges_per_query lands as a counter.
void BM_QualityProfile(benchmark::State& state) {
  const ServeFixture& f = FixtureForSize(1);
  const size_t num_thresholds = static_cast<size_t>(state.range(0));
  static std::unique_ptr<WcIndex> index;
  if (!index) {
    auto loaded = WcIndex::LoadMmap(f.snap_path);
    if (!loaded.ok()) {
      state.SkipWithError("mmap load failed");
      return;
    }
    index = std::make_unique<WcIndex>(std::move(loaded).value());
  }
  std::vector<Quality> thresholds;
  for (size_t j = 0; j < num_thresholds; ++j) {
    thresholds.push_back(1.0f + 5.0f * static_cast<float>(j) /
                                    static_cast<float>(num_thresholds));
  }
  Rng rng(0x9f0f11eu);
  const size_t n = f.num_vertices;
  size_t merges = 0;
  size_t calls = 0;
  for (auto _ : state) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    size_t call_merges = 0;
    benchmark::DoNotOptimize(
        QualityProfile(*index, s, t, thresholds, &call_merges));
    merges += call_merges;
    ++calls;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(num_thresholds));
  state.counters["merges_per_query"] =
      calls > 0 ? static_cast<double>(merges) / static_cast<double>(calls)
                : 0.0;
  SetBackend(state, "mmap");
}
BENCHMARK(BM_QualityProfile)
    ->Arg(6)->Arg(64)
    ->ArgNames({"thresholds"})
    ->Unit(benchmark::kMicrosecond);

// Constrained path reconstruction, with and without §V parent quads. The
// parent unwind is one table probe per hop; the fallback re-queries
// neighbors at every step. parent_steps / fallback_steps land as
// counters so the split is visible in BENCH_micro_serve.json.
void BM_ConstrainedPath(benchmark::State& state) {
  const bool with_parents = state.range(0) != 0;
  struct PathFixture {
    QualityGraph graph;
    WcIndex index;
  };
  static std::array<std::unique_ptr<PathFixture>, 2> fixtures;
  auto& fx = fixtures[with_parents ? 1 : 0];
  if (!fx) {
    Dataset d = MakeSocialDataset("EU", 0.12);
    WcIndexOptions options = WcIndexOptions::Plus();
    options.record_parents = with_parents;
    WcIndex built = WcIndex::Build(d.graph, options);
    built.Finalize();
    fx = std::make_unique<PathFixture>(
        PathFixture{std::move(d.graph), std::move(built)});
  }
  Rng rng(0xa7b5u);
  const size_t n = fx->graph.NumVertices();
  PathQueryStats stats;
  int64_t hops = 0;
  for (auto _ : state) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    auto path = QueryConstrainedPath(fx->index, fx->graph, s, t, 3.0f,
                                     &stats);
    hops += static_cast<int64_t>(path.empty() ? 0 : path.size() - 1);
    benchmark::DoNotOptimize(path);
  }
  state.SetItemsProcessed(hops);
  state.counters["parent_steps"] = static_cast<double>(stats.parent_steps);
  state.counters["fallback_steps"] =
      static_cast<double>(stats.fallback_steps);
  SetBackend(state, "flat");
}
BENCHMARK(BM_ConstrainedPath)
    ->Arg(0)->Arg(1)
    ->ArgNames({"parents"})
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------- result-cache benchmarks

/// Zipf workloads keyed by (theta x100, vary_w), built once per config
/// from the same social graph the fixture indexes. vary_w=0 repeats a hot
/// pair at its one fixed constraint (exact-w repeats: any (s,t,w) memo
/// could serve them); vary_w=1 re-rolls the constraint per draw, so
/// repeats only hit through the dominance interval.
const std::vector<BatchQueryInput>& ZipfWorkload(int theta_x100,
                                                 bool vary_w) {
  static std::map<std::pair<int, bool>, std::vector<BatchQueryInput>> cache;
  auto key = std::make_pair(theta_x100, vary_w);
  auto it = cache.find(key);
  if (it == cache.end()) {
    Dataset d = MakeSocialDataset("EU", 0.25);
    std::vector<BatchQueryInput> out;
    for (const WcsdQuery& q : MakeZipfQueryWorkload(
             d.graph, 8192, /*pool_size=*/2048, theta_x100 / 100.0, vary_w,
             0xcac4e + static_cast<uint64_t>(theta_x100))) {
      out.push_back({q.s, q.t, q.w});
    }
    it = cache.emplace(key, std::move(out)).first;
  }
  return it->second;
}

// The hit-rate sweep the README quotes: batch throughput over Zipf-skewed
// repeated-query workloads at several skews, uncached (cache:0) vs through
// the dominance-aware result cache (cache:1). The cache engine is opened
// fresh per run so hit_rate / cache_* counters in BENCH_micro_serve.json
// describe exactly the timed workload.
void BM_ZipfServeThroughput(benchmark::State& state) {
  const ServeFixture& f = FixtureForSize(1);
  const int theta_x100 = static_cast<int>(state.range(0));
  const bool vary_w = state.range(1) != 0;
  const bool cached = state.range(2) != 0;
  QueryEngineOptions options;
  options.num_threads = 1;
  options.cache_bytes = cached ? (8u << 20) : 0;
  auto opened = QueryEngine::Open(f.snap_path, options);
  if (!opened.ok()) {
    state.SkipWithError("engine open failed");
    return;
  }
  QueryEngine engine = std::move(opened).value();
  const auto& workload = ZipfWorkload(theta_x100, vary_w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Batch(workload));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(workload.size()));
  QueryEngineStats stats = engine.stats();
  const double lookups =
      static_cast<double>(stats.cache_hits + stats.cache_misses);
  state.counters["hit_rate"] =
      lookups > 0 ? static_cast<double>(stats.cache_hits) / lookups : 0.0;
  state.counters["cache_hits"] = static_cast<double>(stats.cache_hits);
  state.counters["cache_misses"] = static_cast<double>(stats.cache_misses);
  state.counters["cache_evictions"] =
      static_cast<double>(stats.cache_evictions);
  SetBackend(state, "mmap");
}
BENCHMARK(BM_ZipfServeThroughput)
    // {theta x100, vary_w, cache}: three skews (0.6 mild, 0.99 the classic
    // YCSB default, 1.2 hot), exact-w and re-rolled-w repeats, off/on.
    ->Args({60, 0, 0})->Args({60, 0, 1})
    ->Args({60, 1, 0})->Args({60, 1, 1})
    ->Args({99, 0, 0})->Args({99, 0, 1})
    ->Args({99, 1, 0})->Args({99, 1, 1})
    ->Args({120, 0, 0})->Args({120, 0, 1})
    ->Args({120, 1, 0})->Args({120, 1, 1})
    ->ArgNames({"zipf100", "vary_w", "cache"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------- live-update benchmarks

// Hot snapshot swap latency: the cost of publishing a new engine
// generation to a SwappableQueryService while it serves. This is the
// blocking cost a reload imposes on concurrent queries (one mutex-guarded
// shared_ptr store; the old generation is destroyed off the measured
// path only when the last in-flight query drops its pin).
void BM_HotSwapLatency(benchmark::State& state) {
  const ServeFixture& f = FixtureForSize(0);
  QueryEngineOptions options;
  options.num_threads = 1;
  auto open_a = QueryEngine::Open(f.snap_path, options);
  auto open_b = QueryEngine::Open(f.snap_path, options);
  if (!open_a.ok() || !open_b.ok()) {
    state.SkipWithError("engine open failed");
    return;
  }
  auto service_a = MakeQueryService(
      std::make_shared<const QueryEngine>(std::move(open_a).value()));
  auto service_b = MakeQueryService(
      std::make_shared<const QueryEngine>(std::move(open_b).value()));
  SwappableQueryService swappable(service_a);
  bool to_b = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(swappable.Swap(to_b ? service_b : service_a));
    to_b = !to_b;
  }
  state.counters["generations"] =
      static_cast<double>(swappable.generation());
  SetBackend(state, "mmap");
}
BENCHMARK(BM_HotSwapLatency)->Unit(benchmark::kNanosecond);

// Post-swap cache-hit retention: one shared cache filled by generation A,
// delta-invalidated scoped to a one-edge upgrade, then replayed through
// generation B. post_swap_hit_rate is what scoped invalidation preserves;
// a wholesale Rebind would replay this workload fully cold.
void BM_PostSwapCacheRetention(benchmark::State& state) {
  struct RetentionFixture {
    std::shared_ptr<const WcIndex> index_a;
    std::shared_ptr<const WcIndex> index_b;
    DeltaImpact impact;
    std::vector<BatchQueryInput> workload;
  };
  static const RetentionFixture fx = [] {
    RetentionFixture f;
    Dataset d = MakeSocialDataset("EU", 0.12);
    WcIndex a = WcIndex::Build(d.graph, WcIndexOptions::Plus());
    a.Finalize();
    f.index_a = std::make_shared<const WcIndex>(std::move(a));
    const Vertex eu = 0;
    const Arc arc = d.graph.Neighbors(0)[0];
    DynamicWcIndex dyn(d.graph);
    dyn.InsertEdge(eu, arc.to, arc.quality + 1.0f);
    WcIndex b = WcIndex::Build(dyn.Snapshot(), WcIndexOptions::Plus());
    b.Finalize();
    f.index_b = std::make_shared<const WcIndex>(std::move(b));
    f.impact = {eu, arc.to, arc.quality, arc.quality + 1.0f};
    for (const WcsdQuery& q :
         MakeZipfQueryWorkload(d.graph, 8192, /*pool_size=*/2048, 0.99,
                               /*vary_w=*/true, 0x5a5au)) {
      f.workload.push_back({q.s, q.t, q.w});
    }
    return f;
  }();

  auto cache = std::make_shared<ResultCache>(8u << 20);
  QueryEngineOptions options;
  options.num_threads = 1;
  options.shared_cache = cache;
  QueryEngine engine_a(fx.index_a, options);
  QueryEngine engine_b(fx.index_b, options);
  const WcIndex& old_index = *fx.index_a;
  auto coupled = [&old_index](Vertex s, Vertex t, const DeltaImpact& im,
                              Quality w_test) {
    return (old_index.Query(s, im.u, w_test) != kInfDistance &&
            old_index.Query(im.v, t, w_test) != kInfDistance) ||
           (old_index.Query(s, im.v, w_test) != kInfDistance &&
            old_index.Query(im.u, t, w_test) != kInfDistance);
  };

  double hits = 0.0;
  double lookups = 0.0;
  double dropped = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    cache->Rebind(engine_a.cache_fingerprint());
    benchmark::DoNotOptimize(engine_a.Batch(fx.workload));
    dropped += static_cast<double>(cache->InvalidateDelta(
        engine_b.cache_fingerprint(), {&fx.impact, 1}, coupled));
    ResultCacheStats before = cache->stats();
    state.ResumeTiming();
    // The timed section is the post-swap replay through generation B.
    benchmark::DoNotOptimize(engine_b.Batch(fx.workload));
    state.PauseTiming();
    ResultCacheStats after = cache->stats();
    hits += static_cast<double>(after.hits - before.hits);
    lookups += static_cast<double>((after.hits - before.hits) +
                                   (after.misses - before.misses));
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fx.workload.size()));
  state.counters["post_swap_hit_rate"] =
      lookups > 0 ? hits / lookups : 0.0;
  state.counters["dropped_per_swap"] =
      state.iterations() > 0
          ? dropped / static_cast<double>(state.iterations())
          : 0.0;
  SetBackend(state, "flat");
}
BENCHMARK(BM_PostSwapCacheRetention)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wcsd

WCSD_BENCH_JSON_MAIN("micro_serve")
