// Google-benchmark microbenchmarks for the query paths: per-query latency
// of each implementation on both label backends (vector-of-vectors vs.
// flat CSR), plus the baselines, on a mid-size social graph; and the
// Query+ merge of each label form (flat, level-sliced, compressed) on a
// road graph of the perfbench road shape. Emits BENCH_micro_query.json
// for cross-PR tracking.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "bench/datasets.h"
#include "bench/workload.h"
#include "core/batch.h"
#include "core/wc_index.h"
#include "graph/generators.h"
#include "labeling/label_source.h"
#include "labeling/naive_index.h"
#include "search/wc_bfs.h"

namespace wcsd {
namespace {

// Shared fixtures, built once.
const Dataset& SocialDataset() {
  static const Dataset d = MakeSocialDataset("EU", 0.25);
  return d;
}

const WcIndex& SharedIndex() {
  static const WcIndex index =
      WcIndex::Build(SocialDataset().graph, WcIndexOptions::Plus());
  return index;
}

const WcIndex& SharedFlatIndex() {
  static const WcIndex index = [] {
    WcIndex built = SharedIndex();  // copy: both backends serve one index
    built.Finalize();
    return built;
  }();
  return index;
}

const WcIndex& IndexForBackend(int backend) {
  return backend == 1 ? SharedFlatIndex() : SharedIndex();
}

const std::vector<WcsdQuery>& SharedWorkload() {
  static const std::vector<WcsdQuery> workload =
      MakeQueryWorkload(SocialDataset().graph, 4096, 7);
  return workload;
}

void BM_QueryImpl(benchmark::State& state) {
  const WcIndex& index = IndexForBackend(static_cast<int>(state.range(1)));
  const auto& workload = SharedWorkload();
  QueryImpl impl = static_cast<QueryImpl>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    const WcsdQuery& q = workload[i++ & 4095];
    benchmark::DoNotOptimize(index.Query(q.s, q.t, q.w, impl));
  }
}
BENCHMARK(BM_QueryImpl)
    ->ArgsProduct({{static_cast<int>(QueryImpl::kScan),
                    static_cast<int>(QueryImpl::kHubGrouped),
                    static_cast<int>(QueryImpl::kBinary),
                    static_cast<int>(QueryImpl::kMerge)},
                   {0, 1}})
    ->ArgNames({"impl", "backend"});

void BM_QueryWithHub(benchmark::State& state) {
  const WcIndex& index = IndexForBackend(static_cast<int>(state.range(0)));
  const auto& workload = SharedWorkload();
  size_t i = 0;
  for (auto _ : state) {
    const WcsdQuery& q = workload[i++ & 4095];
    benchmark::DoNotOptimize(index.QueryWithHub(q.s, q.t, q.w));
  }
}
BENCHMARK(BM_QueryWithHub)->Arg(0)->Arg(1)->ArgNames({"backend"});

void BM_NaiveQuery(benchmark::State& state) {
  static const auto naive = NaiveWcsdIndex::Build(SocialDataset().graph);
  const auto& workload = SharedWorkload();
  size_t i = 0;
  for (auto _ : state) {
    const WcsdQuery& q = workload[i++ & 4095];
    benchmark::DoNotOptimize(naive.value().Query(q.s, q.t, q.w));
  }
}
BENCHMARK(BM_NaiveQuery);

void BM_ConstrainedBfs(benchmark::State& state) {
  static WcBfs bfs(&SocialDataset().graph);
  const auto& workload = SharedWorkload();
  size_t i = 0;
  for (auto _ : state) {
    const WcsdQuery& q = workload[i++ & 4095];
    benchmark::DoNotOptimize(bfs.Query(q.s, q.t, q.w));
  }
}
BENCHMARK(BM_ConstrainedBfs);

void BM_BatchQueryThroughput(benchmark::State& state) {
  const WcIndex& index = IndexForBackend(static_cast<int>(state.range(1)));
  const auto& workload = SharedWorkload();
  std::vector<BatchQueryInput> batch;
  batch.reserve(workload.size());
  for (const WcsdQuery& q : workload) batch.push_back({q.s, q.t, q.w});
  size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BatchQuery(index, batch, threads));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.size()));
}
// Wall-clock timing: the work runs on BatchQuery's own pool threads, so
// the calling thread's CPU time would undercount it and inflate
// items_per_second at 4 and 16 threads.
BENCHMARK(BM_BatchQueryThroughput)
    ->ArgsProduct({{1, 4, 16}, {0, 1}})
    ->ArgNames({"threads", "backend"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The perfbench road shape: a 100x100 grid with an arterial every 10th
// row and column, 5 quality levels, uniform (s, t, w) queries.
struct RoadFixture {
  QualityGraph graph;
  FlatLabelSet flat;
  std::vector<WcsdQuery> workload;
};

const RoadFixture& Road() {
  static const RoadFixture fixture = [] {
    RoadFixture f;
    RoadOptions road;
    road.rows = road.cols = 100;
    road.arterial_spacing = 10;
    road.quality.num_levels = 5;
    f.graph = GenerateRoadNetwork(road, 1);
    WcIndexOptions options = WcIndexOptions::Plus();
    options.num_threads = 4;
    WcIndex index = WcIndex::Build(f.graph, options);
    index.Finalize();
    f.flat = index.flat_labels();
    f.workload = MakeQueryWorkload(f.graph, 4096, 11);
    return f;
  }();
  return fixture;
}

LabelSource RoadSource(LabelForm form) {
  const FlatLabelSet& flat = Road().flat;
  switch (form) {
    case LabelForm::kFlat: return LabelSource(flat);
    case LabelForm::kSliced:
      return LabelSource(SlicedLabelSet::FromFlat(flat).value());
    case LabelForm::kCompressed:
      return LabelSource(CompressedFlatLabelSet::FromFlat(flat));
  }
  return LabelSource();
}

// One Query+ per iteration through LabelSource::QueryMerge: the flat
// directory walk with FirstWithQuality, the sliced two-array merge, or the
// compressed streaming merge. bytes_ratio is the form's bytes over flat.
void BM_RoadMerge(benchmark::State& state) {
  const LabelForm form = static_cast<LabelForm>(state.range(0));
  const LabelSource source = RoadSource(form);
  const auto& workload = Road().workload;
  DecodedLabel ls, lt;
  size_t i = 0;
  for (auto _ : state) {
    const WcsdQuery& q = workload[i++ & 4095];
    benchmark::DoNotOptimize(
        QueryMerge(source, q.s, source, q.t, q.w, &ls, &lt));
  }
  state.counters["bytes_ratio"] =
      static_cast<double>(source.MemoryBytes()) /
      static_cast<double>(Road().flat.MemoryBytes());
  state.SetLabel(LabelFormName(form));
}
BENCHMARK(BM_RoadMerge)
    ->Arg(static_cast<int>(LabelForm::kFlat))
    ->Arg(static_cast<int>(LabelForm::kSliced))
    ->Arg(static_cast<int>(LabelForm::kCompressed))
    ->ArgNames({"form"});

// What the snapshot writer pays to choose and build the sliced form.
void BM_RoadSliceBuild(benchmark::State& state) {
  const FlatLabelSet& flat = Road().flat;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SlicedLabelSet::FromFlatIfNoLarger(flat));
  }
  state.counters["levels"] = static_cast<double>(
      SlicedLabelSet::FromFlat(flat).value().NumLevels());
}
BENCHMARK(BM_RoadSliceBuild)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wcsd

WCSD_BENCH_JSON_MAIN("micro_query")
