#include "core/batch.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace wcsd {

std::vector<Distance> BatchQuery(const WcIndex& index,
                                 const std::vector<BatchQueryInput>& queries,
                                 size_t threads) {
  std::vector<Distance> results(queries.size(), kInfDistance);
  auto run = [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) {
      results[i] = index.Query(queries[i].s, queries[i].t, queries[i].w);
    }
  };
  // Cap workers at one chunk each: spawning threads a transient pool
  // cannot feed is pure startup overhead.
  constexpr size_t kMinChunk = 64;
  const size_t max_useful = (queries.size() + kMinChunk - 1) / kMinChunk;
  threads = std::max<size_t>(1, std::min(threads, max_useful));
  if (threads == 1) {
    run(0, queries.size(), 0);
    return results;
  }
  // ~4 chunks per worker so stragglers rebalance. Long-lived servers should
  // hold a QueryEngine (serve/query_engine.h) and amortize its pool across
  // batches.
  ThreadPool pool(threads);
  const size_t target = threads * 4;
  RunChunked(&pool, queries.size(),
             std::max(kMinChunk, (queries.size() + target - 1) / target), run);
  return results;
}

std::vector<RankedCandidate> TopKClosest(const WcIndex& index, Vertex source,
                                         const std::vector<Vertex>& candidates,
                                         Quality w, size_t k) {
  return TopKClosestOverLabels(
      index.NumVertices(), source, candidates, w, k,
      [&index](Vertex v) { return index.EntriesFor(v); });
}

std::vector<ProfilePoint> QualityProfile(const WcIndex& index, Vertex s,
                                         Vertex t,
                                         const std::vector<Quality>& thresholds,
                                         size_t* label_merges) {
  return QualityProfileOverIntervals(
      thresholds,
      [&](Quality w) { return index.QueryWithInterval(s, t, w); },
      label_merges);
}

}  // namespace wcsd
