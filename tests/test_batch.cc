// Batch/ranking API tests: thread-count invariance, positional alignment,
// top-k semantics, quality-profile monotonicity, and the RunChunked
// fan-out underneath every batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/wc_index.h"
#include "graph/generators.h"
#include "paper_fixtures.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace wcsd {
namespace {

std::vector<BatchQueryInput> RandomBatch(size_t n_vertices, int levels,
                                         size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<BatchQueryInput> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    batch.push_back({static_cast<Vertex>(rng.NextBounded(n_vertices)),
                     static_cast<Vertex>(rng.NextBounded(n_vertices)),
                     static_cast<Quality>(rng.NextInRange(1, levels))});
  }
  return batch;
}

TEST(BatchQueryTest, MatchesSingleQueries) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);
  std::vector<BatchQueryInput> batch{
      {2, 5, 2.0f}, {0, 4, 1.0f}, {0, 4, 6.0f}, {3, 3, 9.0f}};
  auto results = BatchQuery(index, batch);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0], 2u);
  EXPECT_EQ(results[1], 2u);
  EXPECT_EQ(results[2], kInfDistance);
  EXPECT_EQ(results[3], 0u);
}

TEST(BatchQueryTest, ThreadCountDoesNotChangeResults) {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(200, 600, quality, 3);
  WcIndex index = WcIndex::Build(g);
  auto batch = RandomBatch(200, 5, 2000, 7);
  auto sequential = BatchQuery(index, batch, 1);
  for (size_t threads : {2u, 4u, 8u, 64u}) {
    EXPECT_EQ(BatchQuery(index, batch, threads), sequential)
        << threads << " threads";
  }
}

TEST(RunChunkedTest, EveryIndexRunsExactlyOnce) {
  struct Shape {
    size_t n, chunk;
  };
  // n < chunk (one chunk, inline), exact multiples, ragged tails.
  const Shape shapes[] = {{5, 8},   {1, 1},    {64, 16}, {64, 1},
                          {100, 16}, {129, 64}, {37, 5}};
  for (size_t workers = 1; workers <= 4; ++workers) {
    ThreadPool pool(workers);
    for (const Shape& shape : shapes) {
      std::vector<std::atomic<int>> runs(shape.n);
      std::atomic<bool> bad_range{false};
      RunChunked(&pool, shape.n, shape.chunk,
                 [&](size_t begin, size_t end, size_t worker) {
                   if (begin >= end || end > shape.n ||
                       end - begin > shape.chunk || worker > pool.size()) {
                     bad_range = true;
                   }
                   for (size_t i = begin; i < end; ++i) ++runs[i];
                 });
      EXPECT_FALSE(bad_range) << workers << " workers, n=" << shape.n;
      for (size_t i = 0; i < shape.n; ++i) {
        ASSERT_EQ(runs[i].load(), 1)
            << workers << " workers, n=" << shape.n
            << " chunk=" << shape.chunk << " index " << i;
      }
    }
  }
}

TEST(RunChunkedTest, ConcurrentCallersGetTheirOwnSums) {
  ThreadPool pool(2);
  constexpr size_t kCallers = 4;
  constexpr size_t kRounds = 50;
  std::vector<bool> ok(kCallers, true);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (size_t round = 0; round < kRounds; ++round) {
        const size_t n = 500 + 37 * c + round;
        std::atomic<uint64_t> sum{0};
        RunChunked(&pool, n, 16, [&](size_t begin, size_t end, size_t) {
          uint64_t local = 0;
          for (size_t i = begin; i < end; ++i) local += i;
          sum.fetch_add(local, std::memory_order_relaxed);
        });
        if (sum.load() != uint64_t{n} * (n - 1) / 2) ok[c] = false;
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (size_t c = 0; c < kCallers; ++c) EXPECT_TRUE(ok[c]) << "caller " << c;
}

// The caller drains its own batch: with the pool's only worker held by an
// unrelated task, RunChunked still completes, every chunk on the caller.
TEST(RunChunkedTest, CallerDrainsWhileEveryWorkerIsBusy) {
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool held = false;
  bool release = false;
  pool.Submit([&](size_t) {
    std::unique_lock<std::mutex> lock(mu);
    held = true;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(2), [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return held; });
  }
  std::vector<size_t> chunk_workers;
  const auto start = std::chrono::steady_clock::now();
  RunChunked(&pool, 8 * 16, 16, [&](size_t, size_t, size_t worker) {
    chunk_workers.push_back(worker);  // only the caller can get here
  });
  const auto elapsed = std::chrono::steady_clock::now() - start;
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));
  EXPECT_EQ(chunk_workers, std::vector<size_t>(8, pool.size()));
}

TEST(BatchQueryTest, EmptyBatch) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);
  EXPECT_TRUE(BatchQuery(index, {}, 4).empty());
}

TEST(TopKClosestTest, OrdersByDistanceThenId) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);
  // Distances from v0 at w=1: v1:1, v2:2, v3:1, v4:2, v5:2.
  auto top = TopKClosest(index, 0, {1, 2, 3, 4, 5}, 1.0f, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].vertex, 1u);
  EXPECT_EQ(top[0].dist, 1u);
  EXPECT_EQ(top[1].vertex, 3u);
  EXPECT_EQ(top[1].dist, 1u);
  EXPECT_EQ(top[2].vertex, 2u);
  EXPECT_EQ(top[2].dist, 2u);
}

TEST(TopKClosestTest, OmitsUnreachable) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);
  // At w=4 only the subgraph {v1, v2, v3, v4} stays connected.
  auto top = TopKClosest(index, 1, {0, 2, 3, 4, 5}, 4.0f, 10);
  for (const RankedCandidate& c : top) {
    EXPECT_NE(c.vertex, 0u);
    EXPECT_NE(c.vertex, 5u);
  }
  EXPECT_EQ(top.size(), 3u);
}

TEST(TopKClosestTest, KLargerThanCandidates) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);
  auto top = TopKClosest(index, 0, {1, 3}, 1.0f, 99);
  EXPECT_EQ(top.size(), 2u);
}

TEST(QualityProfileTest, MonotoneNonDecreasingDistances) {
  QualityModel quality;
  quality.num_levels = 8;
  QualityGraph g = GenerateRandomConnected(120, 300, quality, 9);
  WcIndex index = WcIndex::Build(g);
  auto thresholds = g.DistinctQualities();
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(120));
    Vertex t = static_cast<Vertex>(rng.NextBounded(120));
    auto profile = QualityProfile(index, s, t, thresholds);
    ASSERT_EQ(profile.size(), thresholds.size());
    for (size_t j = 1; j < profile.size(); ++j) {
      // Raising the constraint can only lengthen (or break) the path.
      EXPECT_LE(profile[j - 1].dist, profile[j].dist);
    }
  }
}

TEST(QualityProfileTest, Figure3PairV0V4) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);
  auto profile = QualityProfile(index, 0, 4, {1, 2, 3, 4, 5});
  ASSERT_EQ(profile.size(), 5u);
  EXPECT_EQ(profile[0].dist, 2u);
  EXPECT_EQ(profile[1].dist, 3u);
  EXPECT_EQ(profile[2].dist, 4u);
  EXPECT_EQ(profile[3].dist, kInfDistance);
  EXPECT_EQ(profile[4].dist, kInfDistance);
}

// The profile must cost one label merge per DISTINCT certified interval
// the thresholds land in — never one per threshold. Probing the same
// breakpoint structure with 100 thresholds must not merge more than
// probing it with the distinct qualities does (plus at most one for an
// above-the-top threshold), and duplicated thresholds must be free.
TEST(QualityProfileTest, MergeCountBoundedByIntervalsNotThresholds) {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(120, 300, quality, 13);
  WcIndex index = WcIndex::Build(g);
  Rng rng(15);
  for (int i = 0; i < 50; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(120));
    Vertex t = static_cast<Vertex>(rng.NextBounded(120));

    // Dense sweep: 100 thresholds spread over [1, 6].
    std::vector<Quality> dense;
    for (int j = 0; j < 100; ++j) {
      dense.push_back(1.0f + 0.05f * static_cast<float>(j));
    }
    size_t dense_merges = 0;
    auto profile = QualityProfile(index, s, t, dense, &dense_merges);
    ASSERT_EQ(profile.size(), dense.size());
    // d(s,t,w) over 5 quality levels has at most 5 finite steps plus the
    // unreachable tail: at most 6 distinct intervals to certify.
    EXPECT_LE(dense_merges, 6u) << "s=" << s << " t=" << t;
    EXPECT_GE(dense_merges, 1u);

    // Re-asking the same threshold 100 times costs exactly one merge.
    std::vector<Quality> repeated(100, 2.0f);
    size_t repeated_merges = 0;
    QualityProfile(index, s, t, repeated, &repeated_merges);
    EXPECT_EQ(repeated_merges, 1u) << "s=" << s << " t=" << t;
  }
}

// The hoisted source-side scan must be bit-identical to ranking plain
// per-candidate Query calls: same survivors, same order, same distances —
// across random graphs, sources, constraints, and duplicate candidates.
TEST(TopKClosestTest, BitIdenticalToNaivePerCandidateRanking) {
  Rng rng(21);
  for (uint64_t seed : {101u, 202u, 303u}) {
    QualityModel quality;
    quality.num_levels = 5;
    const size_t n = 80 + 20 * (seed % 3);
    QualityGraph g = GenerateRandomConnected(n, 3 * n, quality, seed);
    WcIndex index = WcIndex::Build(g);
    for (int round = 0; round < 30; ++round) {
      Vertex source = static_cast<Vertex>(rng.NextBounded(n));
      Quality w = static_cast<Quality>(rng.NextInRange(1, 5));
      size_t k = 1 + static_cast<size_t>(rng.NextBounded(10));
      std::vector<Vertex> candidates;
      const size_t count = 1 + static_cast<size_t>(rng.NextBounded(20));
      for (size_t i = 0; i < count; ++i) {
        // Includes the source itself and out-of-range ids on purpose.
        candidates.push_back(static_cast<Vertex>(rng.NextBounded(n + 2)));
      }

      auto fast = TopKClosest(index, source, candidates, w, k);

      // The naive oracle: one two-sided Query per candidate, then the same
      // (dist, vertex) sort and truncation.
      std::vector<RankedCandidate> naive;
      for (Vertex c : candidates) {
        Distance d = c == source ? 0 : index.Query(source, c, w);
        if (d != kInfDistance) naive.push_back({c, d});
      }
      std::stable_sort(naive.begin(), naive.end(),
                       [](const RankedCandidate& a,
                          const RankedCandidate& b) {
                         if (a.dist != b.dist) return a.dist < b.dist;
                         return a.vertex < b.vertex;
                       });
      if (naive.size() > k) naive.resize(k);

      ASSERT_EQ(fast.size(), naive.size())
          << "seed=" << seed << " source=" << source << " w=" << w;
      for (size_t i = 0; i < naive.size(); ++i) {
        ASSERT_EQ(fast[i].vertex, naive[i].vertex) << "rank " << i;
        ASSERT_EQ(fast[i].dist, naive[i].dist) << "rank " << i;
      }
    }
  }
}

}  // namespace
}  // namespace wcsd
