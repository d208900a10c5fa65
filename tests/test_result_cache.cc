// The dominance-aware result cache (serve/result_cache.h): interval
// semantics, undirected key normalization, replacement under a fixed
// budget, fingerprint invalidation, engine wiring (QueryEngine and
// QueryEngine answer bit-identically with the cache on), and a
// concurrent hit/insert/invalidate hammer for the TSan CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/dynamic_wc_index.h"
#include "core/wc_index.h"
#include "graph/generators.h"
#include "labeling/delta.h"
#include "labeling/shard_manifest.h"
#include "labeling/snapshot.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "util/random.h"

namespace wcsd {
namespace {

IntervalQueryResult MakeInterval(Distance dist, Quality lo, Quality hi) {
  IntervalQueryResult r;
  r.dist = dist;
  r.w_lo = lo;
  r.w_hi = hi;
  return r;
}

TEST(ResultCache, IntervalHitSemantics) {
  ResultCache cache(1 << 20);
  cache.Rebind(0xf00d);
  Distance d = 0;

  EXPECT_FALSE(cache.Lookup(3, 7, 2.0f, &d));
  cache.Insert(3, 7, MakeInterval(5, 1.0f, 3.0f));

  // Any constraint inside [1, 3] hits — not just the inserted w.
  EXPECT_TRUE(cache.Lookup(3, 7, 2.0f, &d));
  EXPECT_EQ(d, 5u);
  EXPECT_TRUE(cache.Lookup(3, 7, 1.0f, &d));
  EXPECT_TRUE(cache.Lookup(3, 7, 3.0f, &d));
  EXPECT_TRUE(cache.Lookup(3, 7, 2.5f, &d));

  // Outside the interval misses; other pairs miss.
  EXPECT_FALSE(cache.Lookup(3, 7, 0.5f, &d));
  EXPECT_FALSE(cache.Lookup(3, 7, 3.5f, &d));
  EXPECT_FALSE(cache.Lookup(3, 8, 2.0f, &d));

  // The graph is undirected: (t, s) shares the entry.
  EXPECT_TRUE(cache.Lookup(7, 3, 2.0f, &d));
  EXPECT_EQ(d, 5u);

  // Unbounded intervals (unreachable pairs, s == t) work, including +inf.
  cache.Insert(1, 2, MakeInterval(kInfDistance, 4.0f, kInfQuality));
  EXPECT_TRUE(cache.Lookup(1, 2, kInfQuality, &d));
  EXPECT_EQ(d, kInfDistance);
  EXPECT_TRUE(cache.Lookup(1, 2, 1e30f, &d));
  EXPECT_FALSE(cache.Lookup(1, 2, 3.5f, &d));

  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 7u);
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ResultCache, MultipleDisjointIntervalsPerPair) {
  ResultCache cache(1 << 20);
  Distance d = 0;
  // Three steps of one pair's step function.
  cache.Insert(10, 20, MakeInterval(4, -kInfQuality, 1.0f));
  cache.Insert(10, 20, MakeInterval(6, 1.5f, 3.0f));
  cache.Insert(10, 20, MakeInterval(9, 3.5f, kInfQuality));
  EXPECT_TRUE(cache.Lookup(10, 20, 0.0f, &d));
  EXPECT_EQ(d, 4u);
  EXPECT_TRUE(cache.Lookup(10, 20, 2.0f, &d));
  EXPECT_EQ(d, 6u);
  EXPECT_TRUE(cache.Lookup(10, 20, 100.0f, &d));
  EXPECT_EQ(d, 9u);

  // Re-inserting a present interval is a no-op (still one insert each).
  cache.Insert(10, 20, MakeInterval(6, 1.5f, 3.0f));
  EXPECT_EQ(cache.stats().inserts, 3u);

  // A fourth distinct interval displaces one (kIntervalsPerSlot = 3).
  cache.Insert(10, 20, MakeInterval(7, 3.2f, 3.4f));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.Lookup(10, 20, 3.3f, &d));
  EXPECT_EQ(d, 7u);
}

TEST(ResultCache, RebindInvalidatesWholesale) {
  ResultCache cache(1 << 20);
  cache.Rebind(1);
  Distance d = 0;
  cache.Insert(3, 7, MakeInterval(5, 1.0f, 3.0f));
  ASSERT_TRUE(cache.Lookup(3, 7, 2.0f, &d));

  cache.Rebind(1);  // same identity: contents survive
  EXPECT_TRUE(cache.Lookup(3, 7, 2.0f, &d));

  cache.Rebind(2);  // new snapshot identity: wiped
  EXPECT_EQ(cache.fingerprint(), 2u);
  EXPECT_FALSE(cache.Lookup(3, 7, 2.0f, &d));
}

// ------------------------------------------------- scoped invalidation
//
// InvalidateDelta must drop exactly the entries a delta could have
// changed: intervals whose constraint range overlaps the delta's impact
// window, optionally narrowed further by the coupled-reachability probe.
// Entries it keeps must keep HITTING (the counters prove retention).

TEST(ResultCache, InvalidateDeltaQualityScope) {
  ResultCache cache(1 << 20);
  cache.Rebind(1);
  Distance d = 0;
  // Pair (3, 7): one interval strictly above the impact window, one
  // overlapping it. Pair (4, 9): entirely above the window.
  cache.Insert(3, 7, MakeInterval(5, 3.0f, 5.0f));
  cache.Insert(3, 7, MakeInterval(2, 1.0f, 2.5f));
  cache.Insert(4, 9, MakeInterval(7, 4.0f, kInfQuality));

  // A delta touching edge {100, 101} with qualities up to 2: only
  // constraints w <= 2 can change.
  DeltaImpact impact{100, 101, -kInfQuality, 2.0f};
  size_t dropped = cache.InvalidateDelta(2, {&impact, 1});
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(cache.fingerprint(), 2u);

  // The overlapping interval is gone; the out-of-window intervals hit.
  EXPECT_FALSE(cache.Lookup(3, 7, 2.0f, &d));
  EXPECT_TRUE(cache.Lookup(3, 7, 4.0f, &d));
  EXPECT_EQ(d, 5u);
  EXPECT_TRUE(cache.Lookup(4, 9, 10.0f, &d));
  EXPECT_EQ(d, 7u);
  EXPECT_EQ(cache.stats().hits, 2u);

  // An upgrade q_old -> q_new only touches (q_old, q_new]: an interval
  // wholly below the window survives, while the two intervals straddling
  // it ((3,7)[3,5] and (4,9)[4,inf]) are dropped.
  cache.Insert(5, 6, MakeInterval(3, 1.0f, 2.0f));
  DeltaImpact upgrade{100, 101, 3.0f, 4.0f};
  EXPECT_EQ(cache.InvalidateDelta(3, {&upgrade, 1}), 2u);
  EXPECT_TRUE(cache.Lookup(5, 6, 1.5f, &d));
  EXPECT_FALSE(cache.Lookup(3, 7, 4.0f, &d));
}

TEST(ResultCache, InvalidateDeltaCoupledScope) {
  ResultCache cache(1 << 20);
  cache.Rebind(1);
  Distance d = 0;
  cache.Insert(3, 7, MakeInterval(5, 1.0f, 3.0f));
  cache.Insert(4, 9, MakeInterval(6, 1.0f, 3.0f));

  // Both intervals overlap the impact window, but the coupled probe says
  // only pair (3, 7) can reach the changed edge from both sides. Keys are
  // normalized s <= t, so the probe sees the normalized pair.
  DeltaImpact impact{100, 101, -kInfQuality, 5.0f};
  size_t dropped = cache.InvalidateDelta(
      2, {&impact, 1},
      [](Vertex s, Vertex t, const DeltaImpact& im, Quality w_test) {
        EXPECT_EQ(im.u, 100u);
        EXPECT_GE(w_test, 1.0f);  // max(iv.w_lo, im.q_lo)
        return s == 3 && t == 7;
      });
  EXPECT_EQ(dropped, 1u);
  EXPECT_FALSE(cache.Lookup(3, 7, 2.0f, &d));
  EXPECT_TRUE(cache.Lookup(4, 9, 2.0f, &d));
  EXPECT_EQ(d, 6u);
}

TEST(ResultCache, InsertBoundDropsStaleGenerations) {
  ResultCache cache(1 << 20);
  cache.Rebind(7);
  Distance d = 0;

  // An insert bound to a stale fingerprint is dropped silently — this is
  // the race where an old-generation engine finishes a query after the
  // cache moved on.
  cache.InsertBound(3, 7, MakeInterval(5, 1.0f, 3.0f), /*expected=*/6);
  EXPECT_FALSE(cache.Lookup(3, 7, 2.0f, &d));

  // Bound to the live fingerprint it lands.
  cache.InsertBound(3, 7, MakeInterval(5, 1.0f, 3.0f), /*expected=*/7);
  EXPECT_TRUE(cache.Lookup(3, 7, 2.0f, &d));
  EXPECT_EQ(d, 5u);
}

TEST(ResultCache, TinyBudgetReplacesInsteadOfGrowing) {
  // The smallest cache: one shard, one probe window of slots. Admission is
  // off so every displacing insert evicts immediately (the policy under
  // test here is replacement, not admission).
  ResultCache cache(1, /*second_chance_admission=*/false);
  EXPECT_EQ(cache.num_shards(), 1u);
  EXPECT_EQ(cache.slots_per_shard(), ResultCache::kProbeWindow);
  EXPECT_LE(cache.MemoryBytes(), 4096u);

  // Insert far more pairs than fit; the cache must stay within budget and
  // keep answering correctly for whatever it retained.
  Distance d = 0;
  for (Vertex i = 0; i < 256; ++i) {
    cache.Insert(i, i + 1000, MakeInterval(i, 1.0f, 3.0f));
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  size_t retained = 0;
  for (Vertex i = 0; i < 256; ++i) {
    if (cache.Lookup(i, i + 1000, 2.0f, &d)) {
      EXPECT_EQ(d, Distance{i});
      ++retained;
    }
  }
  EXPECT_GT(retained, 0u);
  EXPECT_LE(retained, cache.num_shards() * cache.slots_per_shard());
}

TEST(ResultCache, SecondChanceAdmissionProtectsResidents) {
  // One shard, four slots, window four: every key probes every slot, so a
  // fifth pair can only land by displacing a resident.
  ResultCache cache(1);
  ASSERT_EQ(cache.num_shards(), 1u);
  ASSERT_EQ(cache.slots_per_shard(), ResultCache::kProbeWindow);
  Distance d = 0;
  for (Vertex i = 0; i < 4; ++i) {
    cache.Insert(i, i + 1000, MakeInterval(i, 1.0f, 3.0f));
  }
  for (Vertex i = 0; i < 4; ++i) {
    ASSERT_TRUE(cache.Lookup(i, i + 1000, 2.0f, &d));
  }

  // First touch of a displacing key: refused, residents untouched.
  cache.Insert(50, 1050, MakeInterval(99, 1.0f, 3.0f));
  EXPECT_EQ(cache.stats().admission_rejects, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_FALSE(cache.Lookup(50, 1050, 2.0f, &d));
  for (Vertex i = 0; i < 4; ++i) {
    EXPECT_TRUE(cache.Lookup(i, i + 1000, 2.0f, &d));
  }

  // Second touch: the key proved it recurs; admitted by displacement.
  cache.Insert(50, 1050, MakeInterval(99, 1.0f, 3.0f));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.Lookup(50, 1050, 2.0f, &d));
  EXPECT_EQ(d, 99u);

  // Re-inserting a resident key never needs admission (new interval for a
  // cached pair), and an empty-slot insert is always admitted.
  ResultCache roomy(1 << 20);
  roomy.Insert(1, 2, MakeInterval(5, 1.0f, 2.0f));
  roomy.Insert(1, 2, MakeInterval(7, 3.0f, 4.0f));
  EXPECT_EQ(roomy.stats().admission_rejects, 0u);
  EXPECT_TRUE(roomy.Lookup(1, 2, 3.5f, &d));
  EXPECT_EQ(d, 7u);
}

// --------------------------------------------- generation-bound lookups
//
// Regression for the cross-generation readback bug: Lookup was not
// fingerprint-bound, so after InvalidateDelta an old-generation engine
// sharing the cache could read an entry the NEW generation inserted for a
// delta-touched pair — answering from the wrong index. LookupBound checks
// the slot's certified fingerprint under the same slot-version protocol.

TEST(ResultCache, LookupBoundRefusesOtherGenerations) {
  ResultCache cache(1 << 20);
  cache.Rebind(1);
  Distance d = 0;
  cache.Insert(3, 7, MakeInterval(5, 1.0f, 3.0f));

  EXPECT_TRUE(cache.LookupBound(3, 7, 2.0f, /*expected=*/1, &d));
  EXPECT_EQ(d, 5u);
  // Same entry, wrong generation: refused (the unbound Lookup still hits).
  EXPECT_FALSE(cache.LookupBound(3, 7, 2.0f, /*expected=*/2, &d));
  EXPECT_TRUE(cache.Lookup(3, 7, 2.0f, &d));
}

TEST(ResultCache, CrossGenerationReadbackAfterInvalidateDelta) {
  ResultCache cache(1 << 20);
  cache.Rebind(1);
  Distance d = 0;
  // Old generation caches two pairs; the delta touches only (3, 7).
  cache.InsertBound(3, 7, MakeInterval(5, 1.0f, 3.0f), /*expected=*/1);
  cache.InsertBound(4, 9, MakeInterval(6, 1.0f, 3.0f), /*expected=*/1);

  DeltaImpact impact{100, 101, -kInfQuality, kInfQuality};
  size_t dropped = cache.InvalidateDelta(
      2, {&impact, 1},
      [](Vertex s, Vertex t, const DeltaImpact&, Quality) {
        return s == 3 && t == 7;
      });
  EXPECT_EQ(dropped, 1u);

  // The new generation recomputes the delta-touched pair — the delta
  // changed its answer from 5 to 42 — and caches it.
  cache.InsertBound(3, 7, MakeInterval(42, 1.0f, 3.0f), /*expected=*/2);

  // The OLD generation must not read the new generation's entry for the
  // delta-touched pair (it would serve distance 42 from an index where the
  // answer is 5), nor the survivor (re-certified for generation 2 only).
  EXPECT_FALSE(cache.LookupBound(3, 7, 2.0f, /*expected=*/1, &d));
  EXPECT_FALSE(cache.LookupBound(4, 9, 2.0f, /*expected=*/1, &d));

  // The new generation reads both: the fresh entry and the survivor.
  EXPECT_TRUE(cache.LookupBound(3, 7, 2.0f, /*expected=*/2, &d));
  EXPECT_EQ(d, 42u);
  EXPECT_TRUE(cache.LookupBound(4, 9, 2.0f, /*expected=*/2, &d));
  EXPECT_EQ(d, 6u);
}

// ------------------------------------------------------- engine wiring

QualityGraph MakeCacheGraph(uint64_t seed) {
  QualityModel quality;
  quality.num_levels = 5;
  return GenerateBarabasiAlbert(60, 3, quality, seed);
}

std::vector<BatchQueryInput> MakeCacheWorkload(size_t n, size_t count,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<BatchQueryInput> queries;
  for (size_t i = 0; i < count; ++i) {
    queries.push_back({static_cast<Vertex>(rng.NextBounded(n)),
                       static_cast<Vertex>(rng.NextBounded(n)),
                       static_cast<Quality>(rng.NextInRange(0, 6)) +
                           (rng.NextBool(0.3) ? 0.5f : 0.0f)});
  }
  return queries;
}

TEST(ResultCache, CachedQueryEngineAnswersBitIdentically) {
  QualityGraph g = MakeCacheGraph(99);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  index.Finalize();
  auto shared = std::make_shared<const WcIndex>(std::move(index));
  const size_t n = shared->NumVertices();

  QueryEngineOptions plain_options;
  plain_options.num_threads = 1;
  QueryEngine plain(shared, plain_options);

  QueryEngineOptions cached_options = plain_options;
  cached_options.cache_bytes = 64 << 10;
  QueryEngine cached(shared, cached_options);
  ASSERT_NE(cached.cache(), nullptr);
  ASSERT_EQ(cached.cache()->fingerprint(),
            IndexContentFingerprint(shared->flat_labels()));

  // Two passes over a repeating workload: the second is mostly hits and
  // must still be bit-identical.
  auto queries = MakeCacheWorkload(n, 300, 5);
  const std::vector<BatchQueryInput> repeats(queries.begin(),
                                             queries.begin() + 150);
  queries.insert(queries.end(), repeats.begin(), repeats.end());
  for (int pass = 0; pass < 2; ++pass) {
    for (const BatchQueryInput& q : queries) {
      ASSERT_EQ(cached.Query(q.s, q.t, q.w), plain.Query(q.s, q.t, q.w))
          << "pass=" << pass << " s=" << q.s << " t=" << q.t
          << " w=" << q.w;
    }
    ASSERT_EQ(cached.Batch(queries), plain.Batch(queries)) << "pass="
                                                           << pass;
  }

  QueryEngineStats stats = cached.stats();
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_inserts, 0u);
  // Degenerate queries bypass the cache entirely.
  Distance self = cached.Query(3, 3, 1.0f);
  Distance oob = cached.Query(0, static_cast<Vertex>(n + 7), 1.0f);
  EXPECT_EQ(self, 0u);
  EXPECT_EQ(oob, kInfDistance);
  EXPECT_EQ(cached.stats().cache_hits + cached.stats().cache_misses,
            stats.cache_hits + stats.cache_misses);
  // An uncached engine reports zero cache counters.
  EXPECT_EQ(plain.stats().cache_hits, 0u);
  EXPECT_EQ(plain.stats().cache_misses, 0u);
}

TEST(ResultCache, CachedShardedEngineAnswersBitIdentically) {
  QualityGraph g = MakeCacheGraph(123);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  index.Finalize();
  const uint64_t n = index.NumVertices();

  const std::string dir = testing::TempDir();
  std::vector<std::string> paths;
  for (int k = 0; k < 3; ++k) {
    std::string path = dir + "/cache_shard" + std::to_string(k);
    ASSERT_TRUE(WriteSnapshotShard(path, index.flat_labels(), n * k / 3,
                                   n * (k + 1) / 3, n)
                    .ok());
    paths.push_back(path);
  }

  QueryEngineOptions plain_options;
  plain_options.num_threads = 1;
  auto plain = QueryEngine::OpenMmap(paths, plain_options);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  QueryEngineOptions cached_options = plain_options;
  cached_options.cache_bytes = 64 << 10;
  auto cached = QueryEngine::OpenMmap(paths, cached_options);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  ASSERT_NE(cached.value().cache(), nullptr);
  // The sharded fingerprint is tiling-invariant: it must equal the
  // unsharded index's content fingerprint.
  EXPECT_EQ(cached.value().cache()->fingerprint(),
            IndexContentFingerprint(index.flat_labels()));

  auto queries = MakeCacheWorkload(n, 400, 17);
  for (int pass = 0; pass < 2; ++pass) {
    for (const BatchQueryInput& q : queries) {
      ASSERT_EQ(cached.value().Query(q.s, q.t, q.w),
                plain.value().Query(q.s, q.t, q.w))
          << "pass=" << pass << " s=" << q.s << " t=" << q.t << " w=" << q.w;
    }
    ASSERT_EQ(cached.value().Batch(queries), plain.value().Batch(queries));
  }
  EXPECT_GT(cached.value().stats().cache_hits, 0u);

  for (const std::string& path : paths) std::remove(path.c_str());
}

// --------------------------------------------------- concurrency hammer

// Raw cache hammered from many threads — lookups, inserts, and periodic
// wholesale invalidation racing each other. Run under the TSan CI job.
TEST(ResultCache, ConcurrentHitInsertInvalidateHammer) {
  ResultCache cache(32 << 10);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> wrong{0};

  auto worker = [&](uint64_t seed) {
    Rng rng(seed);
    Distance d = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(128));
      Vertex t = static_cast<Vertex>(rng.NextBounded(128));
      Quality w = static_cast<Quality>(rng.NextInRange(0, 8));
      // The "index" the hammer simulates: dist = s ^ t, valid on a fixed
      // interval — so any hit can be verified against ground truth.
      if (cache.Lookup(s, t, w, &d)) {
        if (d != (s ^ t)) wrong.fetch_add(1, std::memory_order_relaxed);
      } else {
        cache.Insert(s, t, MakeInterval(s ^ t, -kInfQuality, kInfQuality));
      }
    }
  };

  std::vector<std::thread> threads;
  for (uint64_t i = 0; i < 4; ++i) threads.emplace_back(worker, 100 + i);
  std::thread invalidator([&] {
    for (int round = 0; round < 50; ++round) {
      cache.Rebind(static_cast<uint64_t>(round));
      std::this_thread::yield();
      (void)cache.stats();  // stats() races the workers too
    }
  });
  invalidator.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(wrong.load(), 0u);
  ResultCacheStats stats = cache.stats();
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

// Seqlock torn-read hammer: the lock-free read path must never observe a
// half-written slot. Writers keep overwriting the SAME few slots with
// self-consistent (interval, distance) tuples — interval [v, v] paired
// with distance v — while lock-free readers assert that any hit returns
// the distance matching the constraint it asked. A torn read would stitch
// w_lo/w_hi from one write to dist from another and trip the assertion;
// the all-atomic slot fields plus the version protocol are what TSan
// checks here (run under the TSan CI job).
TEST(ResultCache, SeqlockReaderTornReadHammer) {
  ResultCache cache(1 << 20);
  cache.Rebind(1);
  constexpr Vertex kPairs = 8;
  constexpr uint32_t kValues = 64;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};

  auto writer = [&](uint64_t seed) {
    Rng rng(seed);
    while (!stop.load(std::memory_order_relaxed)) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(kPairs));
      uint32_t v = static_cast<uint32_t>(rng.NextBounded(kValues));
      // Same slot, ever-changing payload: interval [v, v] certifies
      // distance v. Writers rotate through a slot's three intervals, so
      // the same interval index is overwritten constantly.
      cache.Insert(s, s + 100,
                   MakeInterval(v, static_cast<Quality>(v),
                                static_cast<Quality>(v)));
    }
  };
  auto reader = [&](uint64_t seed) {
    Rng rng(seed);
    Distance d = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(kPairs));
      uint32_t v = static_cast<uint32_t>(rng.NextBounded(kValues));
      Quality w = static_cast<Quality>(v);
      // Both read paths are lock-free; exercise both.
      if (cache.Lookup(s, s + 100, w, &d) && d != Distance{v}) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
      if (cache.LookupBound(s, s + 100, w, 1, &d) && d != Distance{v}) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> threads;
  for (uint64_t i = 0; i < 2; ++i) threads.emplace_back(writer, 200 + i);
  for (uint64_t i = 0; i < 4; ++i) threads.emplace_back(reader, 300 + i);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(torn.load(), 0u);
  ResultCacheStats stats = cache.stats();
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_GT(stats.hits, 0u);
}

// A cache-enabled engine hammered by concurrent batches from many caller
// threads: every result must still be bit-identical to the uncached
// reference. Run under the TSan CI job.
TEST(ResultCache, ConcurrentCachedBatchesStayCorrect) {
  QualityGraph g = MakeCacheGraph(7);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  index.Finalize();
  auto shared = std::make_shared<const WcIndex>(std::move(index));
  const size_t n = shared->NumVertices();

  QueryEngineOptions options;
  options.num_threads = 3;
  options.cache_bytes = 64 << 10;
  QueryEngine cached(shared, options);
  QueryEngineOptions plain_options;
  plain_options.num_threads = 1;
  QueryEngine plain(shared, plain_options);

  auto queries = MakeCacheWorkload(n, 512, 29);
  const std::vector<Distance> expected = plain.Batch(queries);

  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 8; ++round) {
        if (cached.Batch(queries) != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(cached.stats().cache_hits, 0u);
}

// The full live-update handoff: one shared cache is filled by generation
// A, delta-invalidated with the coupled probe against A's index, and then
// serves generation B — bit-identical to an uncached B engine, with
// surviving entries still hitting (retention is the point of scoped
// invalidation; wholesale Rebind would start cold).
TEST(ResultCache, CachedEngineAcrossSwapBitIdentical) {
  QualityGraph g = MakeCacheGraph(314);
  WcIndex index_a = WcIndex::Build(g, WcIndexOptions::Plus());
  index_a.Finalize();
  auto shared_a = std::make_shared<const WcIndex>(std::move(index_a));
  const size_t n = shared_a->NumVertices();

  // Generation B: upgrade one existing edge — a tight impact window, so
  // most cached intervals survive the scoped invalidation.
  const Vertex eu = 0;
  const Vertex ev = g.Neighbors(0)[0].to;
  const Quality q_old = g.EdgeQuality(eu, ev);
  const Quality q_new = 5.0f;
  ASSERT_LT(q_old, q_new);
  DynamicWcIndex dyn(g);
  dyn.InsertEdge(eu, ev, q_new);
  WcIndex index_b =
      WcIndex::Build(dyn.Snapshot(), WcIndexOptions::Plus());
  index_b.Finalize();
  auto shared_b = std::make_shared<const WcIndex>(std::move(index_b));

  auto cache = std::make_shared<ResultCache>(1 << 20);
  QueryEngineOptions options;
  options.num_threads = 1;
  options.shared_cache = cache;
  QueryEngine engine_a(shared_a, options);
  QueryEngine engine_b(shared_b, options);
  ASSERT_NE(engine_a.cache_fingerprint(), engine_b.cache_fingerprint());
  cache->Rebind(engine_a.cache_fingerprint());

  // Fill the cache through generation A.
  auto queries = MakeCacheWorkload(n, 400, 777);
  for (const BatchQueryInput& q : queries) engine_a.Query(q.s, q.t, q.w);
  ASSERT_GT(cache->stats().inserts, 0u);

  // Scoped invalidation with the coupled probe against A's index — the
  // exact recipe `wcsd_cli serve --watch` runs before swapping.
  DeltaImpact impact{eu, ev, q_old, q_new};
  const WcIndex& old_index = *shared_a;
  size_t dropped = cache->InvalidateDelta(
      engine_b.cache_fingerprint(), {&impact, 1},
      [&old_index](Vertex s, Vertex t, const DeltaImpact& im,
                   Quality w_test) {
        return (old_index.Query(s, im.u, w_test) != kInfDistance &&
                old_index.Query(im.v, t, w_test) != kInfDistance) ||
               (old_index.Query(s, im.v, w_test) != kInfDistance &&
                old_index.Query(im.u, t, w_test) != kInfDistance);
      });

  // Generation B through the retained cache must be bit-identical to an
  // uncached engine over B.
  QueryEngineOptions plain_options;
  plain_options.num_threads = 1;
  QueryEngine plain_b(shared_b, plain_options);
  ResultCacheStats before = cache->stats();
  for (const BatchQueryInput& q : queries) {
    ASSERT_EQ(engine_b.Query(q.s, q.t, q.w), plain_b.Query(q.s, q.t, q.w))
        << "s=" << q.s << " t=" << q.t << " w=" << q.w
        << " (dropped=" << dropped << ")";
  }
  // Retention: the replay hit entries that survived the invalidation.
  EXPECT_GT(cache->stats().hits, before.hits);
}

}  // namespace
}  // namespace wcsd
