// Randomized tiling differential test: the sharding correctness story is
// that ANY valid tiling of the vertex range answers bit-identically to the
// unsharded index — a query reads exactly two label slices and hubs are
// global ranks, so where the shard cuts fall can never matter.
//
// For ~50 seeded graphs across four generator families, this suite
// generates random valid tilings (1..8 shards, uneven cuts, singleton and
// even empty shards), serves each through QueryEngine (shard files
// via OpenMmap, plus the planner + manifest path via OpenManifest), and
// asserts every answer matches the unsharded QueryEngine, single and
// batch. A whole snapshot is itself the one-shard tiling: served through
// OpenMmap it must answer exactly what Open serves, on the flat and the
// compressed backend, and compressed shards must answer cross-shard pairs
// with the streaming kernel even though each carries its own dictionary.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/wc_index.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "labeling/compressed_flat.h"
#include "labeling/query.h"
#include "labeling/shard_manifest.h"
#include "labeling/shard_plan.h"
#include "labeling/snapshot.h"
#include "serve/query_engine.h"
#include "util/random.h"

namespace wcsd {
namespace {

QualityGraph MakeTilingGraph(size_t family, uint64_t seed) {
  Rng rng(seed * 0x9e3779b9u + family);
  QualityModel quality;
  quality.num_levels = static_cast<int>(rng.NextInRange(2, 6));
  switch (family) {
    case 0: {
      RoadOptions options;
      options.rows = static_cast<size_t>(rng.NextInRange(4, 7));
      options.cols = static_cast<size_t>(rng.NextInRange(4, 7));
      options.quality = quality;
      return GenerateRoadNetwork(options, seed);
    }
    case 1: {
      size_t n = static_cast<size_t>(rng.NextInRange(24, 60));
      return GenerateBarabasiAlbert(
          n, static_cast<size_t>(rng.NextInRange(2, 4)), quality, seed);
    }
    case 2: {
      size_t n = static_cast<size_t>(rng.NextInRange(24, 60));
      return GenerateWattsStrogatz(
          n, static_cast<size_t>(rng.NextInRange(1, 3)), 0.2, quality, seed);
    }
    default: {
      size_t n = static_cast<size_t>(rng.NextInRange(24, 60));
      size_t m = n - 1 + static_cast<size_t>(rng.NextBounded(n));
      return GenerateRandomConnected(n, m, quality, seed);
    }
  }
}

/// A random tiling of [0, n): 1..8 shards with uneven cut points. Repeated
/// cuts produce empty shards; adjacent cuts produce singleton shards —
/// both are legal and must serve correctly.
std::vector<uint64_t> RandomFences(Rng& rng, uint64_t n) {
  size_t shards = 1 + static_cast<size_t>(rng.NextBounded(8));
  std::vector<uint64_t> fences{0, n};
  for (size_t k = 0; k + 1 < shards; ++k) {
    fences.push_back(rng.NextBounded(n + 1));
  }
  std::sort(fences.begin(), fences.end());
  return fences;
}

TEST(ShardTiling, AnyValidTilingAnswersBitIdentically) {
  const std::string dir = testing::TempDir();
  size_t graphs = 0;
  size_t tilings = 0;
  for (size_t family = 0; family < 4; ++family) {
    for (uint64_t gi = 0; gi < 13; ++gi) {
      const uint64_t seed = 7000 + 100 * family + gi;
      QualityGraph g = MakeTilingGraph(family, seed);
      const uint64_t n = g.NumVertices();
      ASSERT_GT(n, 0u);
      ++graphs;

      WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
      index.Finalize();
      const FlatLabelSet& flat = index.flat_labels();

      // Reference engine: the unsharded mmap-served QueryEngine.
      std::string snap = dir + "/tiling_" + std::to_string(seed) + ".wcsnap";
      ASSERT_TRUE(index.SaveSnapshot(snap).ok());
      QueryEngineOptions reference_options;
      reference_options.num_threads = 1;
      auto opened = QueryEngine::Open(snap, reference_options);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      const QueryEngine& reference = opened.value();

      // Fixed query workload per graph, shared by every tiling.
      Rng qrng(seed ^ 0x7115u);
      std::vector<BatchQueryInput> queries;
      for (size_t q = 0; q < 24; ++q) {
        queries.push_back(
            {static_cast<Vertex>(qrng.NextBounded(n)),
             static_cast<Vertex>(qrng.NextBounded(n)),
             static_cast<Quality>(qrng.NextInRange(0, 6)) +
                 (qrng.NextBool(0.3) ? 0.5f : 0.0f)});
      }

      Rng trng(seed ^ 0xabcdu);
      for (int round = 0; round < 3; ++round) {
        std::vector<uint64_t> fences = RandomFences(trng, n);
        std::vector<std::string> paths;
        for (size_t k = 0; k + 1 < fences.size(); ++k) {
          std::string path = dir + "/tiling_" + std::to_string(seed) + "_" +
                             std::to_string(round) + "_" +
                             std::to_string(k) + ".shard";
          ASSERT_TRUE(
              WriteSnapshotShard(path, flat, fences[k], fences[k + 1], n)
                  .ok());
          paths.push_back(path);
        }
        ++tilings;
        QueryEngineOptions options;
        options.num_threads = 1;
        auto sharded = QueryEngine::OpenMmap(paths, options);
        ASSERT_TRUE(sharded.ok())
            << sharded.status().ToString() << " seed=" << seed
            << " round=" << round;
        std::vector<Distance> expected;
        for (const BatchQueryInput& q : queries) {
          Distance want = reference.Query(q.s, q.t, q.w);
          expected.push_back(want);
          EXPECT_EQ(sharded.value().Query(q.s, q.t, q.w), want)
              << "seed=" << seed << " shards=" << paths.size()
              << " s=" << q.s << " t=" << q.t << " w=" << q.w;
        }
        EXPECT_EQ(sharded.value().Batch(queries), expected)
            << "seed=" << seed;
        for (const std::string& path : paths) std::remove(path.c_str());
      }

      // The planner + manifest path: a planned shard set must be just
      // another valid tiling.
      ShardPlanOptions plan_options;
      plan_options.num_shards =
          1 + static_cast<size_t>(trng.NextBounded(5));
      auto plan = PlanShards(flat, plan_options);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      auto written = WriteShardSet(dir + "/tiling_" + std::to_string(seed),
                                   flat, plan.value());
      ASSERT_TRUE(written.ok()) << written.status().ToString();
      ++tilings;
      {
        QueryEngineOptions options;
        options.num_threads = 1;
        SnapshotLoadOptions verify;
        verify.verify_checksums = true;  // exercise the fingerprint path
        auto sharded = QueryEngine::OpenManifest(
            written.value().manifest_path, options, verify);
        ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
        for (const BatchQueryInput& q : queries) {
          EXPECT_EQ(sharded.value().Query(q.s, q.t, q.w),
                    reference.Query(q.s, q.t, q.w))
              << "manifest seed=" << seed;
        }
      }
      // A cache-enabled sharded engine over the same planned set must stay
      // bit-identical too — across the full query list twice, so repeat
      // queries go through the interval-hit path.
      {
        QueryEngineOptions options;
        options.num_threads = 1;
        options.cache_bytes = 16 << 10;
        auto cached = QueryEngine::OpenManifest(
            written.value().manifest_path, options);
        ASSERT_TRUE(cached.ok()) << cached.status().ToString();
        ASSERT_NE(cached.value().cache(), nullptr);
        // The cache binds to the tiling-invariant content fingerprint.
        EXPECT_EQ(cached.value().cache()->fingerprint(),
                  IndexContentFingerprint(flat));
        for (int pass = 0; pass < 2; ++pass) {
          for (const BatchQueryInput& q : queries) {
            EXPECT_EQ(cached.value().Query(q.s, q.t, q.w),
                      reference.Query(q.s, q.t, q.w))
                << "cached pass=" << pass << " seed=" << seed;
          }
        }
        EXPECT_GT(cached.value().stats().cache_hits, 0u);
      }
      std::remove(written.value().manifest_path.c_str());
      for (const std::string& path : written.value().shard_paths) {
        std::remove(path.c_str());
      }
      std::remove(snap.c_str());
    }
  }
  EXPECT_GE(graphs, 50u);
  EXPECT_GE(tilings, 200u);
}

void ExpectSameRanking(const std::vector<RankedCandidate>& a,
                       const std::vector<RankedCandidate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].vertex, b[i].vertex);
    EXPECT_EQ(a[i].dist, b[i].dist);
  }
}

void ExpectSameProfile(const std::vector<ProfilePoint>& a,
                       const std::vector<ProfilePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].quality, b[i].quality);
    EXPECT_EQ(a[i].dist, b[i].dist);
  }
}

TEST(ShardTiling, OneShardTilingEqualsDirectOpen) {
  const std::string dir = testing::TempDir();
  QualityGraph g = MakeTilingGraph(1, 8101);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  index.Finalize();
  const uint64_t n = index.NumVertices();
  Rng rng(0x1a5u);
  std::vector<BatchQueryInput> queries;
  for (size_t q = 0; q < 300; ++q) {
    queries.push_back({static_cast<Vertex>(rng.NextBounded(n)),
                       static_cast<Vertex>(rng.NextBounded(n)),
                       static_cast<Quality>(rng.NextInRange(0, 6))});
  }
  queries.push_back({3, 3, 1.0f});                         // s == t
  queries.push_back({0, static_cast<Vertex>(n + 5), 1.0f});  // out of range

  for (bool compress : {false, true}) {
    SCOPED_TRACE(compress ? "compressed" : "flat");
    const std::string path =
        dir + (compress ? "/one_shard_c.wcsnap" : "/one_shard.wcsnap");
    SnapshotWriteOptions write;
    write.compress = compress;
    ASSERT_TRUE(index.SaveSnapshot(path, write).ok());
    QueryEngineOptions options;
    options.num_threads = 2;
    options.min_chunk = 16;
    auto direct = QueryEngine::Open(path, options);
    auto tiled = QueryEngine::OpenMmap({path}, options);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ASSERT_TRUE(tiled.ok()) << tiled.status().ToString();
    const QueryEngine& a = direct.value();
    const QueryEngine& b = tiled.value();
    EXPECT_TRUE(a.has_index());
    EXPECT_FALSE(b.has_index());
    EXPECT_EQ(a.num_shards(), 1u);
    EXPECT_EQ(b.num_shards(), 1u);

    for (const BatchQueryInput& q : queries) {
      ASSERT_EQ(b.Query(q.s, q.t, q.w), a.Query(q.s, q.t, q.w))
          << "s=" << q.s << " t=" << q.t << " w=" << q.w;
    }
    EXPECT_EQ(b.Batch(queries), a.Batch(queries));

    const std::vector<Quality> thresholds = {0.5f, 1.0f, 2.0f, 3.5f, 5.0f,
                                             6.0f};
    for (size_t i = 0; i < 20; ++i) {
      const Vertex source = static_cast<Vertex>(rng.NextBounded(n));
      std::vector<Vertex> candidates;
      for (size_t c = 0; c < 30; ++c) {
        candidates.push_back(static_cast<Vertex>(rng.NextBounded(n)));
      }
      const Quality w = static_cast<Quality>(rng.NextInRange(1, 5));
      std::vector<RankedCandidate> ranked_a, ranked_b;
      ASSERT_EQ(a.TopKEx(source, candidates, w, 7, &ranked_a),
                ServeOutcome::kOk);
      ASSERT_EQ(b.TopKEx(source, candidates, w, 7, &ranked_b),
                ServeOutcome::kOk);
      ExpectSameRanking(ranked_a, ranked_b);

      const Vertex t = static_cast<Vertex>(rng.NextBounded(n));
      std::vector<ProfilePoint> profile_a, profile_b;
      ASSERT_EQ(a.ProfileEx(source, t, thresholds, &profile_a),
                ServeOutcome::kOk);
      ASSERT_EQ(b.ProfileEx(source, t, thresholds, &profile_b),
                ServeOutcome::kOk);
      ExpectSameProfile(profile_a, profile_b);
    }

    const QueryEngineStats stats_a = a.stats();
    const QueryEngineStats stats_b = b.stats();
    EXPECT_EQ(stats_a.label_bytes, stats_b.label_bytes);
    EXPECT_EQ(stats_a.uncompressed_label_bytes,
              stats_b.uncompressed_label_bytes);
    EXPECT_EQ(stats_a.compressed, stats_b.compressed);
    EXPECT_EQ(stats_b.compressed, compress ? 1u : 0u);
    std::remove(path.c_str());
  }
}

TEST(ShardTiling, CrossShardCompressedMergeMatchesFlat) {
  const std::string dir = testing::TempDir();
  // Two regions with disjoint edge qualities joined by one bridge: labels
  // in the low region only ever see qualities {1, 2, 3}, while the high
  // region's labels also carry {4, 5}, so shards cut from different
  // regions compress against different dictionaries.
  constexpr Vertex kHalf = 36;
  Rng grng(0x8202u);
  GraphBuilder builder(2 * kHalf);
  for (Vertex base : {Vertex{0}, kHalf}) {
    const float low = base == 0 ? 1.0f : 4.0f;
    for (Vertex v = 0; v + 1 < kHalf; ++v) {
      builder.AddEdge(base + v, base + v + 1,
                      low + static_cast<float>(grng.NextBounded(2)));
    }
    for (size_t chord = 0; chord < kHalf / 2; ++chord) {
      const Vertex a = static_cast<Vertex>(grng.NextBounded(kHalf));
      const Vertex b = static_cast<Vertex>(grng.NextBounded(kHalf));
      if (a != b) {
        builder.AddEdge(base + a, base + b,
                        low + static_cast<float>(grng.NextBounded(2)));
      }
    }
  }
  builder.AddEdge(kHalf - 1, kHalf, 3.0f);
  QualityGraph g = builder.Build();
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  index.Finalize();
  const FlatLabelSet& flat = index.flat_labels();
  const uint64_t n = flat.NumVertices();

  // Even compressed shards: every shard file builds its own quality
  // dictionary from its own labels.
  constexpr uint64_t kShards = 6;
  SnapshotWriteOptions write;
  write.compress = true;
  std::vector<std::string> paths;
  std::vector<MappedSnapshot> shards;
  for (uint64_t k = 0; k < kShards; ++k) {
    const std::string path =
        dir + "/cross_shard_c" + std::to_string(k) + ".shard";
    ASSERT_TRUE(WriteSnapshotShard(path, flat, n * k / kShards,
                                   n * (k + 1) / kShards, n, {}, write)
                    .ok());
    auto mapped = LoadSnapshotMmap(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ASSERT_TRUE(mapped.value().info.compressed);
    shards.push_back(std::move(mapped).value());
    paths.push_back(path);
  }

  Rng rng(0xc705u);
  size_t differing_pairs = 0;
  for (uint64_t i = 0; i < kShards; ++i) {
    for (uint64_t j = 0; j < kShards; ++j) {
      const CompressedFlatLabelSet& ci = shards[i].compressed;
      const CompressedFlatLabelSet& cj = shards[j].compressed;
      const auto di = ci.raw_dictionary();
      const auto dj = cj.raw_dictionary();
      if (i == j || std::equal(di.begin(), di.end(), dj.begin(), dj.end())) {
        continue;
      }
      ++differing_pairs;
      const uint64_t bi = shards[i].info.vertex_begin;
      const uint64_t bj = shards[j].info.vertex_begin;
      for (size_t q = 0; q < 40; ++q) {
        const Vertex s =
            static_cast<Vertex>(bi + rng.NextBounded(ci.NumVertices()));
        const Vertex t =
            static_cast<Vertex>(bj + rng.NextBounded(cj.NumVertices()));
        const Quality w = static_cast<Quality>(rng.NextInRange(0, 7)) +
                          (rng.NextBool(0.3) ? 0.5f : 0.0f);
        ASSERT_EQ(QueryCompressedMerge(ci, static_cast<Vertex>(s - bi), cj,
                                       static_cast<Vertex>(t - bj), w),
                  QueryFlatMerge(flat.View(s), flat.View(t), w))
            << "shards " << i << "," << j << " s=" << s << " t=" << t
            << " w=" << w;
      }
    }
  }
  EXPECT_GT(differing_pairs, 0u);

  // The engine over the same compressed set, with no decode cache, streams
  // every pair through that kernel and serves the flat answers.
  QueryEngineOptions options;
  options.num_threads = 1;
  auto engine = QueryEngine::OpenMmap(paths, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_EQ(engine.value().decode_cache(), nullptr);
  for (size_t q = 0; q < 400; ++q) {
    const Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    const Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    const Quality w = static_cast<Quality>(rng.NextInRange(0, 7));
    ASSERT_EQ(engine.value().Query(s, t, w), index.Query(s, t, w))
        << "s=" << s << " t=" << t << " w=" << w;
  }
  for (const std::string& path : paths) std::remove(path.c_str());
}

}  // namespace
}  // namespace wcsd
