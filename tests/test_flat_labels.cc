// FlatLabelSet: CSR packing round-trips, serialization, query-kernel
// equivalence with the vector backend, and the WcIndex::Finalize routing.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/batch.h"
#include "core/wc_index.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "labeling/flat_label_set.h"
#include "labeling/query.h"
#include "util/random.h"

namespace wcsd {
namespace {

QualityGraph TestGraph(uint64_t seed) {
  QualityModel quality;
  quality.num_levels = 6;
  return GenerateRandomConnected(140, 420, quality, seed);
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(FlatLabelSet, RoundTripsThroughLabelSet) {
  WcIndex index = WcIndex::Build(TestGraph(7), WcIndexOptions::Plus());
  FlatLabelSet flat = FlatLabelSet::FromLabelSet(index.labels());
  EXPECT_EQ(flat.TotalEntries(), index.labels().TotalEntries());
  EXPECT_EQ(flat.NumVertices(), index.labels().NumVertices());
  EXPECT_EQ(flat.ToLabelSet(), index.labels());
  for (Vertex v = 0; v < flat.NumVertices(); ++v) {
    auto dense = index.labels().For(v);
    auto packed = flat.For(v);
    ASSERT_EQ(dense.size(), packed.size());
    for (size_t i = 0; i < dense.size(); ++i) EXPECT_EQ(dense[i], packed[i]);
  }
}

TEST(FlatLabelSet, HubDirectoryMatchesGroupStructure) {
  WcIndex index = WcIndex::Build(TestGraph(9), WcIndexOptions::Plus());
  FlatLabelSet flat = FlatLabelSet::FromLabelSet(index.labels());
  for (Vertex v = 0; v < flat.NumVertices(); ++v) {
    FlatLabelView view = flat.View(v);
    size_t entry = 0;
    for (size_t g = 0; g < view.groups.size(); ++g) {
      ASSERT_EQ(view.groups[g].begin, entry);
      size_t ge = view.GroupEnd(g);
      ASSERT_GT(ge, entry);
      for (size_t i = entry; i < ge; ++i) {
        EXPECT_EQ(view.entries[i].hub, view.groups[g].hub);
      }
      if (g > 0) {
        EXPECT_LT(view.groups[g - 1].hub, view.groups[g].hub);
      }
      entry = ge;
    }
    EXPECT_EQ(entry, view.entries.size());
  }
}

TEST(FlatLabelSet, SaveLoadRoundTrip) {
  WcIndex index = WcIndex::Build(TestGraph(11), WcIndexOptions::Plus());
  FlatLabelSet flat = FlatLabelSet::FromLabelSet(index.labels());
  std::string path = TempPath("flat_roundtrip.bin");
  ASSERT_TRUE(flat.Save(path).ok());
  auto loaded = FlatLabelSet::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(), flat);
  std::remove(path.c_str());
}

TEST(FlatLabelSet, LoadRejectsMissingAndCorruptFiles) {
  EXPECT_FALSE(FlatLabelSet::Load("/nonexistent/flat.bin").ok());
  std::string path = TempPath("flat_corrupt.bin");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "definitely not a flat label file";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_FALSE(FlatLabelSet::Load(path).ok());
  std::remove(path.c_str());
}

TEST(FlatLabelSet, EmptyAndSingleVertex) {
  FlatLabelSet empty = FlatLabelSet::FromLabelSet(LabelSet(0));
  EXPECT_EQ(empty.NumVertices(), 0u);
  EXPECT_EQ(empty.TotalEntries(), 0u);

  GraphBuilder b(1);
  WcIndex one = WcIndex::Build(b.Build());
  FlatLabelSet flat = FlatLabelSet::FromLabelSet(one.labels());
  EXPECT_EQ(flat.TotalEntries(), 1u);
  EXPECT_EQ(flat.View(0).groups.size(), 1u);
}

TEST(FlatQueryKernels, AgreeWithVectorKernelsOnAllImpls) {
  QualityGraph g = TestGraph(13);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  FlatLabelSet flat = FlatLabelSet::FromLabelSet(index.labels());
  Rng rng(29);
  const size_t n = g.NumVertices();
  for (int i = 0; i < 400; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    Quality w = static_cast<Quality>(rng.NextInRange(0, 8)) +
                (rng.NextBool(0.3) ? 0.5f : 0.0f);
    auto ls = index.labels().For(s);
    auto lt = index.labels().For(t);
    FlatLabelView fs = flat.View(s);
    FlatLabelView ft = flat.View(t);
    Distance expected = QueryLabelsMerge(ls, lt, w);
    EXPECT_EQ(QueryFlatMerge(fs, ft, w), expected);
    EXPECT_EQ(QueryFlatBinary(fs, ft, w), expected);
    EXPECT_EQ(QueryFlatHubGrouped(fs, ft, w), expected);
    EXPECT_EQ(QueryFlatScan(fs, ft, w), expected);
    HubQueryResult dense_hub = QueryLabelsMergeWithHub(ls, lt, w);
    HubQueryResult flat_hub = QueryFlatMergeWithHub(fs, ft, w);
    EXPECT_EQ(flat_hub.dist, dense_hub.dist);
    EXPECT_EQ(flat_hub.via_hub, dense_hub.via_hub);
    EXPECT_EQ(flat_hub.dist_from_s, dense_hub.dist_from_s);
    EXPECT_EQ(flat_hub.dist_to_t, dense_hub.dist_to_t);
  }
}

TEST(WcIndexFinalize, FullPipelineBuildFinalizeSaveLoadQuery) {
  // The ISSUE's acceptance flow: build -> finalize -> save -> load ->
  // query, with answers identical at every stage.
  QualityGraph g = TestGraph(17);
  WcIndexOptions options = WcIndexOptions::Plus();
  options.num_threads = 4;
  WcIndex index = WcIndex::Build(g, options);
  WcIndex reference = WcIndex::Build(g, WcIndexOptions::Plus());

  index.Finalize();
  ASSERT_TRUE(index.finalized());
  EXPECT_EQ(index.flat_labels().ToLabelSet(), reference.labels());

  std::string path = TempPath("finalized_index.wcx");
  ASSERT_TRUE(index.Save(path).ok());
  auto loaded = WcIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  loaded.value().Finalize();

  Rng rng(31);
  const size_t n = g.NumVertices();
  for (int i = 0; i < 300; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 7));
    Distance expected = reference.Query(s, t, w);
    EXPECT_EQ(index.Query(s, t, w), expected);
    EXPECT_EQ(loaded.value().Query(s, t, w), expected);
    for (QueryImpl impl : {QueryImpl::kScan, QueryImpl::kHubGrouped,
                           QueryImpl::kBinary, QueryImpl::kMerge}) {
      EXPECT_EQ(index.Query(s, t, w, impl), expected);
    }
  }
  std::remove(path.c_str());
}

TEST(WcIndexFinalize, BatchQueryRunsOnFlatBackend) {
  QualityGraph g = TestGraph(19);
  WcIndex dense = WcIndex::Build(g, WcIndexOptions::Plus());
  WcIndex flat = WcIndex::Build(g, WcIndexOptions::Plus());
  flat.Finalize();
  Rng rng(37);
  std::vector<BatchQueryInput> queries;
  for (int i = 0; i < 500; ++i) {
    queries.push_back({static_cast<Vertex>(rng.NextBounded(g.NumVertices())),
                       static_cast<Vertex>(rng.NextBounded(g.NumVertices())),
                       static_cast<Quality>(rng.NextInRange(1, 7))});
  }
  EXPECT_EQ(BatchQuery(flat, queries, 1), BatchQuery(dense, queries, 1));
  EXPECT_EQ(BatchQuery(flat, queries, 4), BatchQuery(dense, queries, 1));
}

TEST(WcIndexFinalize, MemoryBytesReportsFlatBackend) {
  WcIndex index = WcIndex::Build(TestGraph(23), WcIndexOptions::Plus());
  size_t dense_bytes = index.MemoryBytes();
  index.Finalize();
  size_t flat_bytes = index.MemoryBytes();
  EXPECT_GT(flat_bytes, 0u);
  // CSR drops the per-vertex vector header overhead; the hub directory is
  // smaller than that on every generated graph.
  EXPECT_LE(flat_bytes,
            dense_bytes + index.flat_labels().TotalEntries() * sizeof(HubGroup));
  EXPECT_EQ(index.flat_labels().MemoryBytes(), flat_bytes);
}

TEST(WcIndexGuards, OutOfRangeVerticesReturnInf) {
  QualityGraph g = TestGraph(41);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  const Vertex n = static_cast<Vertex>(index.NumVertices());
  EXPECT_EQ(index.Query(n, 0, 1.0f), kInfDistance);
  EXPECT_EQ(index.Query(0, n + 5, 1.0f), kInfDistance);
  EXPECT_EQ(index.Query(kNullVertex, kNullVertex, 1.0f), kInfDistance);
  EXPECT_EQ(index.Query(n, 0, 1.0f, QueryImpl::kScan), kInfDistance);
  EXPECT_EQ(index.QueryWithHub(n, 0, 1.0f).dist, kInfDistance);
  EXPECT_FALSE(index.Reachable(n, 0, 1.0f));
  index.Finalize();
  EXPECT_EQ(index.Query(n, 0, 1.0f), kInfDistance);
  EXPECT_EQ(index.Query(0, n, 1.0f, QueryImpl::kBinary), kInfDistance);

  // Empty index: any query is out of range.
  GraphBuilder b0(0);
  WcIndex empty = WcIndex::Build(b0.Build());
  EXPECT_EQ(empty.Query(0, 0, 1.0f), kInfDistance);
}

}  // namespace
}  // namespace wcsd
