// Properties of the rank-batched parallel construction pipeline: for every
// thread count and batch size, the produced index must be BIT-IDENTICAL to
// the sequential build (Theorem 1's minimal index is canonical for a fixed
// vertex order), and its answers must match the ConstrainedDijkstra oracle.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/verifier.h"
#include "core/wc_index.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "search/constrained_dijkstra.h"
#include "util/random.h"

namespace wcsd {
namespace {

using Ordering = WcIndexOptions::Ordering;

QualityGraph MakeGraph(int which, uint64_t seed) {
  QualityModel quality;
  switch (which) {
    case 0:
      quality.num_levels = 5;
      return GenerateRandomConnected(120, 360, quality, seed);
    case 1:
      quality.num_levels = 8;
      return GenerateBarabasiAlbert(150, 4, quality, seed);
    case 2: {
      RoadOptions options;
      options.rows = options.cols = 12;
      options.quality.num_levels = 6;
      options.arterial_spacing = 5;
      return GenerateRoadNetwork(options, seed);
    }
    default:
      quality.num_levels = 3;
      return GenerateWattsStrogatz(140, 3, 0.2, quality, seed);
  }
}

using IdentityCase = std::tuple<int, size_t, size_t>;

class ParallelBuildIdentityTest : public testing::TestWithParam<IdentityCase> {
};

std::string IdentityCaseName(const testing::TestParamInfo<IdentityCase>& info) {
  auto [graph_kind, threads, batch] = info.param;
  std::string name = "g";
  name += std::to_string(graph_kind);
  name += "t";
  name += std::to_string(threads);
  name += "b";
  name += std::to_string(batch);
  return name;
}

TEST_P(ParallelBuildIdentityTest, MatchesSequentialBitForBit) {
  auto [graph_kind, threads, batch_size] = GetParam();
  QualityGraph g = MakeGraph(graph_kind, 97 + graph_kind);

  WcIndexOptions sequential = WcIndexOptions::Plus();
  sequential.num_threads = 1;
  WcIndex expected = WcIndex::Build(g, sequential);

  WcIndexOptions parallel = WcIndexOptions::Plus();
  parallel.num_threads = threads;
  parallel.batch_size = batch_size;
  WcIndex actual = WcIndex::Build(g, parallel);

  ASSERT_EQ(actual.labels(), expected.labels())
      << "threads=" << threads << " batch=" << batch_size;
  EXPECT_EQ(actual.TotalEntries(), expected.TotalEntries());
  EXPECT_EQ(actual.build_stats().entries_added,
            expected.build_stats().entries_added);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelBuildIdentityTest,
    testing::Combine(testing::Values(0, 1, 2, 3),
                     testing::Values(size_t{2}, size_t{4}, size_t{8}),
                     testing::Values(size_t{0}, size_t{1}, size_t{3},
                                     size_t{17}, size_t{64})),
    IdentityCaseName);

TEST(ParallelBuild, BasicConstructionQueryAlsoIdentical) {
  // The non-query-efficient cover check (plain WC-INDEX) goes through a
  // different code path; the pipeline must preserve it too.
  QualityGraph g = MakeGraph(0, 131);
  WcIndexOptions sequential = WcIndexOptions::Basic();
  sequential.num_threads = 1;
  WcIndexOptions parallel = WcIndexOptions::Basic();
  parallel.num_threads = 4;
  parallel.batch_size = 7;
  EXPECT_EQ(WcIndex::Build(g, parallel).labels(),
            WcIndex::Build(g, sequential).labels());
}

TEST(ParallelBuild, NoFurtherPruningIdentical) {
  QualityGraph g = MakeGraph(1, 133);
  WcIndexOptions sequential = WcIndexOptions::Plus();
  sequential.further_pruning = false;
  sequential.num_threads = 1;
  WcIndexOptions parallel = sequential;
  parallel.num_threads = 3;
  EXPECT_EQ(WcIndex::Build(g, parallel).labels(),
            WcIndex::Build(g, sequential).labels());
}

TEST(ParallelBuild, RecordParentsProducesAlignedParents) {
  QualityGraph g = MakeGraph(2, 137);
  WcIndexOptions options = WcIndexOptions::Plus();
  options.record_parents = true;
  options.num_threads = 4;
  options.batch_size = 5;
  WcIndex index = WcIndex::Build(g, options);
  ASSERT_TRUE(index.has_parents());
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(index.Parents(v).size(), index.labels().For(v).size());
  }
}

TEST(ParallelBuild, AnswersMatchConstrainedDijkstra) {
  for (int kind = 0; kind < 4; ++kind) {
    QualityGraph g = MakeGraph(kind, 211 + kind);
    WcIndexOptions options = WcIndexOptions::Plus();
    options.num_threads = 4;
    WcIndex index = WcIndex::Build(g, options);
    Rng rng(17 + kind);
    const size_t n = g.NumVertices();
    for (int i = 0; i < 250; ++i) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(n));
      Vertex t = static_cast<Vertex>(rng.NextBounded(n));
      Quality w = static_cast<Quality>(rng.NextInRange(1, 9));
      EXPECT_EQ(index.Query(s, t, w), ConstrainedDijkstraUnit(g, s, t, w))
          << "kind=" << kind << " " << s << "->" << t << " w=" << w;
    }
  }
}

TEST(ParallelBuild, ParallelIndexPassesFullVerification) {
  QualityGraph g = MakeGraph(0, 139);
  WcIndexOptions options = WcIndexOptions::Plus();
  options.num_threads = 8;
  options.batch_size = 2;
  WcIndex index = WcIndex::Build(g, options);
  VerificationReport report = VerifyAll(index, g);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(ParallelBuild, AutoThreadsAndTinyGraphs) {
  // num_threads = 0 resolves to hardware concurrency; degenerate graphs
  // must not wedge the pool.
  WcIndexOptions options = WcIndexOptions::Plus();
  options.num_threads = 0;

  GraphBuilder b0(0);
  EXPECT_EQ(WcIndex::Build(b0.Build(), options).TotalEntries(), 0u);

  GraphBuilder b1(1);
  WcIndex one = WcIndex::Build(b1.Build(), options);
  EXPECT_EQ(one.TotalEntries(), 1u);
  EXPECT_EQ(one.Query(0, 0, 1.0f), 0u);

  GraphBuilder b2(2);
  b2.AddEdge(0, 1, 2.0f);
  WcIndexOptions many = WcIndexOptions::Plus();
  many.num_threads = 16;  // more threads than vertices
  WcIndex two = WcIndex::Build(b2.Build(), many);
  EXPECT_EQ(two.Query(0, 1, 1.0f), 1u);
  EXPECT_EQ(two.Query(0, 1, 3.0f), kInfDistance);
}

}  // namespace
}  // namespace wcsd
