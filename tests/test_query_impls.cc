// Query-implementation tests (§IV.A, §IV.C): the four algorithms must
// return identical answers, FirstWithQuality must honor Theorem 3, and the
// hub-reporting variant must be consistent with the plain query. The
// level-sliced kernel (labeling/sliced_labels.h) must answer like the flat
// merge, pinned constraints included.

#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "core/wc_index.h"
#include "graph/generators.h"
#include "labeling/query.h"
#include "labeling/sliced_labels.h"
#include "paper_fixtures.h"
#include "util/random.h"

namespace wcsd {
namespace {

TEST(FirstWithQualityTest, BinarySearchSemantics) {
  std::vector<LabelEntry> entries{
      {7, 1, 1.0f}, {7, 2, 3.0f}, {7, 4, 5.0f}, {7, 9, 9.0f}};
  std::span<const LabelEntry> span{entries.data(), entries.size()};
  EXPECT_EQ(FirstWithQuality(span, 0, 4, 0.5f), 0u);
  EXPECT_EQ(FirstWithQuality(span, 0, 4, 1.0f), 0u);
  EXPECT_EQ(FirstWithQuality(span, 0, 4, 2.0f), 1u);
  EXPECT_EQ(FirstWithQuality(span, 0, 4, 5.0f), 2u);
  EXPECT_EQ(FirstWithQuality(span, 0, 4, 9.5f), 4u);  // none
  // Sub-range variant.
  EXPECT_EQ(FirstWithQuality(span, 1, 3, 4.0f), 2u);
}

TEST(QueryImplsTest, EmptyLabelsAreInf) {
  std::vector<LabelEntry> empty;
  std::vector<LabelEntry> some{{0, 1, 2.0f}};
  std::span<const LabelEntry> e{empty.data(), empty.size()};
  std::span<const LabelEntry> s{some.data(), some.size()};
  for (QueryImpl impl : {QueryImpl::kScan, QueryImpl::kHubGrouped,
                         QueryImpl::kBinary, QueryImpl::kMerge}) {
    EXPECT_EQ(QueryLabels(e, s, 1.0f, impl), kInfDistance);
    EXPECT_EQ(QueryLabels(s, e, 1.0f, impl), kInfDistance);
    EXPECT_EQ(QueryLabels(e, e, 1.0f, impl), kInfDistance);
  }
}

TEST(QueryImplsTest, HandConstructedLabels) {
  // L(s): hub 0 at (2, q3); hub 2 at (1, q1), (3, q4).
  std::vector<LabelEntry> ls{{0, 2, 3.0f}, {2, 1, 1.0f}, {2, 3, 4.0f}};
  // L(t): hub 0 at (1, q2); hub 2 at (2, q4); hub 5 at (1, q9).
  std::vector<LabelEntry> lt{{0, 1, 2.0f}, {2, 2, 4.0f}, {5, 1, 9.0f}};
  std::span<const LabelEntry> s{ls.data(), ls.size()};
  std::span<const LabelEntry> t{lt.data(), lt.size()};
  for (QueryImpl impl : {QueryImpl::kScan, QueryImpl::kHubGrouped,
                         QueryImpl::kBinary, QueryImpl::kMerge}) {
    EXPECT_EQ(QueryLabels(s, t, 1.0f, impl), 3u);  // hub 0: 2+1 or hub 2: 1+2
    EXPECT_EQ(QueryLabels(s, t, 2.0f, impl), 3u);  // hub 0 still valid
    EXPECT_EQ(QueryLabels(s, t, 4.0f, impl), 5u);  // only hub 2: 3+2
    EXPECT_EQ(QueryLabels(s, t, 5.0f, impl), kInfDistance);
  }
}

TEST(QueryImplsTest, HubGroupedPrunesHighHubs) {
  // Hub 9 appears only in L(t); L(s)'s max hub is 3, so the group must be
  // skipped without affecting the result.
  std::vector<LabelEntry> ls{{3, 0, kInfQuality}};
  std::vector<LabelEntry> lt{{3, 2, 5.0f}, {9, 1, 9.0f}};
  std::span<const LabelEntry> s{ls.data(), ls.size()};
  std::span<const LabelEntry> t{lt.data(), lt.size()};
  EXPECT_EQ(QueryLabelsHubGrouped(s, t, 1.0f), 2u);
}

class QueryImplAgreementTest
    : public testing::TestWithParam<std::tuple<size_t, size_t, int, uint64_t>> {
};

TEST_P(QueryImplAgreementTest, AllFourAgreeOnRandomIndex) {
  auto [n, m, levels, seed] = GetParam();
  QualityModel quality;
  quality.num_levels = levels;
  QualityGraph g = GenerateRandomConnected(n, m, quality, seed);
  WcIndex index = WcIndex::Build(g);
  Rng rng(seed + 1);
  for (int i = 0; i < 300; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    Quality w = static_cast<Quality>(rng.NextInRange(1, levels + 1));
    Distance merge = index.Query(s, t, w, QueryImpl::kMerge);
    EXPECT_EQ(index.Query(s, t, w, QueryImpl::kScan), merge);
    EXPECT_EQ(index.Query(s, t, w, QueryImpl::kHubGrouped), merge);
    EXPECT_EQ(index.Query(s, t, w, QueryImpl::kBinary), merge);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomIndexes, QueryImplAgreementTest,
    testing::Values(std::make_tuple(30, 60, 3, 1),
                    std::make_tuple(50, 100, 5, 2),
                    std::make_tuple(80, 240, 8, 3),
                    std::make_tuple(120, 300, 2, 4),
                    std::make_tuple(60, 400, 12, 5)));

TEST(QueryWithHubTest, ConsistentWithPlainQuery) {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(70, 180, quality, 7);
  WcIndex index = WcIndex::Build(g);
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(70));
    Vertex t = static_cast<Vertex>(rng.NextBounded(70));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 6));
    HubQueryResult r = index.QueryWithHub(s, t, w);
    EXPECT_EQ(r.dist, index.Query(s, t, w));
    if (r.dist != kInfDistance && s != t) {
      EXPECT_EQ(r.dist_from_s + r.dist_to_t, r.dist);
      // The hub is a real vertex rank.
      EXPECT_LT(r.via_hub, g.NumVertices());
    }
  }
}

TEST(QueryWithHubTest, SelfQuery) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);
  HubQueryResult r = index.QueryWithHub(4, 4, 99.0f);
  EXPECT_EQ(r.dist, 0u);
  EXPECT_EQ(r.dist_from_s, 0u);
  EXPECT_EQ(r.dist_to_t, 0u);
}

// Flat labels of the given vertices (each sorted by hub, then distance).
FlatLabelSet FlatOf(const std::vector<std::vector<LabelEntry>>& labels) {
  LabelSet set(labels.size());
  for (size_t v = 0; v < labels.size(); ++v) {
    *set.Mutable(static_cast<Vertex>(v)) = labels[v];
  }
  return FlatLabelSet::FromLabelSet(set);
}

TEST(SlicedMergeTest, PinnedConstraintsMatchTheFlatKernel) {
  // L(s): hub 0 at (2, q3); hub 2 at (1, q1), (3, q4).
  // L(t): hub 0 at (1, q2); hub 2 at (2, q4); hub 5 at (1, q9).
  const std::vector<LabelEntry> ls{{0, 2, 3.0f}, {2, 1, 1.0f}, {2, 3, 4.0f}};
  const std::vector<LabelEntry> lt{{0, 1, 2.0f}, {2, 2, 4.0f}, {5, 1, 9.0f}};
  const FlatLabelSet both = FlatOf({ls, lt});
  auto sliced = SlicedLabelSet::FromFlat(both);
  ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
  const SlicedLabelSet& set = sliced.value();
  ASSERT_EQ(set.NumLevels(), 5u);  // {1, 2, 3, 4, 9}
  // Level q1 holds every group at its first entry; level q4 keeps the
  // groups reaching quality 4, at their first such entry.
  const std::vector<SlicePair> s_level0(set.Slice(0, 0).begin(),
                                        set.Slice(0, 0).end());
  EXPECT_EQ(s_level0, (std::vector<SlicePair>{{0, 2}, {2, 1}}));
  const std::vector<SlicePair> s_level3(set.Slice(3, 0).begin(),
                                        set.Slice(3, 0).end());
  EXPECT_EQ(s_level3, (std::vector<SlicePair>{{2, 3}}));
  EXPECT_TRUE(set.Slice(4, 0).empty());
  EXPECT_EQ(set.Slice(4, 1).size(), 1u);

  // The same labels in two sets, each with its own dictionary ({1, 3, 4}
  // and {2, 4, 9}): a cross-shard pair picks a level per side.
  const SlicedLabelSet s_only = SlicedLabelSet::FromFlat(FlatOf({ls})).value();
  const SlicedLabelSet t_only = SlicedLabelSet::FromFlat(FlatOf({lt})).value();
  ASSERT_EQ(s_only.NumLevels(), 3u);
  ASSERT_EQ(t_only.NumLevels(), 3u);

  const Quality nan = std::numeric_limits<Quality>::quiet_NaN();
  const std::pair<Quality, Distance> cases[] = {
      {-kInfQuality, 3}, {0.5f, 3},           // below the lowest level
      {1.0f, 3},         {2.0f, 3},
      {2.5f, 5},         {3.0f, 5},           // between levels
      {4.0f, 5},         {4.5f, kInfDistance},
      {9.0f, kInfDistance},                   // the top level
      {9.5f, kInfDistance},                   // above the top level
      {kInfQuality, kInfDistance}, {nan, kInfDistance}};
  for (const auto& [w, want] : cases) {
    EXPECT_EQ(QueryFlatMerge(both.View(0), both.View(1), w), want) << w;
    EXPECT_EQ(QuerySlicedMerge(set, 0, set, 1, w), want) << w;
    EXPECT_EQ(QuerySlicedMerge(set, 1, set, 0, w), want) << w;
    EXPECT_EQ(QuerySlicedMerge(s_only, 0, t_only, 0, w), want) << w;
  }
  EXPECT_EQ(set.LevelFor(nan), set.NumLevels());
  EXPECT_EQ(set.LevelFor(9.5f), set.NumLevels());
  EXPECT_EQ(set.LevelFor(-kInfQuality), 0u);
  EXPECT_EQ(set.LevelFor(2.5f), 2u);
  // Out-of-range endpoints answer INF, like the other kernels.
  EXPECT_EQ(QuerySlicedMerge(set, 2, set, 0, 1.0f), kInfDistance);

  // The rebuild is exact.
  DecodedLabel decoded;
  ASSERT_TRUE(set.DecodeVertex(0, &decoded).ok());
  EXPECT_EQ(decoded.entries, ls);
  ASSERT_TRUE(set.DecodeVertex(1, &decoded).ok());
  EXPECT_EQ(decoded.entries, lt);
  EXPECT_EQ(decoded.groups,
            (std::vector<HubGroup>{{0, 0}, {2, 1}, {5, 2}}));
}

TEST(SlicedMergeTest, RefusesLabelsItCannotRebuild) {
  // Equal qualities in one hub group: the second entry would never be a
  // level's first qualifying entry, so slicing would drop it.
  const FlatLabelSet equal_quality = FlatOf({{{0, 1, 2.0f}, {0, 2, 2.0f}}});
  EXPECT_FALSE(SlicedLabelSet::FromFlat(equal_quality).ok());
  EXPECT_FALSE(SlicedLabelSet::FromFlatIfNoLarger(equal_quality).has_value());
  const FlatLabelSet nan_quality = FlatOf(
      {{{0, 1, std::numeric_limits<Quality>::quiet_NaN()}}});
  EXPECT_FALSE(SlicedLabelSet::FromFlat(nan_quality).ok());
  const FlatLabelSet negative_zero = FlatOf({{{0, 1, -0.0f}}});
  EXPECT_FALSE(SlicedLabelSet::FromFlat(negative_zero).ok());
  // A well-formed group slices, and no larger than flat when the labels
  // have few levels.
  const FlatLabelSet fine = FlatOf({{{0, 1, 2.0f}, {0, 2, 3.0f}}});
  EXPECT_TRUE(SlicedLabelSet::FromFlat(fine).ok());
}

TEST(SlicedMergeTest, AgreesWithFlatMergeOnRandomIndex) {
  QualityModel quality;
  quality.num_levels = 6;
  QualityGraph g = GenerateRandomConnected(80, 200, quality, 21);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  index.Finalize();
  const FlatLabelSet& flat = index.flat_labels();
  const SlicedLabelSet sliced = SlicedLabelSet::FromFlat(flat).value();
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const Vertex s = static_cast<Vertex>(rng.NextBounded(80));
    const Vertex t = static_cast<Vertex>(rng.NextBounded(80));
    const Quality w = static_cast<Quality>(rng.NextInRange(0, 7)) +
                      (rng.NextBool(0.5) ? 0.5f : 0.0f);
    ASSERT_EQ(QuerySlicedMerge(sliced, s, sliced, t, w),
              QueryFlatMerge(flat.View(s), flat.View(t), w))
        << s << "->" << t << " w=" << w;
  }
}

}  // namespace
}  // namespace wcsd
