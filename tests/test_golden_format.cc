// Golden-file regression for the on-disk formats.
//
// tests/data holds a checked-in .wcsnap snapshot of the paper's Figure 3
// graph built with the identity order — a fully deterministic fixture —
// and a level-sliced (v4) snapshot of the smallest generator road graph
// the writer stores sliced.
// Loading it pins semantic compatibility (old files must keep producing
// the paper's answers), and re-serializing and byte-comparing pins the
// writer: any accidental format change — field width, endianness,
// ordering, padding — fails here before it can corrupt anyone's saved
// indexes. Deliberate format changes must bump the version and regenerate
// the goldens (see tests/data/README.md).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/wc_index.h"
#include "graph/generators.h"
#include "labeling/snapshot.h"
#include "paper_fixtures.h"
#include "search/constrained_dijkstra.h"

namespace wcsd {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(WCSD_TEST_DATA_DIR) + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void ExpectPaperAnswers(const WcIndex& index) {
  // Spot checks from the paper's Figure 3 worked example.
  EXPECT_EQ(index.TotalEntries(), 32u);
  EXPECT_EQ(index.Query(2, 5, 2.0f), 2u);
  QualityGraph g = MakeFigure3Graph();
  for (Vertex s = 0; s < g.NumVertices(); ++s) {
    for (Vertex t = 0; t < g.NumVertices(); ++t) {
      EXPECT_EQ(index.Query(s, t, 1.0f), index.Query(t, s, 1.0f));
    }
  }
}

TEST(GoldenFormat, SnapshotLoadsAndAnswers) {
  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  verify.verify_level = SnapshotVerifyLevel::kDeep;
  auto loaded = WcIndex::LoadMmap(GoldenPath("fig3_golden.wcsnap"), verify);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectPaperAnswers(loaded.value());
}

TEST(GoldenFormat, SnapshotWriterIsByteStable) {
  std::string golden = GoldenPath("fig3_golden.wcsnap");
  auto loaded = WcIndex::LoadMmap(golden);
  ASSERT_TRUE(loaded.ok());
  std::string resaved = testing::TempDir() + "/fig3_resave.wcsnap";
  ASSERT_TRUE(loaded.value().SaveSnapshot(resaved).ok());
  EXPECT_EQ(ReadFileBytes(resaved), ReadFileBytes(golden))
      << "the snapshot writer no longer produces the golden bytes — if the "
         "format changed deliberately, bump kSnapshotVersion and regenerate "
         "tests/data";
  std::remove(resaved.c_str());
}

TEST(GoldenFormat, GoldenMatchesFreshBuild) {
  QualityGraph g = MakeFigure3Graph();
  WcIndexOptions options;
  options.ordering = WcIndexOptions::Ordering::kIdentity;
  WcIndex fresh = WcIndex::Build(g, options);
  auto golden = WcIndex::LoadMmap(GoldenPath("fig3_golden.wcsnap"));
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  auto labels = golden.value().label_source().Materialize();
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  EXPECT_EQ(labels.value().ToLabelSet(), fresh.labels());
  EXPECT_EQ(golden.value().order().by_rank(), fresh.order().by_rank());
}

// The v4 golden's graph: the 9x9 generator road grid, 5 levels, seed 2 —
// the smallest such grid whose slices are no larger than its flat labels
// (the recipe is in tests/data/README.md).
QualityGraph SlicedGoldenGraph() {
  RoadOptions road;
  road.rows = road.cols = 9;
  road.quality.num_levels = 5;
  return GenerateRoadNetwork(road, 2);
}

TEST(GoldenFormat, SlicedSnapshotLoadsAndAnswers) {
  const std::string golden = GoldenPath("road9_sliced_golden.wcsnap");
  auto info = ReadSnapshotInfo(golden);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().version, 4u);
  EXPECT_TRUE(info.value().sliced);
  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  verify.verify_level = SnapshotVerifyLevel::kDeep;
  auto loaded = WcIndex::LoadMmap(golden, verify);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().label_source().form(), LabelForm::kSliced);
  EXPECT_EQ(loaded.value().TotalEntries(), 1372u);
  const QualityGraph g = SlicedGoldenGraph();
  for (Vertex s = 0; s < g.NumVertices(); s += 3) {
    for (Vertex t = 0; t < g.NumVertices(); ++t) {
      for (Quality w : {0.5f, 1.0f, 2.5f, 4.0f, 5.0f, 5.5f}) {
        ASSERT_EQ(loaded.value().Query(s, t, w),
                  ConstrainedDijkstraUnit(g, s, t, w))
            << s << "->" << t << " w=" << w;
      }
    }
  }
}

TEST(GoldenFormat, SlicedSnapshotWriterIsByteStable) {
  const std::string golden = GoldenPath("road9_sliced_golden.wcsnap");
  auto loaded = WcIndex::LoadMmap(golden);
  ASSERT_TRUE(loaded.ok());
  std::string resaved = testing::TempDir() + "/road9_resave.wcsnap";
  ASSERT_TRUE(loaded.value().SaveSnapshot(resaved).ok());
  EXPECT_EQ(ReadFileBytes(resaved), ReadFileBytes(golden))
      << "the sliced snapshot writer no longer produces the golden bytes";
  std::remove(resaved.c_str());
}

TEST(GoldenFormat, SlicedGoldenMatchesFreshBuild) {
  WcIndex fresh = WcIndex::Build(SlicedGoldenGraph());
  auto golden = WcIndex::LoadMmap(GoldenPath("road9_sliced_golden.wcsnap"));
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  auto labels = golden.value().label_source().Materialize();
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  EXPECT_EQ(labels.value().ToLabelSet(), fresh.labels());
  EXPECT_EQ(golden.value().order().by_rank(), fresh.order().by_rank());
}

}  // namespace
}  // namespace wcsd
