// Snapshot format tests: mmap round trips, shard slicing, and the negative
// paths — truncation, bad magic, wrong version, header and section
// corruption must all fail with a clean Status, never a crash or a silent
// wrong answer — for every format version, the v4 level-sliced sections
// included.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/wc_index.h"
#include "graph/generators.h"
#include "labeling/shard_manifest.h"
#include "labeling/sliced_labels.h"
#include "labeling/snapshot.h"
#include "paper_fixtures.h"
#include "util/checksum.h"
#include "util/random.h"

namespace wcsd {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

WcIndex BuildFinalizedIndex() {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(150, 400, quality, 11);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  index.Finalize();
  return index;
}

TEST(Snapshot, MmapRoundTripIsBitIdentical) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("round.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());

  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  verify.verify_level = SnapshotVerifyLevel::kDeep;
  auto loaded = WcIndex::LoadMmap(path, verify);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const WcIndex& mm = loaded.value();

  EXPECT_TRUE(mm.finalized());
  EXPECT_TRUE(mm.flat_labels().external());
  EXPECT_EQ(mm.NumVertices(), index.NumVertices());
  EXPECT_EQ(mm.TotalEntries(), index.TotalEntries());
  EXPECT_EQ(mm.flat_labels(), index.flat_labels());
  EXPECT_EQ(mm.order().by_rank(), index.order().by_rank());

  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(index.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.NextBounded(index.NumVertices()));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 6));
    for (QueryImpl impl : {QueryImpl::kScan, QueryImpl::kHubGrouped,
                           QueryImpl::kBinary, QueryImpl::kMerge}) {
      ASSERT_EQ(mm.Query(s, t, w, impl), index.Query(s, t, w, impl))
          << "impl=" << static_cast<int>(impl) << " s=" << s << " t=" << t
          << " w=" << w;
    }
    HubQueryResult a = mm.QueryWithHub(s, t, w);
    HubQueryResult b = index.QueryWithHub(s, t, w);
    ASSERT_EQ(a.dist, b.dist);
    ASSERT_EQ(a.via_hub, b.via_hub);
  }
  std::remove(path.c_str());
}

TEST(Snapshot, SurvivesSourceIndexDestruction) {
  std::string path = TempPath("lifetime.wcsnap");
  {
    WcIndex index = BuildFinalizedIndex();
    ASSERT_TRUE(index.SaveSnapshot(path).ok());
  }
  auto loaded = WcIndex::LoadMmap(path);
  ASSERT_TRUE(loaded.ok());
  // Copy the index; the copy must keep the mapping alive on its own.
  WcIndex copy = loaded.value();
  EXPECT_GT(copy.TotalEntries(), 0u);
  EXPECT_NE(copy.Query(0, 1, 1.0f), kInfDistance + 1);  // exercises a read
  std::remove(path.c_str());
}

TEST(Snapshot, SaveRequiresFinalize) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);
  Status st = index.SaveSnapshot(TempPath("unfinalized.wcsnap"));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(Snapshot, LabelOnlySnapshotLoadsButNotAsWcIndex) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("label_only.wcsnap");
  ASSERT_TRUE(WriteSnapshot(path, index.flat_labels(), nullptr).ok());

  auto snapshot = LoadSnapshotMmap(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_FALSE(snapshot.value().info.has_order);
  EXPECT_EQ(snapshot.value().labels.flat(), index.flat_labels());

  auto as_index = WcIndex::LoadMmap(path);
  EXPECT_FALSE(as_index.ok());
  EXPECT_EQ(as_index.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Snapshot, EmptyIndexRoundTrips) {
  WcIndex index = WcIndex::Build(QualityGraph());
  index.Finalize();
  std::string path = TempPath("empty.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  auto loaded = WcIndex::LoadMmap(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().NumVertices(), 0u);
  EXPECT_EQ(loaded.value().Query(0, 1, 1.0f), kInfDistance);
  std::remove(path.c_str());
}

TEST(Snapshot, MissingFileIsIoError) {
  auto loaded = WcIndex::LoadMmap("/does/not/exist.wcsnap");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(Snapshot, TruncationRejectedAtEveryLevel) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("trunc.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 8192u);

  // Mid-header, just past the header page, and mid-section.
  for (size_t keep : {size_t{100}, size_t{4096}, bytes.size() / 2}) {
    std::string t = TempPath("trunc_cut.wcsnap");
    WriteFileBytes(t, bytes.substr(0, keep));
    auto loaded = WcIndex::LoadMmap(t);
    EXPECT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    std::remove(t.c_str());
  }
  std::remove(path.c_str());
}

TEST(Snapshot, BadMagicRejected) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("magic.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[0] ^= 0x5A;
  WriteFileBytes(path, bytes);
  auto loaded = WcIndex::LoadMmap(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Snapshot, WrongVersionRejected) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("version.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  // The u32 version sits right after the u64 magic.
  bytes[8] = 99;
  WriteFileBytes(path, bytes);
  auto loaded = WcIndex::LoadMmap(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Snapshot, HeaderCorruptionCaughtByChecksum) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("header_corrupt.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[40] ^= 0xFF;  // inside the vertex-range fields / section table
  WriteFileBytes(path, bytes);
  auto loaded = WcIndex::LoadMmap(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Snapshot, SectionCorruptionCaughtUnderVerify) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("section_corrupt.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  // Flip one byte deep inside the section payloads (past the header page
  // and the order/offsets sections).
  bytes[bytes.size() - 64] ^= 0x01;
  WriteFileBytes(path, bytes);

  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  auto checked = WcIndex::LoadMmap(path, verify);
  EXPECT_FALSE(checked.ok());
  EXPECT_EQ(checked.status().code(), StatusCode::kCorruption);
  EXPECT_NE(checked.status().message().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

// The middle validation tier: a corrupted hub-directory `begin` — the
// field query kernels index entry slices with — must be caught by
// verify_level = kDirectory (and kDeep), while the default O(vertices)
// load, which never reads group pages, still maps the file. This is the
// crash window the tier exists to close.
TEST(Snapshot, GroupCorruptionCaughtAtDirectoryLevel) {
  WcIndex index = BuildFinalizedIndex();
  ASSERT_GT(index.flat_labels().raw_groups().size(), 0u);
  std::string path = TempPath("group_corrupt.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  // The groups section is written last, so the file's final 8 bytes are
  // the last HubGroup and its trailing u32 is that group's `begin`. Point
  // it far outside any entry slice.
  for (size_t i = bytes.size() - 4; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(0xFF);
  }
  WriteFileBytes(path, bytes);

  // Default load trusts group payloads and succeeds.
  auto trusting = WcIndex::LoadMmap(path);
  EXPECT_TRUE(trusting.ok()) << trusting.status().ToString();

  SnapshotLoadOptions directory;
  directory.verify_level = SnapshotVerifyLevel::kDirectory;
  auto checked = WcIndex::LoadMmap(path, directory);
  EXPECT_FALSE(checked.ok());
  EXPECT_EQ(checked.status().code(), StatusCode::kCorruption);
  EXPECT_NE(checked.status().message().find("hub directory"),
            std::string::npos);

  SnapshotLoadOptions deep;
  deep.verify_level = SnapshotVerifyLevel::kDeep;
  EXPECT_FALSE(WcIndex::LoadMmap(path, deep).ok());
  std::remove(path.c_str());
}

// An uncorrupted snapshot must pass every verification tier (the middle
// tier cannot produce false positives on writer output).
TEST(Snapshot, AllVerifyLevelsAcceptAWellFormedSnapshot) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("levels_ok.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  for (SnapshotVerifyLevel level :
       {SnapshotVerifyLevel::kOffsets, SnapshotVerifyLevel::kDirectory,
        SnapshotVerifyLevel::kDeep}) {
    SnapshotLoadOptions options;
    options.verify_level = level;
    auto loaded = WcIndex::LoadMmap(path, options);
    ASSERT_TRUE(loaded.ok())
        << "level " << static_cast<int>(level) << ": "
        << loaded.status().ToString();
    EXPECT_EQ(loaded.value().TotalEntries(), index.TotalEntries());
  }
  std::remove(path.c_str());
}

// Unsorted hub ranks inside one vertex's directory are also a
// directory-tier catch (the kernels binary-search groups by rank).
TEST(Snapshot, UnsortedHubDirectoryCaughtAtDirectoryLevel) {
  WcIndex index = BuildFinalizedIndex();
  // Find a vertex with >= 2 hub groups and swap its first two directory
  // records in the file image (the groups section is the file's tail).
  const FlatLabelSet& flat = index.flat_labels();
  auto group_offsets = flat.raw_group_offsets();
  size_t vertex_group_begin = 0;
  bool found = false;
  for (Vertex v = 0; v < flat.NumVertices(); ++v) {
    if (group_offsets[v + 1] - group_offsets[v] >= 2) {
      vertex_group_begin = group_offsets[v];
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "fixture has no multi-group vertex";
  std::string path = TempPath("group_unsorted.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  const size_t groups_bytes = flat.raw_groups().size() * sizeof(HubGroup);
  const size_t section_start = bytes.size() - groups_bytes;
  const size_t at = section_start + vertex_group_begin * sizeof(HubGroup);
  // Swap the two 4-byte hub ranks (fields 0 of records 0 and 1), keeping
  // the begins intact: ranks now descend.
  std::swap_ranges(bytes.begin() + static_cast<ptrdiff_t>(at),
                   bytes.begin() + static_cast<ptrdiff_t>(at + 4),
                   bytes.begin() + static_cast<ptrdiff_t>(at + 8));
  WriteFileBytes(path, bytes);

  SnapshotLoadOptions directory;
  directory.verify_level = SnapshotVerifyLevel::kDirectory;
  auto checked = WcIndex::LoadMmap(path, directory);
  EXPECT_FALSE(checked.ok());
  EXPECT_EQ(checked.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(Snapshot, ReadInfoReportsHeaderFields) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("info.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  // Writers emit the smallest version that can carry the payload: a
  // parent-less index stays on v1 so pre-v6 readers keep loading it.
  EXPECT_EQ(info.value().version, 1u);
  EXPECT_FALSE(info.value().has_parents);
  EXPECT_EQ(info.value().num_vertices_total, index.NumVertices());
  EXPECT_TRUE(info.value().IsFullRange());
  EXPECT_TRUE(info.value().has_order);
  std::remove(path.c_str());
}

TEST(Snapshot, ShardFilesSliceTheIndex) {
  WcIndex index = BuildFinalizedIndex();
  const uint64_t n = index.NumVertices();
  std::string path = TempPath("one_shard.wcsnap");
  ASSERT_TRUE(
      WriteSnapshotShard(path, index.flat_labels(), 40, 110, n).ok());
  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  verify.verify_level = SnapshotVerifyLevel::kDeep;
  auto shard = LoadSnapshotMmap(path, verify);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  EXPECT_EQ(shard.value().info.vertex_begin, 40u);
  EXPECT_EQ(shard.value().info.vertex_end, 110u);
  EXPECT_EQ(shard.value().info.num_vertices_total, n);
  EXPECT_FALSE(shard.value().info.IsFullRange());
  EXPECT_EQ(shard.value().labels.NumVertices(), 70u);
  for (Vertex v = 40; v < 110; ++v) {
    auto expected = index.flat_labels().For(v);
    auto got = shard.value().labels.flat().For(v - 40);
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(), got.begin(),
                           got.end()))
        << "vertex " << v;
  }
  std::remove(path.c_str());
}

TEST(Snapshot, ShardWriterRejectsBadRanges) {
  WcIndex index = BuildFinalizedIndex();
  const uint64_t n = index.NumVertices();
  std::string path = TempPath("bad_shard.wcsnap");
  EXPECT_FALSE(
      WriteSnapshotShard(path, index.flat_labels(), 10, 5, n).ok());
  EXPECT_FALSE(
      WriteSnapshotShard(path, index.flat_labels(), 0, n + 1, n).ok());
  EXPECT_FALSE(
      WriteSnapshotShard(path, index.flat_labels(), 0, n, n + 7).ok());
}

// ------------------------------------------ v2 parents section (§V quads)

WcIndex BuildFinalizedIndexWithParents() {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(120, 320, quality, 17);
  WcIndexOptions options = WcIndexOptions::Plus();
  options.record_parents = true;
  WcIndex index = WcIndex::Build(g, options);
  index.Finalize();
  return index;
}

// The §V parent quads used to be silently dropped by SaveSnapshot; they
// must now survive the round trip entry-for-entry, as a CRC'd v2 section.
TEST(Snapshot, ParentsRoundTripThroughSnapshot) {
  WcIndex index = BuildFinalizedIndexWithParents();
  ASSERT_TRUE(index.has_parents());
  std::string path = TempPath("parents.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());

  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().version, 2u);
  EXPECT_TRUE(info.value().has_parents);

  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  verify.verify_level = SnapshotVerifyLevel::kDeep;
  auto loaded = WcIndex::LoadMmap(path, verify);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const WcIndex& mm = loaded.value();
  ASSERT_TRUE(mm.has_parents());
  for (Vertex v = 0; v < index.NumVertices(); ++v) {
    std::span<const Vertex> a = index.Parents(v);
    std::span<const Vertex> b = mm.Parents(v);
    ASSERT_EQ(a.size(), b.size()) << "vertex " << v;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "vertex " << v << " entry " << i;
    }
  }
  std::remove(path.c_str());
}

// A parent-less index writes a v1 file (smallest-version rule: old readers
// and checked-in goldens stay byte-compatible), and loading one reports
// the degraded parent-less mode explicitly instead of pretending.
TEST(Snapshot, ParentLessSnapshotIsV1AndReportsDegradedMode) {
  WcIndex index = BuildFinalizedIndex();  // record_parents off
  ASSERT_FALSE(index.has_parents());
  std::string path = TempPath("no_parents.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().version, 1u);
  EXPECT_FALSE(info.value().has_parents);
  auto loaded = WcIndex::LoadMmap(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value().has_parents());
  EXPECT_TRUE(loaded.value().Parents(0).empty());
  std::remove(path.c_str());
}

// Negative test against a real pre-v2 artifact: the checked-in Figure 3
// golden predates the parents section, and must load as explicit degraded
// mode — never an error, never phantom quads.
TEST(Snapshot, OldGoldenSnapshotLoadsWithoutParents) {
  std::string path =
      std::string(WCSD_TEST_DATA_DIR) + "/fig3_golden.wcsnap";
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().version, 1u);
  EXPECT_FALSE(info.value().has_parents);
  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  auto loaded = WcIndex::LoadMmap(path, verify);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value().has_parents());
}

// The parents section is checksummed like every other section: bit rot in
// the quads must fail a verify_checksums load, not corrupt routes.
TEST(Snapshot, ParentsCorruptionCaughtUnderVerify) {
  WcIndex index = BuildFinalizedIndexWithParents();
  std::string path = TempPath("parents_corrupt.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  // The parents section is written last in a v2 file, so the final bytes
  // are the last entries' parent vertices.
  bytes[bytes.size() - 2] ^= 0x01;
  WriteFileBytes(path, bytes);

  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  auto checked = WcIndex::LoadMmap(path, verify);
  EXPECT_FALSE(checked.ok());
  EXPECT_EQ(checked.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// ------------------------------------------ v4 level-sliced sections

// A road graph whose slices are smaller than its flat labels, so the
// writer stores it as v4.
WcIndex BuildSlicedIndex() {
  RoadOptions road;
  road.rows = road.cols = 16;
  road.quality.num_levels = 5;
  QualityGraph g = GenerateRoadNetwork(road, 1);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  index.Finalize();
  return index;
}

// Section ids and the v4 header layout (labeling/snapshot.cc): a 48-byte
// prefix, then 12 32-byte section descriptors, then the header CRC.
constexpr size_t kSliceDictSection = 9;
constexpr size_t kSliceOffsetsSection = 10;
constexpr size_t kSlicePairsSection = 11;
constexpr size_t kV4HeaderCrcAt = 48 + 12 * 32;

uint64_t SectionFileOffset(const std::string& bytes, size_t section) {
  uint64_t offset;
  std::memcpy(&offset, bytes.data() + 48 + 32 * section, sizeof(offset));
  return offset;
}

template <typename T>
T ReadAt(const std::string& bytes, size_t at) {
  T value;
  std::memcpy(&value, bytes.data() + at, sizeof(T));
  return value;
}

template <typename T>
void WriteAt(std::string* bytes, size_t at, T value) {
  std::memcpy(bytes->data() + at, &value, sizeof(T));
}

Status LoadAt(const std::string& path, SnapshotVerifyLevel level) {
  SnapshotLoadOptions options;
  options.verify_level = level;
  return LoadSnapshotMmap(path, options).status();
}

TEST(SlicedSnapshot, WriterRulePicksTheForm) {
  WcIndex road = BuildSlicedIndex();
  const FlatLabelSet& flat = road.flat_labels();
  ASSERT_TRUE(SlicedLabelSet::FromFlatIfNoLarger(flat).has_value());
  std::string path = TempPath("sliced.wcsnap");
  ASSERT_TRUE(road.SaveSnapshot(path).ok());
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().version, 4u);
  EXPECT_TRUE(info.value().sliced);
  EXPECT_FALSE(info.value().compressed);
  EXPECT_FALSE(info.value().has_parents);

  // compress wins over the rule: v3; back again gives the v4 bytes.
  std::string packed = TempPath("sliced_c.wcsnap");
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(road.SaveSnapshot(packed, compress).ok());
  EXPECT_EQ(ReadSnapshotInfo(packed).value().version, 3u);
  auto reloaded = WcIndex::LoadMmap(packed);
  ASSERT_TRUE(reloaded.ok());
  std::string again = TempPath("sliced_again.wcsnap");
  ASSERT_TRUE(reloaded.value().SaveSnapshot(again).ok());
  EXPECT_EQ(ReadFileBytes(again), ReadFileBytes(path));

  // Parents keep the flat entry array they align with: v2.
  QualityGraph g = MakeFigure3Graph();
  WcIndexOptions with_parents = WcIndexOptions::Plus();
  with_parents.record_parents = true;
  RoadOptions road_options;
  road_options.rows = road_options.cols = 16;
  road_options.quality.num_levels = 5;
  WcIndex quads = WcIndex::Build(GenerateRoadNetwork(road_options, 1),
                                 with_parents);
  quads.Finalize();
  std::string v2 = TempPath("sliced_parents.wcsnap");
  ASSERT_TRUE(quads.SaveSnapshot(v2).ok());
  EXPECT_EQ(ReadSnapshotInfo(v2).value().version, 2u);

  // Labels whose slices would be larger stay v1.
  WcIndex fig3 = WcIndex::Build(g);
  fig3.Finalize();
  EXPECT_FALSE(
      SlicedLabelSet::FromFlatIfNoLarger(fig3.flat_labels()).has_value());
  std::string v1 = TempPath("fig3_flat.wcsnap");
  ASSERT_TRUE(fig3.SaveSnapshot(v1).ok());
  EXPECT_EQ(ReadSnapshotInfo(v1).value().version, 1u);
  for (const std::string& p : {path, packed, again, v2, v1}) {
    std::remove(p.c_str());
  }
}

TEST(SlicedSnapshot, MmapRoundTripIsBitIdentical) {
  WcIndex index = BuildSlicedIndex();
  std::string path = TempPath("sliced_round.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  verify.verify_level = SnapshotVerifyLevel::kDeep;
  auto loaded = WcIndex::LoadMmap(path, verify);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const WcIndex& mm = loaded.value();
  const LabelSource& source = mm.label_source();
  EXPECT_EQ(source.form(), LabelForm::kSliced);
  EXPECT_TRUE(source.external());
  EXPECT_EQ(source.TotalEntries(), index.TotalEntries());
  EXPECT_LT(source.MemoryBytes(), index.flat_labels().MemoryBytes());
  EXPECT_EQ(source.UncompressedBytes(), index.flat_labels().MemoryBytes());
  EXPECT_EQ(mm.ContentFingerprint(),
            IndexContentFingerprint(index.flat_labels()));
  auto materialized = source.Materialize();
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(materialized.value(), index.flat_labels());
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const Vertex s = static_cast<Vertex>(rng.NextBounded(256));
    const Vertex t = static_cast<Vertex>(rng.NextBounded(256));
    const Quality w = static_cast<Quality>(rng.NextInRange(0, 6));
    ASSERT_EQ(mm.Query(s, t, w), index.Query(s, t, w));
    ASSERT_EQ(mm.QueryWithInterval(s, t, w), index.QueryWithInterval(s, t, w));
  }
  std::remove(path.c_str());
}

TEST(SlicedSnapshot, ShardsCarryTheirOwnDictionary) {
  WcIndex index = BuildSlicedIndex();
  const uint64_t n = index.NumVertices();
  std::string path = TempPath("sliced_shard.wcsnap");
  ASSERT_TRUE(
      WriteSnapshotShard(path, index.flat_labels(), 60, 200, n).ok());
  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  verify.verify_level = SnapshotVerifyLevel::kDeep;
  auto shard = LoadSnapshotMmap(path, verify);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  ASSERT_TRUE(shard.value().info.sliced);
  DecodedLabel scratch;
  for (Vertex v = 60; v < 200; ++v) {
    auto expected = index.flat_labels().For(v);
    auto got = shard.value().labels.View(v - 60, &scratch).entries;
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(), got.begin(),
                           got.end()))
        << "vertex " << v;
  }
  std::remove(path.c_str());
}

TEST(SlicedSnapshot, TruncationRejectedAtEveryLevel) {
  WcIndex index = BuildSlicedIndex();
  std::string path = TempPath("sliced_trunc.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  const std::string bytes = ReadFileBytes(path);
  const size_t pairs_at = SectionFileOffset(bytes, kSlicePairsSection);
  ASSERT_LT(pairs_at, bytes.size());
  for (size_t keep : {size_t{100}, size_t{4096},
                      SectionFileOffset(bytes, kSliceOffsetsSection) + 8,
                      pairs_at + 8, bytes.size() - 1}) {
    std::string t = TempPath("sliced_trunc_cut.wcsnap");
    WriteFileBytes(t, bytes.substr(0, keep));
    for (SnapshotVerifyLevel level :
         {SnapshotVerifyLevel::kOffsets, SnapshotVerifyLevel::kDirectory,
          SnapshotVerifyLevel::kDeep}) {
      Status st = LoadAt(t, level);
      EXPECT_EQ(st.code(), StatusCode::kCorruption)
          << "kept " << keep << " bytes, level " << static_cast<int>(level);
    }
    std::remove(t.c_str());
  }
  std::remove(path.c_str());
}

TEST(SlicedSnapshot, SectionCorruptionCaughtUnderVerify) {
  WcIndex index = BuildSlicedIndex();
  std::string path = TempPath("sliced_crc.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  for (size_t section :
       {kSliceDictSection, kSliceOffsetsSection, kSlicePairsSection}) {
    std::string bytes = ReadFileBytes(path);
    bytes[SectionFileOffset(bytes, section) + 1] ^= 0x10;
    std::string t = TempPath("sliced_crc_flip.wcsnap");
    WriteFileBytes(t, bytes);
    SnapshotLoadOptions verify;
    verify.verify_checksums = true;
    auto checked = LoadSnapshotMmap(t, verify);
    ASSERT_FALSE(checked.ok()) << "section " << section;
    EXPECT_NE(checked.status().message().find("checksum"), std::string::npos);
    std::remove(t.c_str());
  }
  std::remove(path.c_str());
}

// Level offsets and the dictionary are what the kernel indexes and
// searches with, so every load checks them — the default tier included.
TEST(SlicedSnapshot, OffsetAndDictionaryCorruptionCaughtOnLoad) {
  WcIndex index = BuildSlicedIndex();
  const size_t rows = index.NumVertices() + 1;
  std::string path = TempPath("sliced_shape.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  const std::string clean = ReadFileBytes(path);
  const size_t offsets_at = SectionFileOffset(clean, kSliceOffsetsSection);
  const size_t dict_at = SectionFileOffset(clean, kSliceDictSection);
  std::vector<std::pair<const char*, std::string>> corrupt;
  {
    // An interior offset of level 1 past the end of the pairs.
    std::string bytes = clean;
    WriteAt<uint64_t>(&bytes, offsets_at + 8 * (rows + 5), ~uint64_t{0} >> 4);
    corrupt.emplace_back("offset out of range", bytes);
  }
  {
    // Level 2 does not start where level 1 ends.
    std::string bytes = clean;
    const uint64_t at = offsets_at + 8 * (2 * rows);
    WriteAt<uint64_t>(&bytes, at, ReadAt<uint64_t>(bytes, at) - 1);
    corrupt.emplace_back("levels not contiguous", bytes);
  }
  {
    std::string bytes = clean;
    const Quality q0 = ReadAt<Quality>(bytes, dict_at);
    const Quality q1 = ReadAt<Quality>(bytes, dict_at + 4);
    WriteAt<Quality>(&bytes, dict_at, q1);
    WriteAt<Quality>(&bytes, dict_at + 4, q0);
    corrupt.emplace_back("dictionary descends", bytes);
  }
  {
    std::string bytes = clean;
    WriteAt<Quality>(&bytes, dict_at + 4,
                     std::numeric_limits<Quality>::quiet_NaN());
    corrupt.emplace_back("dictionary NaN", bytes);
  }
  for (const auto& [what, bytes] : corrupt) {
    std::string t = TempPath("sliced_shape_bad.wcsnap");
    WriteFileBytes(t, bytes);
    for (SnapshotVerifyLevel level :
         {SnapshotVerifyLevel::kOffsets, SnapshotVerifyLevel::kDirectory,
          SnapshotVerifyLevel::kDeep}) {
      EXPECT_EQ(LoadAt(t, level).code(), StatusCode::kCorruption)
          << what << " at level " << static_cast<int>(level);
    }
    std::remove(t.c_str());
  }
  std::remove(path.c_str());
}

// Slice lengths are a directory-tier catch: level 0 must hold exactly one
// pair per hub group. Moving one pair from a vertex's level-0 slice to its
// neighbour's keeps every offset monotone and in range, so the default
// load still maps the file.
TEST(SlicedSnapshot, SliceLengthCorruptionCaughtAtDirectoryLevel) {
  WcIndex index = BuildSlicedIndex();
  std::string path = TempPath("sliced_len.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  const size_t offsets_at = SectionFileOffset(bytes, kSliceOffsetsSection);
  const size_t at = offsets_at + 8 * 6;  // level 0, row[6]
  WriteAt<uint64_t>(&bytes, at, ReadAt<uint64_t>(bytes, at) + 1);
  WriteFileBytes(path, bytes);
  EXPECT_TRUE(LoadAt(path, SnapshotVerifyLevel::kOffsets).ok());
  Status st = LoadAt(path, SnapshotVerifyLevel::kDirectory);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("slice length"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(LoadAt(path, SnapshotVerifyLevel::kDeep).code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

// Pair payloads are a deep-tier catch: hubs must strictly ascend within a
// slice, and each level's hubs must be a subset of the level below's with
// non-decreasing distance.
TEST(SlicedSnapshot, PairCorruptionCaughtAtDeepLevel) {
  WcIndex index = BuildSlicedIndex();
  const SlicedLabelSet sliced =
      SlicedLabelSet::FromFlat(index.flat_labels()).value();
  // A vertex whose level-1 slice has >= 2 pairs.
  Vertex v = 0;
  while (sliced.Slice(1, v).size() < 2) ++v;
  const auto pairs = sliced.raw_pairs();
  const size_t first0 = static_cast<size_t>(sliced.Slice(0, v).data() -
                                            pairs.data());
  const size_t first1 = static_cast<size_t>(sliced.Slice(1, v).data() -
                                            pairs.data());
  std::string path = TempPath("sliced_pairs.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  const std::string clean = ReadFileBytes(path);
  const size_t pairs_at = SectionFileOffset(clean, kSlicePairsSection);
  auto hub_at = [&](size_t pair) { return pairs_at + 8 * pair; };
  auto dist_at = [&](size_t pair) { return pairs_at + 8 * pair + 4; };
  std::vector<std::pair<std::string, std::string>> corrupt;
  {
    // Swap the first two level-0 hubs: they descend.
    std::string bytes = clean;
    const Rank h0 = ReadAt<Rank>(bytes, hub_at(first0));
    const Rank h1 = ReadAt<Rank>(bytes, hub_at(first0 + 1));
    WriteAt<Rank>(&bytes, hub_at(first0), h1);
    WriteAt<Rank>(&bytes, hub_at(first0 + 1), h0);
    corrupt.emplace_back("hubs not ascending", bytes);
  }
  {
    // A level-1 hub the level below lacks.
    std::string bytes = clean;
    WriteAt<Rank>(&bytes, hub_at(first1), ~Rank{0});
    corrupt.emplace_back("level 1 not a subset", bytes);
  }
  {
    // A level-1 distance below its level-0 one.
    std::string bytes = clean;
    const Rank hub = ReadAt<Rank>(bytes, hub_at(first1));
    size_t below = first0;
    while (ReadAt<Rank>(bytes, hub_at(below)) != hub) ++below;
    const Distance d0 = ReadAt<Distance>(bytes, dist_at(below));
    ASSERT_GT(d0 + 1, 0u);
    WriteAt<Distance>(&bytes, dist_at(below), d0 + 1000);
    corrupt.emplace_back("distance descends", bytes);
  }
  for (const auto& [what, bytes] : corrupt) {
    std::string t = TempPath("sliced_pairs_bad.wcsnap");
    WriteFileBytes(t, bytes);
    EXPECT_TRUE(LoadAt(t, SnapshotVerifyLevel::kOffsets).ok()) << what;
    EXPECT_TRUE(LoadAt(t, SnapshotVerifyLevel::kDirectory).ok()) << what;
    EXPECT_EQ(LoadAt(t, SnapshotVerifyLevel::kDeep).code(),
              StatusCode::kCorruption)
        << what;
    std::remove(t.c_str());
  }
  std::remove(path.c_str());
}

// v4 exists for the sliced form alone: a header that drops the sliced
// flag, or adds the compressed one, is refused even with a valid CRC.
TEST(SlicedSnapshot, InconsistentV4FlagsRejected) {
  WcIndex index = BuildSlicedIndex();
  std::string path = TempPath("sliced_flags.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  const std::string clean = ReadFileBytes(path);
  const uint32_t flags = ReadAt<uint32_t>(clean, 12);
  for (uint32_t bad : {flags & ~(1u << 3), flags | (1u << 2),
                       flags | (1u << 1)}) {
    std::string bytes = clean;
    WriteAt<uint32_t>(&bytes, 12, bad);
    WriteAt<uint32_t>(&bytes, kV4HeaderCrcAt,
                      Crc32c(bytes.data(), kV4HeaderCrcAt));
    WriteFileBytes(path, bytes);
    Status st = LoadAt(path, SnapshotVerifyLevel::kOffsets);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << "flags " << bad;
    EXPECT_NE(st.message().find("inconsistent"), std::string::npos)
        << st.ToString();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wcsd
