// Compressed flat backend tests: exact round trips through FromFlat /
// LabelSource::Materialize, per-vertex streaming decode, the streaming merge kernel's
// bit-identity to the flat kernels, validation tiers, the LabelSource seam
// over flat and compressed twins, the v3 snapshot format (including its
// corruption corpus), compressed shard sets, and the cold-tier
// decoded-label cache (whole labels and Query+ level slices).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/wc_index.h"
#include "graph/generators.h"
#include "labeling/compressed_flat.h"
#include "labeling/label_source.h"
#include "labeling/query.h"
#include "labeling/shard_manifest.h"
#include "labeling/shard_plan.h"
#include "labeling/snapshot.h"
#include "paper_fixtures.h"
#include "serve/decode_cache.h"
#include "serve/query_engine.h"
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

WcIndex BuildFinalizedIndex(size_t n = 150, size_t m = 400,
                            uint64_t seed = 11) {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(n, m, quality, seed);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  index.Finalize();
  return index;
}

TEST(CompressedFlat, RoundTripIsExact) {
  for (uint64_t seed : {3u, 7u, 23u}) {
    WcIndex index = BuildFinalizedIndex(120, 300, seed);
    const FlatLabelSet& flat = index.flat_labels();
    CompressedFlatLabelSet compressed = CompressedFlatLabelSet::FromFlat(flat);
    EXPECT_EQ(compressed.NumVertices(), flat.NumVertices());
    EXPECT_EQ(compressed.TotalEntries(), flat.raw_entries().size());
    EXPECT_EQ(compressed.TotalGroups(), flat.raw_groups().size());
    auto decompressed = LabelSource(compressed).Materialize();
    ASSERT_TRUE(decompressed.ok()) << decompressed.status().ToString();
    EXPECT_EQ(decompressed.value(), flat) << "seed " << seed;
  }
}

TEST(CompressedFlat, DecodeVertexMatchesFlatSlices) {
  WcIndex index = BuildFinalizedIndex();
  const FlatLabelSet& flat = index.flat_labels();
  CompressedFlatLabelSet compressed = CompressedFlatLabelSet::FromFlat(flat);
  DecodedLabel scratch;
  for (Vertex v = 0; v < flat.NumVertices(); ++v) {
    ASSERT_TRUE(compressed.DecodeVertex(v, &scratch).ok()) << "vertex " << v;
    FlatLabelView expected = flat.View(v);
    FlatLabelView got = scratch.View();
    ASSERT_EQ(got.entries.size(), expected.entries.size()) << "vertex " << v;
    ASSERT_EQ(got.groups.size(), expected.groups.size()) << "vertex " << v;
    EXPECT_TRUE(std::equal(got.entries.begin(), got.entries.end(),
                           expected.entries.begin()));
    EXPECT_TRUE(std::equal(got.groups.begin(), got.groups.end(),
                           expected.groups.begin()));
    EXPECT_EQ(compressed.EntryCount(v), expected.entries.size());
    EXPECT_EQ(compressed.GroupCount(v), expected.groups.size());
  }
}

TEST(CompressedFlat, StreamingMergeIsBitIdenticalToFlatKernels) {
  WcIndex index = BuildFinalizedIndex();
  const FlatLabelSet& flat = index.flat_labels();
  CompressedFlatLabelSet compressed = CompressedFlatLabelSet::FromFlat(flat);
  Rng rng(5);
  size_t n = flat.NumVertices();
  for (int i = 0; i < 2000; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 6));
    Distance expected =
        QueryFlat(flat.View(s), flat.View(t), w, QueryImpl::kMerge);
    ASSERT_EQ(QueryCompressedMerge(compressed, s, compressed, t, w), expected)
        << "s=" << s << " t=" << t << " w=" << w;
  }
}

TEST(CompressedFlat, MeaningfulCompressionRatio) {
  WcIndex index = BuildFinalizedIndex(400, 1100, 29);
  CompressedFlatLabelSet compressed =
      CompressedFlatLabelSet::FromFlat(index.flat_labels());
  ASSERT_GT(compressed.UncompressedBytes(), 0u);
  double ratio = static_cast<double>(compressed.UncompressedBytes()) /
                 static_cast<double>(compressed.MemoryBytes());
  EXPECT_GE(ratio, 2.5) << "compression ratio regressed";
}

TEST(CompressedFlat, FingerprintMatchesFlatBackend) {
  WcIndex index = BuildFinalizedIndex();
  const FlatLabelSet& flat = index.flat_labels();
  LabelSource compressed(CompressedFlatLabelSet::FromFlat(flat));
  EXPECT_EQ(compressed.ContentFingerprint(), IndexContentFingerprint(flat));
}

TEST(CompressedFlat, ValidationAcceptsWellFormedSets) {
  WcIndex index = BuildFinalizedIndex();
  CompressedFlatLabelSet compressed =
      CompressedFlatLabelSet::FromFlat(index.flat_labels());
  for (ValidateLevel level :
       {ValidateLevel::kShape, ValidateLevel::kDirectory,
        ValidateLevel::kDeep}) {
    EXPECT_TRUE(compressed.Validate(level).ok())
        << "level " << static_cast<int>(level);
  }
}

// Corrupt blob bytes must never escape the vertex's byte slice: every
// single-byte flip either still decodes (to possibly different labels) or
// fails cleanly — and the full-parse validation tier reports the latter
// class as Corruption. This is the compressed analogue of the flat
// backend's directory-bounds tier.
TEST(CompressedFlat, BlobCorruptionIsBoundsCheckedAndValidatable) {
  WcIndex index = BuildFinalizedIndex(60, 150, 13);
  const FlatLabelSet& flat = index.flat_labels();
  CompressedFlatLabelSet good = CompressedFlatLabelSet::FromFlat(flat);

  std::vector<uint64_t> offsets(good.raw_offsets().begin(),
                                good.raw_offsets().end());
  std::vector<uint64_t> group_offsets(good.raw_group_offsets().begin(),
                                      good.raw_group_offsets().end());
  std::vector<uint64_t> comp_offsets(good.raw_comp_offsets().begin(),
                                     good.raw_comp_offsets().end());
  std::vector<Quality> dictionary(good.raw_dictionary().begin(),
                                  good.raw_dictionary().end());
  std::vector<uint8_t> blob(good.raw_blob().begin(), good.raw_blob().end());

  Rng rng(99);
  DecodedLabel scratch;
  for (int trial = 0; trial < 200; ++trial) {
    size_t at = rng.NextBounded(blob.size());
    uint8_t old = blob[at];
    blob[at] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    CompressedFlatLabelSet corrupt = CompressedFlatLabelSet::FromExternal(
        offsets, group_offsets, comp_offsets, blob, dictionary, nullptr);
    // Shape still holds (offset arrays untouched)...
    EXPECT_TRUE(corrupt.Validate(ValidateLevel::kShape).ok());
    // ...and every decode answers or fails cleanly, in bounds (ASan/TSan
    // runs give this test its teeth).
    bool any_decode_failed = false;
    for (Vertex v = 0; v < corrupt.NumVertices(); ++v) {
      if (!corrupt.DecodeVertex(v, &scratch).ok()) {
        any_decode_failed = true;
        EXPECT_TRUE(scratch.entries.empty());
      }
    }
    Status deep = corrupt.Validate(ValidateLevel::kDirectory);
    if (any_decode_failed) {
      EXPECT_FALSE(deep.ok()) << "trial " << trial;
      EXPECT_EQ(deep.code(), StatusCode::kCorruption);
    }
    // The streaming kernel walks the same bytes; it must stay in bounds
    // whatever it answers.
    (void)QueryCompressedMerge(corrupt, 0, corrupt, 1, 1.0f);
    blob[at] = old;
  }
}

TEST(CompressedFlat, EmptySet) {
  CompressedFlatLabelSet compressed =
      CompressedFlatLabelSet::FromFlat(FlatLabelSet());
  EXPECT_EQ(compressed.NumVertices(), 0u);
  EXPECT_EQ(compressed.TotalEntries(), 0u);
  EXPECT_TRUE(compressed.Validate(ValidateLevel::kDeep).ok());
  // Out-of-range endpoints answer unreachable, mirroring WcIndex::Query.
  EXPECT_EQ(QueryCompressedMerge(compressed, 0, compressed, 0, 1.0f),
            kInfDistance);
}

// ---- the LabelSource seam ----

// Flat and v3 twins of one index, each opened as the snapshot loader hands
// it out: the two sources must be indistinguishable through every accessor
// callers use.
TEST(LabelSource, FlatAndCompressedTwinsAgree) {
  WcIndex index = BuildFinalizedIndex(140, 380, 43);
  const FlatLabelSet& reference = index.flat_labels();
  std::string flat_path = TempPath("ls_flat.wcsnap");
  std::string comp_path = TempPath("ls_comp.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(flat_path).ok());
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(index.SaveSnapshot(comp_path, compress).ok());
  auto flat_snapshot = LoadSnapshotMmap(flat_path);
  auto comp_snapshot = LoadSnapshotMmap(comp_path);
  ASSERT_TRUE(flat_snapshot.ok() && comp_snapshot.ok());
  const LabelSource& flat = flat_snapshot.value().labels;
  const LabelSource& comp = comp_snapshot.value().labels;
  EXPECT_FALSE(flat.compressed());
  EXPECT_TRUE(comp.compressed());
  EXPECT_TRUE(flat.flat().external());
  EXPECT_TRUE(comp.packed().external());

  // Totals and bytes.
  ASSERT_EQ(flat.NumVertices(), reference.NumVertices());
  ASSERT_EQ(comp.NumVertices(), reference.NumVertices());
  EXPECT_EQ(flat.TotalEntries(), reference.TotalEntries());
  EXPECT_EQ(comp.TotalEntries(), reference.TotalEntries());
  EXPECT_EQ(flat.TotalGroups(), reference.raw_groups().size());
  EXPECT_EQ(comp.TotalGroups(), reference.raw_groups().size());
  EXPECT_EQ(flat.MemoryBytes(), reference.MemoryBytes());
  EXPECT_EQ(flat.UncompressedBytes(), reference.MemoryBytes());
  EXPECT_EQ(comp.UncompressedBytes(), reference.MemoryBytes());
  EXPECT_LT(comp.MemoryBytes(), reference.MemoryBytes());

  // Per-vertex views. A flat view points into the mapping and leaves its
  // scratch untouched; the compressed one decodes into its scratch.
  DecodedLabel flat_scratch, comp_scratch;
  for (Vertex v = 0; v < reference.NumVertices(); ++v) {
    FlatLabelView expected = reference.View(v);
    FlatLabelView a = flat.View(v, &flat_scratch);
    FlatLabelView b = comp.View(v, &comp_scratch);
    ASSERT_TRUE(std::ranges::equal(a.entries, expected.entries)) << v;
    ASSERT_TRUE(std::ranges::equal(a.groups, expected.groups)) << v;
    ASSERT_TRUE(std::ranges::equal(b.entries, expected.entries)) << v;
    ASSERT_TRUE(std::ranges::equal(b.groups, expected.groups)) << v;
    ASSERT_TRUE(flat_scratch.entries.empty());
    ASSERT_EQ(b.entries.data(), comp_scratch.entries.data());
  }

  // One fingerprint for both storages, equal to the flat set's.
  const uint64_t fingerprint = IndexContentFingerprint(reference);
  EXPECT_EQ(flat.ContentFingerprint(), fingerprint);
  EXPECT_EQ(comp.ContentFingerprint(), fingerprint);

  // Materialize round-trips both back to the flat set.
  for (const LabelSource* source : {&flat, &comp}) {
    auto materialized = source->Materialize();
    ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
    EXPECT_EQ(materialized.value(), reference);
  }

  // The two-endpoint merge agrees with the flat kernel whichever storage
  // each endpoint comes from (two compressed endpoints stream).
  Rng rng(17);
  DecodedLabel ls, lt;
  for (int i = 0; i < 600; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(reference.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.NextBounded(reference.NumVertices()));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 6));
    const Distance expected =
        QueryFlatMerge(reference.View(s), reference.View(t), w);
    ASSERT_EQ(QueryMerge(flat, s, flat, t, w, &ls, &lt), expected);
    ASSERT_EQ(QueryMerge(comp, s, comp, t, w, &ls, &lt), expected);
    ASSERT_EQ(QueryMerge(flat, s, comp, t, w, &ls, &lt), expected);
    ASSERT_EQ(QueryMerge(comp, s, flat, t, w, &ls, &lt), expected);
  }
  std::remove(flat_path.c_str());
  std::remove(comp_path.c_str());
}

// The CRC chain over a mixed tiling — a compressed shard then a flat one —
// reproduces the unsharded fingerprint.
TEST(LabelSource, ContentCrcChainIsTilingInvariant) {
  WcIndex index = BuildFinalizedIndex(120, 300, 47);
  const FlatLabelSet& flat = index.flat_labels();
  const uint64_t n = flat.NumVertices();
  std::string a = TempPath("ls_chain.shard0");
  std::string b = TempPath("ls_chain.shard1");
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(WriteSnapshotShard(a, flat, 0, n / 3, n, {}, compress).ok());
  ASSERT_TRUE(WriteSnapshotShard(b, flat, n / 3, n, n).ok());
  auto first = LoadSnapshotMmap(a);
  auto second = LoadSnapshotMmap(b);
  ASSERT_TRUE(first.ok() && second.ok());
  ContentCrcChain chain(n);
  ASSERT_TRUE(chain.Append(first.value().labels));
  ASSERT_TRUE(chain.Append(second.value().labels));
  EXPECT_EQ(chain.Fingerprint(), IndexContentFingerprint(flat));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// A vertex whose compressed stream is corrupt answers with an empty view
// (an unreachable vertex) instead of stale scratch or an out-of-bounds
// read; its neighbors still decode, and the whole-set operations refuse.
TEST(LabelSource, CorruptCompressedVertexYieldsEmptyView) {
  WcIndex index = BuildFinalizedIndex(60, 150, 13);
  const FlatLabelSet& flat = index.flat_labels();
  CompressedFlatLabelSet good = CompressedFlatLabelSet::FromFlat(flat);
  std::vector<uint64_t> offsets(good.raw_offsets().begin(),
                                good.raw_offsets().end());
  std::vector<uint64_t> group_offsets(good.raw_group_offsets().begin(),
                                      good.raw_group_offsets().end());
  std::vector<uint64_t> comp_offsets(good.raw_comp_offsets().begin(),
                                     good.raw_comp_offsets().end());
  std::vector<Quality> dictionary(good.raw_dictionary().begin(),
                                  good.raw_dictionary().end());
  std::vector<uint8_t> blob(good.raw_blob().begin(), good.raw_blob().end());
  // Vertex 7's stream becomes one unterminated varint.
  constexpr Vertex kBad = 7;
  ASSERT_LT(comp_offsets[kBad], comp_offsets[kBad + 1]);
  std::fill(blob.begin() + static_cast<ptrdiff_t>(comp_offsets[kBad]),
            blob.begin() + static_cast<ptrdiff_t>(comp_offsets[kBad + 1]),
            uint8_t{0xFF});
  LabelSource source(CompressedFlatLabelSet::FromExternal(
      offsets, group_offsets, comp_offsets, blob, dictionary, nullptr));

  DecodedLabel scratch;
  ASSERT_FALSE(source.View(kBad - 1, &scratch).entries.empty());
  FlatLabelView bad = source.View(kBad, &scratch);
  EXPECT_TRUE(bad.entries.empty());
  EXPECT_TRUE(bad.groups.empty());
  FlatLabelView next = source.View(kBad + 1, &scratch);
  EXPECT_TRUE(std::ranges::equal(next.entries, flat.View(kBad + 1).entries));

  // A caller-supplied decoder that fails gets an empty view too, whatever
  // it left in the scratch.
  auto failing = [](const CompressedFlatLabelSet&, Vertex, DecodedLabel* out) {
    out->entries.push_back(LabelEntry{0, 0, kInfQuality});
    return false;
  };
  EXPECT_TRUE(source.View(0, &scratch, failing).entries.empty());

  EXPECT_EQ(source.ContentFingerprint(), 0u);
  EXPECT_FALSE(source.Materialize().ok());
}

// ---- v3 snapshot format ----

TEST(CompressedFlat, CompressedSnapshotRoundTripsAndServesIdentically) {
  WcIndex index = BuildFinalizedIndex();
  std::string flat_path = TempPath("cf_flat.wcsnap");
  std::string comp_path = TempPath("cf_comp.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(flat_path).ok());
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(index.SaveSnapshot(comp_path, compress).ok());

  auto flat_info = ReadSnapshotInfo(flat_path);
  auto comp_info = ReadSnapshotInfo(comp_path);
  ASSERT_TRUE(flat_info.ok() && comp_info.ok());
  // Smallest-capable-version rule: no parents, no compression -> v1
  // byte-layout; compression forces v3.
  EXPECT_FALSE(flat_info.value().compressed);
  EXPECT_TRUE(comp_info.value().compressed);
  EXPECT_EQ(comp_info.value().version, 3u);
  EXPECT_LT(ReadFileBytes(comp_path).size(),
            ReadFileBytes(flat_path).size() / 2);

  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  verify.verify_level = SnapshotVerifyLevel::kDeep;
  auto loaded = WcIndex::LoadMmap(comp_path, verify);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const WcIndex& mm = loaded.value();
  EXPECT_TRUE(mm.label_source().compressed());
  EXPECT_TRUE(mm.label_source().packed().external());
  EXPECT_EQ(mm.NumVertices(), index.NumVertices());
  EXPECT_EQ(mm.TotalEntries(), index.TotalEntries());
  EXPECT_EQ(mm.ContentFingerprint(), index.ContentFingerprint());

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
    IntervalQueryResult ia = mm.QueryWithInterval(s, t, w);
    IntervalQueryResult ib = index.QueryWithInterval(s, t, w);
    ASSERT_EQ(ia.dist, ib.dist);
    ASSERT_EQ(ia.w_lo, ib.w_lo);
    ASSERT_EQ(ia.w_hi, ib.w_hi);
  }
  std::remove(flat_path.c_str());
  std::remove(comp_path.c_str());
}

// Migration both ways: a compressed-backend index can SaveSnapshot back to
// the flat layout, landing bit-identical to the original.
TEST(CompressedFlat, DecompressionMigrationRoundTrips) {
  WcIndex index = BuildFinalizedIndex();
  std::string comp_path = TempPath("cf_migrate.wcsnap");
  std::string back_path = TempPath("cf_migrate_back.wcsnap");
  std::string flat_path = TempPath("cf_migrate_flat.wcsnap");
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(index.SaveSnapshot(comp_path, compress).ok());
  ASSERT_TRUE(index.SaveSnapshot(flat_path).ok());

  auto mm = WcIndex::LoadMmap(comp_path);
  ASSERT_TRUE(mm.ok());
  ASSERT_TRUE(mm.value().label_source().compressed());
  ASSERT_TRUE(mm.value().SaveSnapshot(back_path).ok());
  EXPECT_EQ(ReadFileBytes(back_path), ReadFileBytes(flat_path));
  std::remove(comp_path.c_str());
  std::remove(back_path.c_str());
  std::remove(flat_path.c_str());
}

TEST(CompressedFlat, CompressRefusesParents) {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(120, 320, quality, 17);
  WcIndexOptions options = WcIndexOptions::Plus();
  options.record_parents = true;
  WcIndex index = WcIndex::Build(g, options);
  index.Finalize();
  std::string path = TempPath("cf_parents.wcsnap");
  SnapshotWriteOptions compress;
  compress.compress = true;
  Status st = index.SaveSnapshot(path, compress);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// Corruption corpus for the three v3 sections. Byte flips anywhere in the
// compressed payload must be caught by checksums, and blob corruption that
// breaks stream structure by the deep tiers even without checksums.
TEST(CompressedFlat, CompressedSectionCorruptionCaught) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("cf_corrupt.wcsnap");
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(index.SaveSnapshot(path, compress).ok());
  const std::string good = ReadFileBytes(path);

  // The header page is [0, 4096); sections follow, page-aligned. Flip
  // bytes across the whole section span — comp offsets, blob, and
  // dictionary all live there, as do the logical offset arrays. A flip
  // landing in inter-section zero padding is outside every CRC and must
  // instead be harmless: the file still loads and serves identically.
  Rng rng(41);
  int caught = 0;
  for (int trial = 0; trial < 32; ++trial) {
    std::string bytes = good;
    size_t at = 4096 + rng.NextBounded(bytes.size() - 4096);
    bytes[at] ^= static_cast<char>(1 + rng.NextBounded(255));
    WriteFileBytes(path, bytes);
    SnapshotLoadOptions verify;
    verify.verify_checksums = true;
    verify.verify_level = SnapshotVerifyLevel::kDeep;
    auto checked = WcIndex::LoadMmap(path, verify);
    if (checked.ok()) {
      ASSERT_EQ(checked.value().ContentFingerprint(),
                index.ContentFingerprint())
          << "flip at " << at << " loaded clean but changed the labels";
    } else {
      ++caught;
      EXPECT_EQ(checked.status().code(), StatusCode::kCorruption);
    }
  }
  // Page-aligned sections mean a fair share of flips land in padding; the
  // checksummed-payload share must still be substantial.
  EXPECT_GE(caught, 8) << "too few flips caught by section checksums";

  // Structural (checksum-free) tier: zero the whole blob section's first
  // 64 bytes — streams truncate, kDirectory must catch it.
  {
    std::string bytes = good;
    // The blob is the only section whose size is neither 4/8/12-aligned
    // to counts; locate it by searching for the compressed set's bytes.
    CompressedFlatLabelSet compressed =
        CompressedFlatLabelSet::FromFlat(index.flat_labels());
    auto blob = compressed.raw_blob();
    ASSERT_GE(blob.size(), 64u);
    auto it = std::search(bytes.begin(), bytes.end(),
                          reinterpret_cast<const char*>(blob.data()),
                          reinterpret_cast<const char*>(blob.data()) + 64);
    ASSERT_NE(it, bytes.end());
    std::fill(it, it + 64, '\xFF');
    WriteFileBytes(path, bytes);
    auto trusting = WcIndex::LoadMmap(path);
    // Default load maps it (offset arrays are fine)...
    ASSERT_TRUE(trusting.ok()) << trusting.status().ToString();
    // ...but the full-parse tier reports corruption.
    SnapshotLoadOptions directory;
    directory.verify_level = SnapshotVerifyLevel::kDirectory;
    auto checked = WcIndex::LoadMmap(path, directory);
    ASSERT_FALSE(checked.ok());
    EXPECT_EQ(checked.status().code(), StatusCode::kCorruption);
  }
  std::remove(path.c_str());
}

TEST(CompressedFlat, TruncatedCompressedSnapshotRejected) {
  WcIndex index = BuildFinalizedIndex(60, 150, 5);
  std::string path = TempPath("cf_trunc.wcsnap");
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(index.SaveSnapshot(path, compress).ok());
  std::string good = ReadFileBytes(path);
  for (size_t keep : {size_t{100}, size_t{4096}, good.size() - 1}) {
    WriteFileBytes(path, good.substr(0, keep));
    EXPECT_FALSE(WcIndex::LoadMmap(path).ok()) << "kept " << keep;
  }
  std::remove(path.c_str());
}

// ---- compressed shard sets ----

TEST(CompressedFlat, CompressedShardSetServesIdentically) {
  WcIndex index = BuildFinalizedIndex(200, 520, 31);
  const FlatLabelSet& flat = index.flat_labels();

  ShardPlanOptions plan_options;
  plan_options.num_shards = 3;
  auto plan = PlanShards(flat, plan_options);
  ASSERT_TRUE(plan.ok());
  std::string stem = TempPath("cf_shards");
  SnapshotWriteOptions compress;
  compress.compress = true;
  auto written = WriteShardSet(stem, flat, plan.value(), compress);
  ASSERT_TRUE(written.ok()) << written.status().ToString();

  // Full checksum + fingerprint verification must hold on compressed
  // shards (the fingerprint chains per-vertex decodes).
  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  verify.verify_level = SnapshotVerifyLevel::kDeep;
  auto engine = QueryEngine::OpenManifest(
      written.value().manifest_path, {}, verify);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE(engine.value().compressed());
  EXPECT_EQ(engine.value().NumVertices(), index.NumVertices());

  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(index.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.NextBounded(index.NumVertices()));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 6));
    ASSERT_EQ(engine.value().Query(s, t, w), index.Query(s, t, w))
        << "s=" << s << " t=" << t << " w=" << w;
  }
  for (const std::string& p : written.value().shard_paths) {
    std::remove(p.c_str());
  }
  std::remove(written.value().manifest_path.c_str());
}

// Mixed sets: compressed and flat shard files stitched into one engine
// must agree with the unsharded index (each shard serves from whatever
// backend its file carries).
TEST(CompressedFlat, MixedBackendShardsServeIdentically) {
  WcIndex index = BuildFinalizedIndex(160, 420, 37);
  const FlatLabelSet& flat = index.flat_labels();
  uint64_t n = index.NumVertices();
  uint64_t mid = n / 2;
  std::string a = TempPath("cf_mixed.shard0");
  std::string b = TempPath("cf_mixed.shard1");
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(WriteSnapshotShard(a, flat, 0, mid, n, {}, compress).ok());
  ASSERT_TRUE(WriteSnapshotShard(b, flat, mid, n, n).ok());

  auto engine = QueryEngine::OpenMmap({a, b});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE(engine.value().compressed());

  Rng rng(12);
  for (int i = 0; i < 1000; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 6));
    ASSERT_EQ(engine.value().Query(s, t, w), index.Query(s, t, w))
        << "s=" << s << " t=" << t << " w=" << w;
  }
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// ---- decoded-label cache ----

TEST(DecodedLabelCache, HitsAfterFirstDecode) {
  WcIndex index = BuildFinalizedIndex(60, 150, 3);
  CompressedFlatLabelSet compressed =
      CompressedFlatLabelSet::FromFlat(index.flat_labels());
  DecodedLabelCache cache(4 << 20);
  DecodedLabel out;
  ASSERT_TRUE(cache.GetOrDecode(compressed, 5, 5, &out));
  ASSERT_TRUE(cache.GetOrDecode(compressed, 5, 5, &out));
  DecodeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  // Heap-backed set: no cold page-ins.
  EXPECT_EQ(stats.cold_pageins, 0u);
  // The cached copy matches a direct decode.
  DecodedLabel direct;
  ASSERT_TRUE(compressed.DecodeVertex(5, &direct).ok());
  EXPECT_EQ(out.entries.size(), direct.entries.size());
  EXPECT_TRUE(std::equal(out.entries.begin(), out.entries.end(),
                         direct.entries.begin()));
}

TEST(DecodedLabelCache, ColdPageinsCountExternalDecodes) {
  WcIndex index = BuildFinalizedIndex(60, 150, 3);
  std::string path = TempPath("cf_cold.wcsnap");
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(index.SaveSnapshot(path, compress).ok());
  auto mm = WcIndex::LoadMmap(path);
  ASSERT_TRUE(mm.ok());
  const LabelSource& source = mm.value().label_source();
  ASSERT_TRUE(source.packed().external());
  DecodedLabelCache cache(4 << 20);
  // The engine's route: the source hands its decodes to the cache.
  auto through_cache = [&](const CompressedFlatLabelSet& set, Vertex v,
                           DecodedLabel* out) {
    return cache.GetOrDecode(set, v, v, out);
  };
  DecodedLabel out;
  EXPECT_FALSE(source.View(3, &out, through_cache).entries.empty());
  EXPECT_FALSE(source.View(3, &out, through_cache).entries.empty());
  EXPECT_EQ(cache.stats().cold_pageins, 1u);  // miss paged in; hit did not
  std::remove(path.c_str());
}

// The cache must respect its byte budget: stream many distinct vertices
// through a tiny cache and check the resident mass never exceeds the
// budget (second-chance eviction keeps it bounded, admission tags keep
// one-touch scans from churning it).
TEST(DecodedLabelCache, BudgetBounded) {
  WcIndex index = BuildFinalizedIndex(300, 800, 19);
  CompressedFlatLabelSet compressed =
      CompressedFlatLabelSet::FromFlat(index.flat_labels());
  const size_t budget = 64 << 10;
  DecodedLabelCache cache(budget);
  DecodedLabel out;
  for (int round = 0; round < 3; ++round) {
    for (Vertex v = 0; v < compressed.NumVertices(); ++v) {
      ASSERT_TRUE(cache.GetOrDecode(compressed, v, v, &out));
      ASSERT_LE(cache.MemoryBytes(), budget);
    }
  }
  DecodeCacheStats stats = cache.stats();
  // The scan's one-touch keys must have been refused admission at least
  // once (the cache is far smaller than the label mass).
  EXPECT_GT(stats.admission_rejects, 0u);
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

TEST(DecodedLabelCache, ConcurrentReadersStayCoherent) {
  WcIndex index = BuildFinalizedIndex(120, 320, 23);
  CompressedFlatLabelSet compressed =
      CompressedFlatLabelSet::FromFlat(index.flat_labels());
  const FlatLabelSet& flat = index.flat_labels();
  DecodedLabelCache cache(1 << 20);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(100 + static_cast<uint64_t>(t));
      DecodedLabel out;
      for (int i = 0; i < 4000; ++i) {
        Vertex v =
            static_cast<Vertex>(rng.NextBounded(compressed.NumVertices()));
        if (!cache.GetOrDecode(compressed, v, v, &out)) {
          failed = true;
          return;
        }
        auto expected = flat.View(v);
        if (out.entries.size() != expected.entries.size() ||
            !std::equal(out.entries.begin(), out.entries.end(),
                        expected.entries.begin())) {
          failed = true;
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
}

// ---- level slices in the decoded-label cache ----

// The reference slice: a plain decode projected at the level's quality.
std::vector<SlicePair> ProjectedSlice(const CompressedFlatLabelSet& set,
                                      Vertex v, size_t level) {
  DecodedLabel decoded;
  EXPECT_TRUE(set.DecodeVertex(v, &decoded).ok());
  std::vector<SlicePair> slice;
  ProjectSlice(decoded.View(), set.LevelQuality(level), &slice);
  return slice;
}

TEST(DecodedLabelCache, SliceHitsAfterFirstDecodeAtEveryLevel) {
  WcIndex index = BuildFinalizedIndex(60, 150, 3);
  CompressedFlatLabelSet compressed =
      CompressedFlatLabelSet::FromFlat(index.flat_labels());
  ASSERT_EQ(compressed.NumLevels(), 6u);  // five qualities, then +inf
  DecodedLabelCache cache(4 << 20);
  std::vector<SlicePair> out;
  for (size_t level = 0; level < compressed.NumLevels(); ++level) {
    const DecodeCacheStats before = cache.stats();
    ASSERT_TRUE(cache.GetOrProject(compressed, 5, 5, level, &out));
    EXPECT_EQ(out, ProjectedSlice(compressed, 5, level)) << level;
    out.assign(3, SlicePair{9, 9});  // a hit must replace, not append
    ASSERT_TRUE(cache.GetOrProject(compressed, 5, 5, level, &out));
    EXPECT_EQ(out, ProjectedSlice(compressed, 5, level)) << level;
    const DecodeCacheStats after = cache.stats();
    EXPECT_EQ(after.misses - before.misses, 1u) << level;
    EXPECT_EQ(after.hits - before.hits, 1u) << level;
    EXPECT_EQ(after.inserts - before.inserts, 1u) << level;
  }
  // Level 0 keeps every hub group; the slices shrink going up.
  ASSERT_TRUE(cache.GetOrProject(compressed, 5, 5, 0, &out));
  EXPECT_EQ(out.size(), compressed.GroupCount(5));
}

// (vertex, level) and (vertex, whole label) are distinct entries: each is
// decoded once on its own miss and hands back its own kind.
TEST(DecodedLabelCache, SliceAndWholeLabelKeysNeverAlias) {
  WcIndex index = BuildFinalizedIndex(60, 150, 3);
  CompressedFlatLabelSet compressed =
      CompressedFlatLabelSet::FromFlat(index.flat_labels());
  DecodedLabelCache cache(4 << 20);
  const size_t levels = compressed.NumLevels();
  DecodedLabel label;
  std::vector<SlicePair> slice;
  for (Vertex v : {Vertex{0}, Vertex{1}, Vertex{7}}) {
    ASSERT_TRUE(cache.GetOrDecode(compressed, v, v, &label));
    for (size_t level = 0; level < levels; ++level) {
      ASSERT_TRUE(cache.GetOrProject(compressed, v, v, level, &slice));
    }
  }
  // Every key missed once: 3 vertices x (levels + 1) distinct entries.
  EXPECT_EQ(cache.stats().misses, 3 * (levels + 1));
  EXPECT_EQ(cache.stats().hits, 0u);
  for (Vertex v : {Vertex{7}, Vertex{1}, Vertex{0}}) {
    ASSERT_TRUE(cache.GetOrDecode(compressed, v, v, &label));
    EXPECT_TRUE(std::ranges::equal(label.entries,
                                   index.flat_labels().View(v).entries));
    for (size_t level = levels; level-- > 0;) {
      ASSERT_TRUE(cache.GetOrProject(compressed, v, v, level, &slice));
      EXPECT_EQ(slice, ProjectedSlice(compressed, v, level));
    }
  }
  EXPECT_EQ(cache.stats().hits, 3 * (levels + 1));
  EXPECT_EQ(cache.stats().misses, 3 * (levels + 1));
}

// One pair split over two compressed shards whose dictionaries differ:
// L(s) carries qualities {1, 2, 3}, L(t) carries {2, 5}. Each side picks
// its own level, and the engine must answer like the flat merge at every
// kind of constraint: below, between and on the levels, above one side's
// finite levels, above both, +inf and NaN.
TEST(DecodedLabelCache, CrossShardPairWithDifferentDictionaries) {
  const std::vector<LabelEntry> ls{{0, 2, 1.0f},
                                   {0, 3, 3.0f},
                                   {2, 1, 2.0f},
                                   {2, 4, kInfQuality},
                                   {4, 0, kInfQuality}};
  const std::vector<LabelEntry> lt{{0, 1, 2.0f},
                                   {0, 4, 5.0f},
                                   {2, 2, 5.0f},
                                   {2, 3, kInfQuality},
                                   {3, 0, kInfQuality}};
  LabelSet set(2);
  *set.Mutable(0) = ls;
  *set.Mutable(1) = lt;
  const FlatLabelSet flat = FlatLabelSet::FromLabelSet(set);
  const std::string a = TempPath("cf_dict.shard0");
  const std::string b = TempPath("cf_dict.shard1");
  const std::string b_flat = TempPath("cf_dict_flat.shard1");
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(WriteSnapshotShard(a, flat, 0, 1, 2, {}, compress).ok());
  ASSERT_TRUE(WriteSnapshotShard(b, flat, 1, 2, 2, {}, compress).ok());
  ASSERT_TRUE(WriteSnapshotShard(b_flat, flat, 1, 2, 2).ok());
  auto shard_a = LoadSnapshotMmap(a);
  auto shard_b = LoadSnapshotMmap(b);
  ASSERT_TRUE(shard_a.ok() && shard_b.ok());
  EXPECT_TRUE(std::ranges::equal(shard_a.value().labels.packed().raw_dictionary(),
                                 std::vector<Quality>{1.0f, 2.0f, 3.0f}));
  EXPECT_TRUE(std::ranges::equal(shard_b.value().labels.packed().raw_dictionary(),
                                 std::vector<Quality>{2.0f, 5.0f}));

  QueryEngineOptions options;
  options.num_threads = 1;
  options.decode_cache_bytes = 1 << 20;
  auto both = QueryEngine::OpenMmap({a, b}, options);
  auto mixed = QueryEngine::OpenMmap({a, b_flat}, options);
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  const Quality nan = std::numeric_limits<Quality>::quiet_NaN();
  const std::pair<Quality, Distance> cases[] = {
      {-kInfQuality, 3}, {0.5f, 3}, {1.0f, 3},  // below / on the lowest
      {1.5f, 3},         {2.0f, 3},             // between / on
      {2.5f, 6},         {3.0f, 6},             // on s's top finite level
      {4.0f, 6},         {5.0f, 6},             // above s's, on t's top
      {5.5f, 7},         {kInfQuality, 7},      // above both: the +inf level
      {nan, kInfDistance}};
  for (int round = 0; round < 2; ++round) {  // misses, then hits
    for (const auto& [w, want] : cases) {
      ASSERT_EQ(QueryFlatMerge(flat.View(0), flat.View(1), w), want) << w;
      EXPECT_EQ(both.value().Query(0, 1, w), want) << "w=" << w;
      EXPECT_EQ(both.value().Query(1, 0, w), want) << "w=" << w;
      EXPECT_EQ(mixed.value().Query(0, 1, w), want) << "mixed w=" << w;
      EXPECT_EQ(mixed.value().Query(1, 0, w), want) << "mixed w=" << w;
    }
  }
  // s reads levels {0, 1, 2, 3(+inf)} of its set, t levels {0, 1, 2(+inf)}:
  // seven slices, each decoded once. NaN asks for none.
  const QueryEngineStats stats = both.value().stats();
  EXPECT_EQ(stats.decode_misses, 7u);
  EXPECT_GT(stats.decode_hits, 0u);
  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(b_flat.c_str());
}

TEST(DecodedLabelCache, BudgetBoundedUnderSliceAndWholeLabelChurn) {
  WcIndex index = BuildFinalizedIndex(300, 800, 19);
  CompressedFlatLabelSet compressed =
      CompressedFlatLabelSet::FromFlat(index.flat_labels());
  const size_t budget = 32 << 10;
  DecodedLabelCache cache(budget);
  DecodedLabel label;
  std::vector<SlicePair> slice;
  Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    const Vertex v =
        static_cast<Vertex>(rng.NextBounded(compressed.NumVertices()));
    if (i % 4 == 0) {
      ASSERT_TRUE(cache.GetOrDecode(compressed, v, v, &label));
    } else {
      const size_t level = rng.NextBounded(compressed.NumLevels());
      ASSERT_TRUE(cache.GetOrProject(compressed, v, v, level, &slice));
    }
    ASSERT_LE(cache.MemoryBytes(), budget) << "after lookup " << i;
  }
  const DecodeCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.admission_rejects, 0u);
  EXPECT_GT(stats.hits, 0u);
}

TEST(DecodedLabelCache, FailedDecodeIsNeverCached) {
  WcIndex index = BuildFinalizedIndex(60, 150, 13);
  CompressedFlatLabelSet good =
      CompressedFlatLabelSet::FromFlat(index.flat_labels());
  std::vector<uint8_t> blob(good.raw_blob().begin(), good.raw_blob().end());
  constexpr Vertex kBad = 7;
  const auto comp = good.raw_comp_offsets();
  std::fill(blob.begin() + static_cast<ptrdiff_t>(comp[kBad]),
            blob.begin() + static_cast<ptrdiff_t>(comp[kBad + 1]),
            uint8_t{0xFF});  // one unterminated varint
  const CompressedFlatLabelSet bad = CompressedFlatLabelSet::FromExternal(
      good.raw_offsets(), good.raw_group_offsets(), comp, blob,
      good.raw_dictionary(), nullptr);
  DecodedLabelCache cache(4 << 20);
  DecodedLabel label;
  std::vector<SlicePair> slice;
  for (int round = 0; round < 3; ++round) {
    slice.assign(2, SlicePair{1, 1});
    EXPECT_FALSE(cache.GetOrProject(bad, kBad, kBad, 0, &slice));
    EXPECT_TRUE(slice.empty());
    label.entries.push_back(LabelEntry{0, 0, kInfQuality});
    EXPECT_FALSE(cache.GetOrDecode(bad, kBad, kBad, &label));
    EXPECT_TRUE(label.entries.empty());
  }
  DecodeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 6u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(cache.MemoryBytes(), 0u);
  // Its neighbour still decodes and caches.
  ASSERT_TRUE(cache.GetOrProject(bad, kBad + 1, kBad + 1, 0, &slice));
  EXPECT_EQ(slice, ProjectedSlice(good, kBad + 1, 0));
  EXPECT_EQ(cache.stats().inserts, 1u);
}

// Slice and whole-label readers of the same vertices on a budget small
// enough to evict while they read (run under TSan in CI).
TEST(DecodedLabelCache, ConcurrentSliceAndWholeLabelReaders) {
  WcIndex index = BuildFinalizedIndex(120, 320, 23);
  CompressedFlatLabelSet compressed =
      CompressedFlatLabelSet::FromFlat(index.flat_labels());
  const FlatLabelSet& flat = index.flat_labels();
  DecodedLabelCache cache(48 << 10);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(200 + static_cast<uint64_t>(t));
      DecodedLabel label;
      std::vector<SlicePair> slice;
      for (int i = 0; i < 3000 && !failed; ++i) {
        const Vertex v =
            static_cast<Vertex>(rng.NextBounded(compressed.NumVertices()));
        if (t % 2 == 0) {
          const size_t level = rng.NextBounded(compressed.NumLevels());
          std::vector<SlicePair> want;
          ProjectSlice(flat.View(v), compressed.LevelQuality(level), &want);
          if (!cache.GetOrProject(compressed, v, v, level, &slice) ||
              slice != want) {
            failed = true;
          }
        } else if (!cache.GetOrDecode(compressed, v, v, &label) ||
                   !std::ranges::equal(label.entries,
                                       flat.View(v).entries)) {
          failed = true;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_LE(cache.MemoryBytes(), cache.budget_bytes());
}

// ---- engine integration ----

TEST(CompressedFlat, QueryEngineServesCompressedWithAndWithoutCache) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("cf_engine.wcsnap");
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(index.SaveSnapshot(path, compress).ok());

  for (size_t cache_bytes : {size_t{0}, size_t{8} << 20}) {
    QueryEngineOptions options;
    options.num_threads = 1;
    options.decode_cache_bytes = cache_bytes;
    auto engine = QueryEngine::Open(path, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ(engine.value().decode_cache() != nullptr, cache_bytes > 0);

    Rng rng(6);
    for (int i = 0; i < 800; ++i) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(index.NumVertices()));
      Vertex t = static_cast<Vertex>(rng.NextBounded(index.NumVertices()));
      Quality w = static_cast<Quality>(rng.NextInRange(1, 6));
      ASSERT_EQ(engine.value().Query(s, t, w), index.Query(s, t, w))
          << "cache=" << cache_bytes << " s=" << s << " t=" << t;
    }
    QueryEngineStats stats = engine.value().stats();
    EXPECT_TRUE(stats.compressed);
    EXPECT_GT(stats.uncompressed_label_bytes, stats.label_bytes);
    if (cache_bytes > 0) {
      EXPECT_GT(stats.decode_hits + stats.decode_misses, 0u);
      EXPECT_GT(stats.cold_pageins, 0u);  // mmap-backed decodes
    } else {
      EXPECT_EQ(stats.decode_hits + stats.decode_misses, 0u);
    }
  }
  std::remove(path.c_str());
}

TEST(CompressedFlat, TopKAndProfileMatchAcrossBackends) {
  WcIndex index = BuildFinalizedIndex();
  std::string flat_path = TempPath("cf_tk_flat.wcsnap");
  std::string comp_path = TempPath("cf_tk_comp.wcsnap");
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(index.SaveSnapshot(flat_path).ok());
  ASSERT_TRUE(index.SaveSnapshot(comp_path, compress).ok());

  QueryEngineOptions options;
  options.num_threads = 1;
  options.decode_cache_bytes = 4 << 20;
  auto flat_engine = QueryEngine::Open(flat_path);
  auto comp_engine = QueryEngine::Open(comp_path, options);
  ASSERT_TRUE(flat_engine.ok() && comp_engine.ok());

  Rng rng(44);
  size_t n = index.NumVertices();
  for (int i = 0; i < 50; ++i) {
    Vertex source = static_cast<Vertex>(rng.NextBounded(n));
    std::vector<Vertex> candidates;
    for (int c = 0; c < 20; ++c) {
      candidates.push_back(static_cast<Vertex>(rng.NextBounded(n)));
    }
    Quality w = static_cast<Quality>(rng.NextInRange(1, 6));
    std::vector<RankedCandidate> a, b;
    ASSERT_EQ(flat_engine.value().TopKEx(source, candidates, w, 5, &a),
              ServeOutcome::kOk);
    ASSERT_EQ(comp_engine.value().TopKEx(source, candidates, w, 5, &b),
              ServeOutcome::kOk);
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a[j].vertex, b[j].vertex);
      ASSERT_EQ(a[j].dist, b[j].dist);
    }
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    std::vector<Quality> thresholds = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
    std::vector<ProfilePoint> pa, pb;
    ASSERT_EQ(flat_engine.value().ProfileEx(s, t, thresholds, &pa),
              ServeOutcome::kOk);
    ASSERT_EQ(comp_engine.value().ProfileEx(s, t, thresholds, &pb),
              ServeOutcome::kOk);
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t j = 0; j < pa.size(); ++j) {
      ASSERT_EQ(pa[j].dist, pb[j].dist);
      ASSERT_EQ(pa[j].quality, pb[j].quality);
    }
  }
  std::remove(flat_path.c_str());
  std::remove(comp_path.c_str());
}

}  // namespace
}  // namespace wcsd
