// Shard-set manifests: one artifact naming a whole sharded index.
//
// A sharded snapshot used to be "an ordered list of paths the operator
// promises belong together" — nothing pinned the tiling, the source index,
// or the files' integrity until OpenMmap happened to notice. The manifest
// makes the shard set a first-class artifact: a small versioned,
// CRC-32C-checksummed file recording every shard's path (relative to the
// manifest, so the set is relocatable), its [begin, end) vertex range, its
// entry/group/byte mass, the snapshot header CRC of the file that was
// written, and a content fingerprint of the whole logical index.
// QueryEngine::OpenManifest opens the set through it and
// cross-checks all of that against the files it maps.
//
// File layout (little-endian fixed width, util/endian.h contract):
//   ManifestHeader
//   shard_count * ShardRecord      (fixed 48 bytes each)
//   concatenated path bytes        (per-record path_bytes, no terminators)
//   u32 manifest_crc               (CRC-32C of every preceding byte)
//
// The planner (labeling/shard_plan.h) decides the tiling; WriteShardSet
// turns a plan into shard snapshot files plus their manifest in one step.

#ifndef WCSD_LABELING_SHARD_MANIFEST_H_
#define WCSD_LABELING_SHARD_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "labeling/flat_label_set.h"
#include "labeling/shard_plan.h"
#include "labeling/snapshot.h"
#include "util/status.h"
#include "util/types.h"

namespace wcsd {

/// Current manifest format version. Bump on any layout change; readers
/// reject other versions with a clean Status.
inline constexpr uint32_t kShardManifestVersion = 1;

/// One shard as the manifest records it.
struct ShardManifestEntry {
  /// Path as stored: relative to the manifest's directory (the normal
  /// case, keeping the shard set relocatable) or absolute.
  std::string path;
  uint64_t vertex_begin = 0;
  uint64_t vertex_end = 0;
  uint64_t entry_count = 0;
  uint64_t group_count = 0;
  /// Serialized CSR payload bytes (PlannedShard::bytes).
  uint64_t label_bytes = 0;
  /// The shard snapshot's header self-CRC (SnapshotInfo::header_crc); a
  /// swapped or regenerated shard file fails this before any payload read.
  uint32_t snapshot_header_crc = 0;

  friend bool operator==(const ShardManifestEntry&,
                         const ShardManifestEntry&) = default;
};

struct ShardManifest {
  uint64_t num_vertices_total = 0;
  uint64_t total_entries = 0;
  uint64_t total_groups = 0;
  uint64_t total_label_bytes = 0;
  /// Content fingerprint of the logical index (IndexContentFingerprint);
  /// independent of the tiling, so any two shard sets of the same index
  /// carry the same value.
  uint64_t fingerprint = 0;
  std::vector<ShardManifestEntry> shards;

  /// Checks the recorded ranges tile [0, num_vertices_total) in order and
  /// the per-shard masses add up to the recorded totals. Read/Write do NOT
  /// run this — a manifest parses independently of its semantics so
  /// OpenManifest can reject a bad tiling with a precise message (and
  /// tests can craft invalid sets).
  Status ValidateTiling() const;

  friend bool operator==(const ShardManifest&, const ShardManifest&) =
      default;
};

/// Fingerprint of a label set's content: CRC-32C over the entry and
/// hub-directory payload bytes (each seeded with the vertex count),
/// packed (groups_crc << 32) | entries_crc. Computable incrementally from
/// shard slices in tiling order — OpenManifest recomputes it that way
/// under verify_checksums.
uint64_t IndexContentFingerprint(const FlatLabelSet& flat);

/// Serializes `manifest` to `path` (see the file-layout comment above).
Status WriteShardManifest(const std::string& path,
                          const ShardManifest& manifest);

/// Parses a manifest. Fails with a clean Status on IO errors, bad magic,
/// unsupported version, truncation, checksum mismatch, and inconsistent
/// record tables. Does not touch the shard files.
Result<ShardManifest> ReadShardManifest(const std::string& path);

/// Resolves a manifest-recorded shard path against the manifest's own
/// location: absolute paths pass through, relative ones attach to the
/// manifest's directory.
std::string ResolveShardPath(const std::string& manifest_path,
                             const std::string& shard_path);

/// A shard set written to disk: the manifest plus where everything went.
struct WrittenShardSet {
  std::string manifest_path;
  std::vector<std::string> shard_paths;
  ShardManifest manifest;
};

/// Materializes `plan` over `flat`: writes <stem>.shard<k> snapshot files
/// (WriteSnapshotShard) and <stem>.manifest referencing them by relative
/// path. The plan must tile flat's vertex range. Under
/// `write_options.compress` every shard file stores its labels in the
/// compressed v3 sections; the manifest's counts and fingerprint stay
/// LOGICAL (identical to the uncompressed set's manifest), so a shard set
/// keeps one identity across storage backends.
Result<WrittenShardSet> WriteShardSet(
    const std::string& stem, const FlatLabelSet& flat, const ShardPlan& plan,
    const SnapshotWriteOptions& write_options = {});

}  // namespace wcsd

#endif  // WCSD_LABELING_SHARD_MANIFEST_H_
