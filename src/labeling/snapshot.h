// Versioned, checksummed, mmap'able index snapshots.
//
// The serving-side counterpart of FlatLabelSet::Save: instead of
// length-prefixed streams that force a full deserialization pass, a
// snapshot lays the four CSR label arrays (and optionally the vertex order)
// out page-aligned behind a fixed-width header, so a server can mmap the
// file and answer queries directly out of the mapping. Loading costs
// O(vertices) for offset validation and the order inversion — independent
// of the label count, which dominates file size — and label pages are
// faulted in lazily by the kernel and shared across processes.
//
// A snapshot may cover the full vertex range or a contiguous shard
// [vertex_begin, vertex_end) of a larger logical index; shard files rebase
// the offset arrays so each file is self-contained. serve/query_engine.h
// stitches shard snapshots back into one logical index.
//
// File layout (all fields little-endian, fixed width; see util/endian.h):
//   [0, 4096)    SnapshotHeader + zero padding
//   sections     each page-aligned, in file order:
//                  order (u32 Vertex per rank; full snapshots only)
//                  offsets (u64, n_range+1)   entries (12-byte LabelEntry)
//                  group_offsets (u64)        groups (8-byte HubGroup)
//                  parents (u32 Vertex, one per entry; version 2 only)
// The header carries a CRC-32C of itself and one per section. The header
// CRC is always verified on load; section CRCs only under
// `verify_checksums` (a full-file read would defeat lazy paging).
//
// Version history: v1 has a five-section table (no parents). v2 appends an
// optional parents section — the §V path-reconstruction quads, aligned
// index-for-index with the entries section — and sets kFlagHasParents.
// v3 appends three sections for the COMPRESSED label backend
// (labeling/compressed_flat.h) and sets kFlagCompressed: per-vertex byte
// offsets (u64, n_range+1), the delta/varint blob (u8), and the quality
// dictionary (f32). A compressed snapshot keeps the logical offsets and
// group_offsets sections populated (per-vertex counts without a decode)
// but writes EMPTY entries and groups sections — the blob replaces them.
// Writers emit the smallest version that can carry the payload (v1 with
// neither parents nor compression, v2 with parents only), so old files
// stay byte-identical and old readers of them keep working. Readers accept
// all three versions; loading surfaces has_parents / compressed so callers
// can report the serving mode instead of silently degrading.

#ifndef WCSD_LABELING_SNAPSHOT_H_
#define WCSD_LABELING_SNAPSHOT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "labeling/compressed_flat.h"
#include "labeling/flat_label_set.h"
#include "order/vertex_order.h"
#include "util/status.h"
#include "util/types.h"

namespace wcsd {

/// Newest snapshot format version. Bump on any layout change; readers
/// reject versions they do not know with a clean Status. Writers emit the
/// smallest version that can represent the payload (v1 without parents or
/// compression, v2 with parents only), so old fixtures stay byte-stable.
inline constexpr uint32_t kSnapshotVersion = 3;

/// Snapshot header metadata surfaced to callers.
struct SnapshotInfo {
  uint32_t version = 0;
  /// Vertices of the whole logical index this file belongs to.
  uint64_t num_vertices_total = 0;
  /// The contiguous vertex range this file covers. A full snapshot has
  /// [0, num_vertices_total).
  uint64_t vertex_begin = 0;
  uint64_t vertex_end = 0;
  bool has_order = false;
  /// True when the file carries the per-entry parent quads (v2 section).
  /// False on v1 files and parent-less v2 writes: path reconstruction
  /// against such a snapshot runs the slow index-guided fallback, and
  /// servers surface that degraded mode through their stats.
  bool has_parents = false;
  /// True when the file stores labels in the compressed v3 sections
  /// (labeling/compressed_flat.h). Such a file maps into
  /// MappedSnapshot::compressed; `labels` stays empty.
  bool compressed = false;
  /// The header's self-CRC — a cheap identity for the whole file (the
  /// header embeds every section's CRC). Shard manifests record it to
  /// detect a swapped or regenerated shard file without reading payloads.
  uint32_t header_crc = 0;

  bool IsFullRange() const {
    return vertex_begin == 0 && vertex_end == num_vertices_total;
  }
};

/// A snapshot opened for serving: label views into the mapping plus the
/// (copied, O(n)) vertex order. The FlatLabelSet keeps the mapping alive.
struct MappedSnapshot {
  SnapshotInfo info;
  /// Uncompressed files only; empty when info.compressed.
  FlatLabelSet labels;
  /// Compressed (v3) files only; empty otherwise. Keeps the mapping alive
  /// the same way `labels` does for uncompressed files — the cold tier:
  /// label bytes stay on disk and page in on first decode.
  CompressedFlatLabelSet compressed;
  /// rank -> vertex permutation; empty unless info.has_order.
  std::vector<Vertex> order_by_rank;
  /// Per-entry parent quads, aligned index-for-index with the flat entry
  /// array; empty unless info.has_parents. Points into the mapping (kept
  /// alive by `labels`).
  std::span<const Vertex> parents;
};

/// Structural-validation depth for snapshot loads. Mirrors
/// FlatLabelSet::ValidateLevel; the tiers differ in which mmap'd pages a
/// load faults in, which is the whole cost model of the zero-copy path.
enum class SnapshotVerifyLevel : uint8_t {
  /// Header page + O(vertices) offset arrays. The default: load time is
  /// independent of label count, but query kernels trust the hub-directory
  /// and entry payloads as written.
  kOffsets = 0,
  /// + O(hub-groups) directory-bounds scan: proves every group boundary
  /// the kernels index with stays inside its entry slice, closing the
  /// crash window on corrupted group data while never touching an entry
  /// page. Load time grows with label count, but only through the 8-byte
  /// directory, not the 12-byte entries.
  kDirectory = 1,
  /// + O(entries) per-entry invariants; faults in the whole file.
  kDeep = 2,
};

struct SnapshotLoadOptions {
  /// Verify the CRC-32C of every section at load time. Costs a full
  /// sequential read of the file; off by default so load stays
  /// O(vertices). The header checksum is always verified.
  bool verify_checksums = false;
  /// Structural validation tier (see SnapshotVerifyLevel).
  SnapshotVerifyLevel verify_level = SnapshotVerifyLevel::kOffsets;
  /// Legacy spelling of verify_level = kDeep; the effective tier is the
  /// deeper of the two knobs.
  bool deep_validate = false;
};
// Trust model: the default (everything off) validates the header page and
// the O(vertices) offset arrays only, so query kernels trust the section
// PAYLOADS (entries, hub-directory begins) as written — bit rot or
// tampering there can misanswer or crash the server. verify_level =
// kDirectory removes the crash classes at O(hub-groups) cost; snapshots
// you did not just write yourself should be opened with checksums on and
// verify_level = kDeep (CLI --verify), which makes every corruption class
// a clean Status.

struct SnapshotWriteOptions {
  /// Store the labels delta/varint-compressed (v3 sections, ~3-4x
  /// smaller; see labeling/compressed_flat.h). Incompatible with a
  /// parents payload: the parent quads align with the flat entry array,
  /// which a compressed file does not carry.
  bool compress = false;
};

/// Writes a full-range snapshot of `flat`. Pass the index's order so
/// WcIndex::LoadMmap can restore rank lookups; pass nullptr for a
/// label-only snapshot (servable through QueryEngine::OpenMmap or raw views).
/// `parents`, when non-empty, must hold exactly one parent vertex per flat
/// entry (same order) and is written as the v2 parents section.
Status WriteSnapshot(const std::string& path, const FlatLabelSet& flat,
                     const VertexOrder* order,
                     std::span<const Vertex> parents = {},
                     const SnapshotWriteOptions& write_options = {});

/// Writes the shard of `flat` covering local vertices [begin, end) of a
/// logical index with `num_vertices_total` vertices. Offset arrays are
/// rebased so the shard file stands alone. Shards carry no order section.
/// `parents`, when non-empty, is the FULL index's per-entry parent array;
/// the shard's slice is written alongside its entries. Under
/// `write_options.compress` each shard is compressed independently (its
/// own dictionary), so shard files remain self-contained.
Status WriteSnapshotShard(const std::string& path, const FlatLabelSet& flat,
                          uint64_t begin, uint64_t end,
                          uint64_t num_vertices_total,
                          std::span<const Vertex> parents = {},
                          const SnapshotWriteOptions& write_options = {});

/// Maps `path` and returns zero-copy label views into it. Fails with a
/// clean Status on IO errors, bad magic, unsupported version, header
/// corruption, section-table inconsistencies, and (under the options)
/// section checksum or structural corruption. Never throws or crashes on
/// malformed headers.
Result<MappedSnapshot> LoadSnapshotMmap(const std::string& path,
                                        const SnapshotLoadOptions& options = {});

/// Reads only the header of `path` (no section access). Cheap way for
/// tools to introspect a snapshot.
Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path);

}  // namespace wcsd

#endif  // WCSD_LABELING_SNAPSHOT_H_
