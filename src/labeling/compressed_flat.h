// Compressed flat label storage: the at-rest/cold-tier query backend.
//
// FlatLabelSet spends 12 bytes per entry plus 8 per hub group; on large
// graphs that label mass — not CPU — is what caps index size on one
// machine. CompressedFlatLabelSet keeps every vertex's label as one
// delta/varint byte stream instead: hubs ascend (small deltas), distances
// rise within a hub group (small deltas), and qualities come from the
// graph's few distinct values (a dictionary index). Measured ratio on the
// benchmark fixtures is ~3-4x (see README "Storage tiers").
//
// The layout is GROUP-oriented so query kernels can stream it without
// materializing the label:
//
//   per vertex: varint group_count
//     per group: varint hub_delta   (first group: absolute rank;
//                                    later groups: rank - prev_rank >= 1)
//                varint entry_count (>= 1)
//       per entry: varint dist_delta (first entry: absolute distance;
//                                     later: dist - prev_dist >= 0)
//                  varint qcode      (0 = +inf, else dictionary index + 1)
//
// Alongside the byte blob the set keeps the same two O(vertices) offset
// arrays a FlatLabelSet has (logical entry and group offsets) plus a third
// giving each vertex's byte range, so shard planning, manifest totals and
// per-vertex counts never need a decode. Like FlatLabelSet, the arrays are
// spans over either heap vectors (FromFlat) or externally owned memory —
// an mmap'd snapshot section (labeling/snapshot.h v3), which is what makes
// the cold tier work: compressed label bytes stay on disk and page in on
// first touch.
//
// Trust model mirrors the flat backend: decode paths are BOUNDS-CHECKED
// against the vertex's byte slice (corrupt bytes can misanswer at the
// default load tier but can never read out of bounds); Validate's deeper
// tiers turn every corruption class into a clean Status.

#ifndef WCSD_LABELING_COMPRESSED_FLAT_H_
#define WCSD_LABELING_COMPRESSED_FLAT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "labeling/flat_label_set.h"
#include "util/status.h"
#include "util/types.h"

namespace wcsd {

/// A vertex's label decoded into caller-owned scratch: the same shape the
/// flat query kernels consume (FlatLabelView over these spans).
struct DecodedLabel {
  std::vector<LabelEntry> entries;
  std::vector<HubGroup> groups;

  FlatLabelView View() const {
    return {{entries.data(), entries.size()}, {groups.data(), groups.size()}};
  }
  void Clear() {
    entries.clear();
    groups.clear();
  }
};

/// Immutable delta/varint-compressed packing of a FlatLabelSet.
class CompressedFlatLabelSet {
 public:
  CompressedFlatLabelSet() = default;

  /// Compresses `flat`. The quality dictionary is derived from the labels
  /// themselves (sorted distinct finite qualities).
  static CompressedFlatLabelSet FromFlat(const FlatLabelSet& flat);

  /// Wraps externally owned arrays without copying — the zero-copy path
  /// for mmap'd compressed snapshots. `keep_alive` (typically the mapping)
  /// is retained for the lifetime of this set and all copies. The caller
  /// is responsible for validation (see Validate).
  static CompressedFlatLabelSet FromExternal(
      std::span<const uint64_t> offsets, std::span<const uint64_t> group_offsets,
      std::span<const uint64_t> comp_offsets, std::span<const uint8_t> blob,
      std::span<const Quality> dictionary,
      std::shared_ptr<const void> keep_alive);

  size_t NumVertices() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t TotalEntries() const { return offsets_.empty() ? 0 : offsets_.back(); }
  size_t TotalGroups() const {
    return group_offsets_.empty() ? 0 : group_offsets_.back();
  }
  size_t EntryCount(Vertex v) const { return offsets_[v + 1] - offsets_[v]; }
  size_t GroupCount(Vertex v) const {
    return group_offsets_[v + 1] - group_offsets_[v];
  }

  /// Bytes of the compressed representation (blob + offsets + dictionary).
  size_t MemoryBytes() const {
    return blob_.size() + dictionary_.size() * sizeof(Quality) +
           (offsets_.size() + group_offsets_.size() + comp_offsets_.size()) *
               sizeof(uint64_t);
  }

  /// What the same labels cost in the flat backend (FlatLabelSet
  /// MemoryBytes) — the numerator of the compression ratio.
  size_t UncompressedBytes() const {
    return TotalEntries() * sizeof(LabelEntry) +
           TotalGroups() * sizeof(HubGroup) +
           (offsets_.size() + group_offsets_.size()) * sizeof(uint64_t);
  }

  /// True when the arrays live in externally owned memory (an mmap'd
  /// snapshot) rather than heap vectors — the cold-tier signal: a decode
  /// of an external vertex may fault label pages in from disk.
  bool external() const { return external_; }

  /// Decodes L(v) into `out` (cleared first). Bounds-checked: any
  /// structural violation — truncated varint, counts disagreeing with the
  /// offset arrays, non-ascending hubs, out-of-range quality code — is a
  /// clean Status and leaves `out` cleared.
  Status DecodeVertex(Vertex v, DecodedLabel* out) const;

  /// Exact inverse of FromFlat (round-trip tests; one-shot migration).
  Result<FlatLabelSet> Decompress() const;

  /// Structural validation. kShape is O(vertices): array shapes, offset
  /// monotonicity, dictionary sortedness. kDirectory and kDeep both cost a
  /// full streaming parse of the blob (compressed streams cannot be
  /// skip-validated the way the flat directory can): kDirectory proves
  /// every stream decodes cleanly with counts matching the offset arrays
  /// and strictly ascending hubs; kDeep additionally checks per-group
  /// distance monotonicity.
  Status Validate(ValidateLevel level) const;

  /// Content fingerprint of the DECODED index: identical to
  /// IndexContentFingerprint over the equivalent FlatLabelSet, so caches
  /// and manifests bind compressed and flat servings of one index to the
  /// same identity. Costs a full decode pass.
  uint64_t ContentFingerprint() const;

  /// Chains this set's decoded entry/group payload CRCs onto the caller's
  /// running values — the shard-set form of ContentFingerprint (see
  /// QueryEngine::ContentFingerprint). Returns false when a vertex
  /// fails to decode. Costs a full decode pass.
  bool ChainContentCrcs(uint32_t* entries_crc, uint32_t* groups_crc) const;

  /// Raw arrays in storage order, for the snapshot writer.
  std::span<const uint64_t> raw_offsets() const { return offsets_; }
  std::span<const uint64_t> raw_group_offsets() const {
    return group_offsets_;
  }
  std::span<const uint64_t> raw_comp_offsets() const { return comp_offsets_; }
  std::span<const uint8_t> raw_blob() const { return blob_; }
  std::span<const Quality> raw_dictionary() const { return dictionary_; }

  friend bool operator==(const CompressedFlatLabelSet& a,
                         const CompressedFlatLabelSet& b);

 private:
  struct OwnedArrays {
    std::vector<uint64_t> offsets;
    std::vector<uint64_t> group_offsets;
    std::vector<uint64_t> comp_offsets;
    std::vector<uint8_t> blob;
    std::vector<Quality> dictionary;
  };

  void Adopt(std::shared_ptr<const OwnedArrays> owned);

  std::span<const uint64_t> offsets_;        // n+1, logical entry offsets
  std::span<const uint64_t> group_offsets_;  // n+1, logical group offsets
  std::span<const uint64_t> comp_offsets_;   // n+1, byte offsets into blob_
  std::span<const uint8_t> blob_;            // varint streams, vertex-major
  std::span<const Quality> dictionary_;      // sorted distinct finite
  std::shared_ptr<const void> storage_;      // OwnedArrays or mmap handle
  bool external_ = false;
};

/// Streaming kMerge kernel over two compressed labels, L(s) from
/// `s_labels` and L(t) from `t_labels` (the same set for a whole index;
/// two shards' sets — each with its own quality dictionary — for a
/// cross-shard pair; s and t are local to their sets). Two group cursors
/// walk the varint streams directly — matched groups are scanned for the
/// first entry with quality >= w (Theorem 3), unmatched groups are skipped
/// without building a single LabelEntry. Bit-identical to QueryFlatMerge
/// on the decoded labels (tested); bounds-checked, so corrupt bytes
/// degrade to "stream ends early" instead of reading out of range. An
/// endpoint out of its set's range answers kInfDistance.
Distance QueryCompressedMerge(const CompressedFlatLabelSet& s_labels,
                              Vertex s, const CompressedFlatLabelSet& t_labels,
                              Vertex t, Quality w);

}  // namespace wcsd

#endif  // WCSD_LABELING_COMPRESSED_FLAT_H_
