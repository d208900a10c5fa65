// One read-side label source: the labels of a vertex range, flat or
// compressed.
//
// Query+ (Algorithm 5, §IV.C) reads exactly two hub-grouped labels, L(s)
// and L(t), so any storage that hands out a vertex's FlatLabelView can
// serve it. LabelSource holds either a FlatLabelSet (views straight into
// the CSR arrays) or a CompressedFlatLabelSet (per-vertex varint streams,
// decoded into caller scratch) and is the one place that knows which: the
// snapshot loader returns one, a finalized WcIndex serves from one, and
// every QueryEngine shard holds one. A source is a cheap value — both sets
// are spans plus a shared keep-alive handle, so copies share the heap
// arrays or the mmap'd snapshot underneath.

#ifndef WCSD_LABELING_LABEL_SOURCE_H_
#define WCSD_LABELING_LABEL_SOURCE_H_

#include <cstdint>
#include <utility>

#include "labeling/compressed_flat.h"
#include "labeling/flat_label_set.h"
#include "util/status.h"
#include "util/types.h"

namespace wcsd {

class LabelSource {
 public:
  /// An empty flat source (no vertices).
  LabelSource() = default;
  explicit LabelSource(FlatLabelSet flat) : flat_(std::move(flat)) {}
  explicit LabelSource(CompressedFlatLabelSet packed)
      : packed_(std::move(packed)), compressed_(true) {}

  /// For reporting and for sizing a decode cache; queries never need it.
  bool compressed() const { return compressed_; }

  size_t NumVertices() const {
    return compressed_ ? packed_.NumVertices() : flat_.NumVertices();
  }
  size_t TotalEntries() const {
    return compressed_ ? packed_.TotalEntries() : flat_.TotalEntries();
  }
  size_t TotalGroups() const {
    return compressed_ ? packed_.TotalGroups() : flat_.raw_groups().size();
  }
  /// Bytes as stored.
  size_t MemoryBytes() const {
    return compressed_ ? packed_.MemoryBytes() : flat_.MemoryBytes();
  }
  /// Bytes of the same labels as flat CSR arrays.
  size_t UncompressedBytes() const {
    return compressed_ ? packed_.UncompressedBytes() : flat_.MemoryBytes();
  }

  /// L(local), local < NumVertices(). Flat: a view into the arrays,
  /// `scratch` untouched. Compressed: decoded into `scratch`, so the view
  /// lives until `scratch` changes; a failed decode (corrupt bytes below
  /// the deep validation tiers) gives an empty view, which answers like an
  /// unreachable vertex.
  FlatLabelView View(Vertex local, DecodedLabel* scratch) const {
    return View(local, scratch,
                [](const CompressedFlatLabelSet& set, Vertex v,
                   DecodedLabel* out) {
                  return set.DecodeVertex(v, out).ok();
                });
  }

  /// View with the compressed decode done by `decode(set, local, scratch)`,
  /// false on failure — how the engine routes decodes through its decoded
  /// label cache.
  template <typename Decode>
  FlatLabelView View(Vertex local, DecodedLabel* scratch,
                     Decode&& decode) const {
    if (!compressed_) return flat_.View(local);
    if (!decode(packed_, local, scratch)) scratch->Clear();
    return scratch->View();
  }

  /// IndexContentFingerprint of the equivalent flat set, however stored; 0
  /// when a compressed vertex fails to decode (a full decode pass).
  uint64_t ContentFingerprint() const;

  /// The labels as a flat set: a copy sharing the arrays when flat, a full
  /// decode when compressed. Fails on corrupt bytes.
  Result<FlatLabelSet> Materialize() const;

  Status Validate(ValidateLevel level) const;

  /// The underlying sets (flat() is empty for a compressed source, packed()
  /// for a flat one), for writers and storage-level tests.
  const FlatLabelSet& flat() const { return flat_; }
  const CompressedFlatLabelSet& packed() const { return packed_; }

 private:
  FlatLabelSet flat_;
  CompressedFlatLabelSet packed_;
  bool compressed_ = false;
};

/// The content-CRC chain behind every index fingerprint: CRC-32C over the
/// concatenated entry arrays and over the concatenated hub-group arrays,
/// both seeded with the logical vertex count. HubGroup.begin is
/// vertex-relative, so appending a tiling's sources in vertex order gives
/// the unsharded flat index's fingerprint wherever the cuts fall and
/// however each piece is stored.
class ContentCrcChain {
 public:
  explicit ContentCrcChain(uint64_t num_vertices_total);

  /// Appends the next source in tiling order; false when a compressed
  /// vertex fails to decode.
  bool Append(const LabelSource& labels);

  uint64_t Fingerprint() const {
    return (uint64_t{groups_crc_} << 32) | entries_crc_;
  }

 private:
  uint32_t entries_crc_;
  uint32_t groups_crc_;
};

/// Query+ over L(s) in `s_labels` and L(t) in `t_labels` (one source for a
/// whole index, two shards' for a cross-shard pair; s and t local and in
/// range). Two compressed endpoints stream their varint groups
/// (QueryCompressedMerge); otherwise the flat merge runs over the views.
Distance QueryMerge(const LabelSource& s_labels, Vertex s,
                    const LabelSource& t_labels, Vertex t, Quality w,
                    DecodedLabel* s_scratch, DecodedLabel* t_scratch);

}  // namespace wcsd

#endif  // WCSD_LABELING_LABEL_SOURCE_H_
