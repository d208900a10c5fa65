// One read-side label source: the labels of a vertex range, flat,
// level-sliced or compressed.
//
// Query+ (Algorithm 5, §IV.C) reads exactly two hub-grouped labels, L(s)
// and L(t), so any storage that hands out a vertex's FlatLabelView can
// serve it. LabelSource holds one of three forms and is the one place that
// knows which: the snapshot loader returns one, a finalized WcIndex serves
// from one, and every QueryEngine shard holds one.
//   * flat (FlatLabelSet): views straight into the CSR arrays;
//   * sliced (SlicedLabelSet): one hub-sorted (hub, dist) array per
//     quality level, so QueryMerge of two sliced endpoints is a plain
//     two-array merge; every other reader gets the label rebuilt into its
//     scratch;
//   * compressed (CompressedFlatLabelSet): per-vertex varint streams,
//     decoded into caller scratch.
// A source is a cheap value — every set is spans plus a shared keep-alive
// handle, so copies share the heap arrays or the mmap'd snapshot
// underneath. Fingerprints, Materialize and Validate see the same flat
// labels whatever the form.

#ifndef WCSD_LABELING_LABEL_SOURCE_H_
#define WCSD_LABELING_LABEL_SOURCE_H_

#include <cstdint>
#include <utility>

#include "labeling/compressed_flat.h"
#include "labeling/flat_label_set.h"
#include "labeling/sliced_labels.h"
#include "util/status.h"
#include "util/types.h"

namespace wcsd {

/// How a LabelSource stores its labels.
enum class LabelForm : uint8_t { kFlat, kSliced, kCompressed };

/// "flat", "sliced" or "compressed", for reports.
const char* LabelFormName(LabelForm form);

class LabelSource {
  // Declared first: the accessors below deduce their types through it.
  /// f(set) on the set matching form().
  template <typename F>
  decltype(auto) Visit(F&& f) const {
    switch (form_) {
      case LabelForm::kSliced:
        return f(sliced_);
      case LabelForm::kCompressed:
        return f(packed_);
      case LabelForm::kFlat:
        break;
    }
    return f(flat_);
  }

 public:
  /// An empty flat source (no vertices).
  LabelSource() = default;
  explicit LabelSource(FlatLabelSet flat) : flat_(std::move(flat)) {}
  explicit LabelSource(SlicedLabelSet sliced)
      : sliced_(std::move(sliced)), form_(LabelForm::kSliced) {}
  explicit LabelSource(CompressedFlatLabelSet packed)
      : packed_(std::move(packed)), form_(LabelForm::kCompressed) {}

  /// For reporting and for sizing a decode cache; queries never need it.
  LabelForm form() const { return form_; }
  bool compressed() const { return form_ == LabelForm::kCompressed; }

  size_t NumVertices() const {
    return Visit([](const auto& set) { return set.NumVertices(); });
  }
  size_t TotalEntries() const {
    return Visit([](const auto& set) { return set.TotalEntries(); });
  }
  size_t TotalGroups() const {
    return Visit([](const auto& set) { return set.TotalGroups(); });
  }
  /// Bytes as stored.
  size_t MemoryBytes() const {
    return Visit([](const auto& set) { return set.MemoryBytes(); });
  }
  /// Bytes of the same labels as flat CSR arrays.
  size_t UncompressedBytes() const {
    if (form_ == LabelForm::kFlat) return flat_.MemoryBytes();
    return TotalEntries() * sizeof(LabelEntry) +
           TotalGroups() * sizeof(HubGroup) +
           2 * (NumVertices() + 1) * sizeof(uint64_t);
  }
  /// True when the labels live in an mmap'd snapshot.
  bool external() const {
    return Visit([](const auto& set) { return set.external(); });
  }

  /// L(local), local < NumVertices(). Flat: a view into the arrays,
  /// `scratch` untouched. Sliced and compressed: rebuilt into `scratch`,
  /// so the view lives until `scratch` changes; a failed rebuild (corrupt
  /// bytes below the deep validation tier) gives an empty view, which
  /// answers like an unreachable vertex.
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
    switch (form_) {
      case LabelForm::kFlat:
        return flat_.View(local);
      case LabelForm::kSliced:
        if (!sliced_.DecodeVertex(local, scratch).ok()) scratch->Clear();
        break;
      case LabelForm::kCompressed:
        if (!decode(packed_, local, scratch)) scratch->Clear();
        break;
    }
    return scratch->View();
  }

  /// IndexContentFingerprint of the equivalent flat set, however stored; 0
  /// when a vertex fails to rebuild (a full pass).
  uint64_t ContentFingerprint() const;

  /// The labels as a flat set: a copy sharing the arrays when flat, a full
  /// rebuild otherwise. Fails on corrupt bytes.
  Result<FlatLabelSet> Materialize() const;

  Status Validate(ValidateLevel level) const {
    return Visit([level](const auto& set) { return set.Validate(level); });
  }

  /// The underlying sets (only the one matching form() is non-empty), for
  /// writers and storage-level tests.
  const FlatLabelSet& flat() const { return flat_; }
  const SlicedLabelSet& sliced() const { return sliced_; }
  const CompressedFlatLabelSet& packed() const { return packed_; }

 private:
  /// Rebuilds L(local) of a sliced or compressed source into `out`.
  Status Decode(Vertex local, DecodedLabel* out) const;

  FlatLabelSet flat_;
  SlicedLabelSet sliced_;
  CompressedFlatLabelSet packed_;
  LabelForm form_ = LabelForm::kFlat;

  friend class ContentCrcChain;
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

  /// Appends the next source in tiling order; false when a vertex fails
  /// to rebuild.
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
/// range). Two sliced endpoints run the two-array merge
/// (QuerySlicedMerge) and two compressed endpoints stream their varint
/// groups (QueryCompressedMerge); any other pair runs the flat merge over
/// the views.
Distance QueryMerge(const LabelSource& s_labels, Vertex s,
                    const LabelSource& t_labels, Vertex t, Quality w,
                    DecodedLabel* s_scratch, DecodedLabel* t_scratch);

}  // namespace wcsd

#endif  // WCSD_LABELING_LABEL_SOURCE_H_
