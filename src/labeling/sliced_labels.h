// Level-sliced label storage: the query shape of the paper's §III naive
// baseline, projected from the one WC-Index.
//
// Theorem 3 says that within a hub group both distance and quality
// strictly ascend, so under a constraint w only the group's first entry
// with quality >= w can matter. Query+ (Algorithm 5) over FlatLabelSet
// still pays for the whole group on every query: a hub-directory walk
// plus two FirstWithQuality binary searches per matched hub. The §III
// baseline instead keeps one hub-sorted label per quality level and
// answers with a plain two-array merge, but builds |w| indexes to get
// there. SlicedLabelSet takes that query shape from the finished index:
//
//   * a dictionary of the distinct entry qualities q_0 < ... < q_{K-1}
//     (per set, so every shard file has its own);
//   * per level k, an (n+1) offsets array and a hub-sorted array of packed
//     (hub, dist) pairs, one per hub group whose last entry has quality
//     >= q_k, carrying the distance of the group's first such entry.
//
// A constraint w is served by the smallest level with q_k >= w (no entry
// quality lies in [w, q_k), so the first entry with quality >= q_k is the
// first with quality >= w). The form is lossless: a group's entries are
// the distinct distances it carries across levels, and an entry's quality
// is the highest level carrying it — exact whenever Theorem 3 holds, which
// FromFlat checks.
//
// Like the other forms the arrays are spans over heap vectors (FromFlat)
// or externally owned memory — the v4 snapshot sections
// (labeling/snapshot.h) — and the logical entry and group offset arrays
// ride along, so per-vertex counts, manifest totals and shard planning
// never need a rebuild.

#ifndef WCSD_LABELING_SLICED_LABELS_H_
#define WCSD_LABELING_SLICED_LABELS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "labeling/compressed_flat.h"
#include "labeling/flat_label_set.h"
#include "util/status.h"
#include "util/types.h"

namespace wcsd {

/// One slice element: a hub and the distance of its group's first entry
/// whose quality reaches the slice's level.
struct SlicePair {
  Rank hub;
  Distance dist;

  friend bool operator==(const SlicePair&, const SlicePair&) = default;
};

/// The level serving constraint w over ascending level qualities
/// `levels`: the smallest k with levels[k] >= w, or levels.size() when
/// there is none (w NaN or above the top level). No entry quality lies in
/// [w, levels[k]), so level k's slice is the slice at w. SlicedLabelSet
/// and CompressedFlatLabelSet both pick their levels with it.
size_t LevelFor(std::span<const Quality> levels, Quality w);

/// The slice of one label at threshold q, into *out (replaced): per hub
/// group, the hub and the distance of its first entry with quality >= q
/// (FirstWithQuality), hub-sorted; groups without one are left out. The
/// pairs SlicedLabelSet stores at a level of quality q.
void ProjectSlice(const FlatLabelView& label, Quality q,
                  std::vector<SlicePair>* out);

/// The Query+ merge of two slices at one constraint: the minimum of
/// a.dist + b.dist over the hubs both carry, kInfDistance when none.
Distance MergeSlices(std::span<const SlicePair> a,
                     std::span<const SlicePair> b);

/// Immutable level-sliced packing of a FlatLabelSet.
class SlicedLabelSet {
 public:
  SlicedLabelSet() = default;

  /// Slices `flat`. Fails with InvalidArgument when the slices could not
  /// rebuild it exactly: a NaN quality, or a hub group whose distances or
  /// qualities do not strictly ascend.
  static Result<SlicedLabelSet> FromFlat(const FlatLabelSet& flat);

  /// The snapshot writer's rule: the sliced form of `flat` when it is
  /// lossless and its MemoryBytes are no more than flat.MemoryBytes(),
  /// else nullopt. The size test is one pass over hub groups before any
  /// slice is built.
  static std::optional<SlicedLabelSet> FromFlatIfNoLarger(
      const FlatLabelSet& flat);

  /// Wraps externally owned arrays without copying (the mmap'd v4
  /// sections). `level_offsets` holds NumLevels() rows of n+1 absolute
  /// offsets into `pairs`. The caller validates (see Validate).
  static SlicedLabelSet FromExternal(std::span<const uint64_t> offsets,
                                     std::span<const uint64_t> group_offsets,
                                     std::span<const Quality> dictionary,
                                     std::span<const uint64_t> level_offsets,
                                     std::span<const SlicePair> pairs,
                                     std::shared_ptr<const void> keep_alive);

  size_t NumVertices() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t NumLevels() const { return dictionary_.size(); }
  size_t TotalEntries() const { return offsets_.empty() ? 0 : offsets_.back(); }
  size_t TotalGroups() const {
    return group_offsets_.empty() ? 0 : group_offsets_.back();
  }
  size_t EntryCount(Vertex v) const { return offsets_[v + 1] - offsets_[v]; }
  size_t GroupCount(Vertex v) const {
    return group_offsets_[v + 1] - group_offsets_[v];
  }

  /// The level serving constraint w: the smallest k with q_k >= w, or
  /// NumLevels() when there is none — w NaN or above the top level, where
  /// no entry qualifies and the answer is INF.
  size_t LevelFor(Quality w) const { return wcsd::LevelFor(dictionary_, w); }

  /// Vertex v's slice at `level` (< NumLevels()), hub-sorted.
  std::span<const SlicePair> Slice(size_t level, Vertex v) const {
    const uint64_t* row = level_offsets_.data() + level * offsets_.size();
    return {pairs_.data() + row[v], pairs_.data() + row[v + 1]};
  }

  /// Bytes as stored: the slices, their offsets, the dictionary and the
  /// two logical offset arrays.
  size_t MemoryBytes() const {
    return pairs_.size() * sizeof(SlicePair) +
           dictionary_.size() * sizeof(Quality) +
           (level_offsets_.size() + offsets_.size() + group_offsets_.size()) *
               sizeof(uint64_t);
  }

  /// True when the arrays live in an mmap'd snapshot.
  bool external() const { return external_; }

  /// Rebuilds L(v)'s flat entries and hub directory into `out` (cleared
  /// first). Checks as it goes: hubs strictly ascend, each level's hubs
  /// are a subset of the level below's with non-decreasing distance, and
  /// the counts match the logical offsets; a violation is a clean
  /// Corruption and leaves `out` cleared.
  Status DecodeVertex(Vertex v, DecodedLabel* out) const;

  /// kShape: array shapes, logical and per-level offsets monotone and in
  /// range, dictionary strictly ascending with no NaN — O(levels ·
  /// vertices), no pair page touched. kDirectory adds per-vertex slice
  /// lengths (level 0 holds every group, higher levels no more than the
  /// level below). kDeep rebuilds every vertex (DecodeVertex's checks).
  Status Validate(ValidateLevel level) const;

  /// Raw arrays in storage order, for the snapshot writer.
  std::span<const Quality> raw_dictionary() const { return dictionary_; }
  std::span<const uint64_t> raw_level_offsets() const {
    return level_offsets_;
  }
  std::span<const SlicePair> raw_pairs() const { return pairs_; }

 private:
  struct OwnedArrays {
    std::vector<uint64_t> offsets;
    std::vector<uint64_t> group_offsets;
    std::vector<Quality> dictionary;
    std::vector<uint64_t> level_offsets;
    std::unique_ptr<SlicePair[]> pairs;
    size_t num_pairs = 0;
  };

  /// Slices `flat` whose sorted dictionary and per-level pair counts are
  /// already known (the plan FromFlat and FromFlatIfNoLarger share).
  static SlicedLabelSet Build(const FlatLabelSet& flat,
                              std::vector<Quality> dictionary,
                              std::span<const uint64_t> level_pairs);

  std::span<const uint64_t> offsets_;        // n+1, logical entry offsets
  std::span<const uint64_t> group_offsets_;  // n+1, logical group offsets
  std::span<const Quality> dictionary_;      // K, strictly ascending
  std::span<const uint64_t> level_offsets_;  // K rows of n+1, into pairs_
  std::span<const SlicePair> pairs_;         // level-major, vertex-major
  std::shared_ptr<const void> storage_;      // OwnedArrays or mmap handle
  bool external_ = false;
};

/// Query+ over two sliced labels, L(s) from `s_labels` and L(t) from
/// `t_labels` (one set for a whole index, two shards' — each with its own
/// dictionary — for a cross-shard pair; s and t local). Each side picks
/// its level with LevelFor(w), then MergeSlices over the two hub-sorted
/// arrays: no hub directory and no FirstWithQuality search. Bit-identical
/// to QueryFlatMerge on the rebuilt labels, including w NaN or above the
/// top level (INF). An endpoint out of its set's range answers
/// kInfDistance.
Distance QuerySlicedMerge(const SlicedLabelSet& s_labels, Vertex s,
                          const SlicedLabelSet& t_labels, Vertex t, Quality w);

}  // namespace wcsd

#endif  // WCSD_LABELING_SLICED_LABELS_H_
