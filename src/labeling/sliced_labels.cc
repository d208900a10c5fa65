#include "labeling/sliced_labels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

namespace wcsd {

namespace {

/// What slicing a flat set takes: its dictionary and per-level pair
/// counts.
struct SlicePlan {
  std::vector<Quality> dictionary;
  std::vector<uint64_t> level_pairs;
  size_t bytes = 0;
};

/// A quality the dictionary cannot carry bit-exactly: NaN has no place in
/// a sorted order, and -0.0 compares equal to +0.0.
bool Unsliceable(Quality q) {
  return std::isnan(q) || (q == 0 && std::signbit(q));
}

/// The distinct qualities seen so far, each with the number of hub groups
/// whose last entry carries it: an open-addressed table keyed by the
/// float's bits. Quality sets are small (a graph's few levels plus +inf),
/// and consecutive entries often repeat one, so lookups mostly hit the
/// remembered last slot.
class QualityTable {
 public:
  QualityTable() : keys_(16, kEmpty), counts_(16, 0) {}

  /// The slot of q, inserted if new. q must not be Unsliceable (so its
  /// bits never equal kEmpty, a NaN pattern).
  size_t Find(Quality q) {
    uint32_t bits;
    std::memcpy(&bits, &q, sizeof(bits));
    if (bits == last_bits_) return last_slot_;
    if (2 * (size_ + 1) > keys_.size()) Grow();
    size_t slot = Probe(bits);
    if (keys_[slot] == kEmpty) {
      keys_[slot] = bits;
      ++size_;
    }
    last_bits_ = bits;
    last_slot_ = slot;
    return slot;
  }
  void CountGroupEnd(size_t slot) { ++counts_[slot]; }

  /// The qualities ascending, with the group-end counts in the same order.
  void Sorted(std::vector<Quality>* dict, std::vector<uint64_t>* counts) const {
    std::vector<std::pair<Quality, uint64_t>> all;
    all.reserve(size_);
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == kEmpty) continue;
      Quality q;
      std::memcpy(&q, &keys_[i], sizeof(q));
      all.emplace_back(q, counts_[i]);
    }
    std::sort(all.begin(), all.end());
    dict->clear();
    counts->clear();
    for (const auto& [q, count] : all) {
      dict->push_back(q);
      counts->push_back(count);
    }
  }

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  size_t Probe(uint32_t bits) const {
    const size_t mask = keys_.size() - 1;
    size_t slot = (uint64_t{bits} * 0x9E3779B97F4A7C15ull >> 32) & mask;
    while (keys_[slot] != kEmpty && keys_[slot] != bits) slot = (slot + 1) & mask;
    return slot;
  }

  void Grow() {
    std::vector<uint32_t> keys = std::move(keys_);
    std::vector<uint64_t> counts = std::move(counts_);
    keys_.assign(2 * keys.size(), kEmpty);
    counts_.assign(2 * keys.size(), 0);
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == kEmpty) continue;
      const size_t slot = Probe(keys[i]);
      keys_[slot] = keys[i];
      counts_[slot] = counts[i];
    }
    last_bits_ = kEmpty;
  }

  std::vector<uint32_t> keys_;
  std::vector<uint64_t> counts_;
  size_t size_ = 0;
  uint32_t last_bits_ = kEmpty;
  size_t last_slot_ = 0;
};

/// Fills *plan for `flat` in one pass over its hub groups. False when the
/// slices could not rebuild it exactly (see FromFlat) or would take more
/// than `max_bytes`.
bool PlanSlices(const FlatLabelSet& flat, size_t max_bytes, SlicePlan* plan) {
  // A group reaches every level up to its last entry's quality, so the
  // group-end counts per quality give every level's size.
  QualityTable table;
  const size_t n = flat.NumVertices();
  for (Vertex v = 0; v < n; ++v) {
    const FlatLabelView view = flat.View(v);
    for (size_t g = 0; g < view.groups.size(); ++g) {
      const size_t begin = view.groups[g].begin;
      const size_t end = view.GroupEnd(g);
      if (begin >= end) return false;
      size_t slot = 0;
      for (size_t i = begin; i < end; ++i) {
        const LabelEntry& e = view.entries[i];
        if (Unsliceable(e.quality)) return false;
        if (i > begin && (!(view.entries[i - 1].dist < e.dist) ||
                          !(view.entries[i - 1].quality < e.quality))) {
          return false;
        }
        slot = table.Find(e.quality);
      }
      table.CountGroupEnd(slot);
    }
  }
  std::vector<uint64_t> top;
  table.Sorted(&plan->dictionary, &top);
  const size_t levels = plan->dictionary.size();
  plan->level_pairs.assign(levels, 0);
  uint64_t reaching = 0, pairs = 0;
  for (size_t k = levels; k-- > 0;) {
    reaching += top[k];
    plan->level_pairs[k] = reaching;
    pairs += reaching;
  }
  const size_t rows = n + 1;
  plan->bytes = levels * sizeof(Quality) +
                (levels * rows + 2 * rows) * sizeof(uint64_t) +
                pairs * sizeof(SlicePair);
  return plan->bytes <= max_bytes;
}

}  // namespace

Result<SlicedLabelSet> SlicedLabelSet::FromFlat(const FlatLabelSet& flat) {
  SlicePlan plan;
  if (!PlanSlices(flat, std::numeric_limits<size_t>::max(), &plan)) {
    return Status::InvalidArgument(
        "labels cannot be sliced losslessly: a NaN or -0 quality, or a hub "
        "group whose distances or qualities do not strictly ascend");
  }
  return Build(flat, std::move(plan.dictionary), plan.level_pairs);
}

std::optional<SlicedLabelSet> SlicedLabelSet::FromFlatIfNoLarger(
    const FlatLabelSet& flat) {
  SlicePlan plan;
  if (!PlanSlices(flat, flat.MemoryBytes(), &plan)) return std::nullopt;
  return Build(flat, std::move(plan.dictionary), plan.level_pairs);
}

SlicedLabelSet SlicedLabelSet::Build(const FlatLabelSet& flat,
                                     std::vector<Quality> dictionary,
                                     std::span<const uint64_t> level_pairs) {
  auto owned = std::make_shared<OwnedArrays>();
  const size_t n = flat.NumVertices();
  const size_t rows = n + 1;
  const size_t levels = dictionary.size();
  owned->offsets.assign(flat.raw_offsets().begin(), flat.raw_offsets().end());
  owned->group_offsets.assign(flat.raw_group_offsets().begin(),
                              flat.raw_group_offsets().end());
  if (owned->offsets.empty()) owned->offsets.push_back(0);
  if (owned->group_offsets.empty()) owned->group_offsets.push_back(0);
  owned->dictionary = std::move(dictionary);
  const std::vector<Quality>& dict = owned->dictionary;

  // Level k's pairs start where level k-1's end; pos[k] is its write
  // cursor.
  std::vector<uint64_t> pos(levels, 0);
  for (size_t k = 1; k < levels; ++k) pos[k] = pos[k - 1] + level_pairs[k - 1];
  owned->level_offsets.resize(levels * rows);
  owned->num_pairs = levels == 0 ? 0 : pos[levels - 1] + level_pairs.back();
  // Every pair is written below; skip the zero fill.
  owned->pairs.reset(new SlicePair[owned->num_pairs]);
  uint64_t* level_offsets = owned->level_offsets.data();
  SlicePair* pairs = owned->pairs.get();
  // One pass per vertex fills every level: within a group the entries and
  // the levels advance together, each level taking the first entry whose
  // quality reaches it, up to the level of the group's last entry.
  for (Vertex v = 0; v < n; ++v) {
    for (size_t k = 0; k < levels; ++k) level_offsets[k * rows + v] = pos[k];
    const FlatLabelView view = flat.View(v);
    for (size_t g = 0; g < view.groups.size(); ++g) {
      const Rank hub = view.groups[g].hub;
      const size_t end = view.GroupEnd(g);
      const Quality q_last = view.entries[end - 1].quality;
      size_t i = view.groups[g].begin;
      for (size_t k = 0; k < levels && dict[k] <= q_last; ++k) {
        while (view.entries[i].quality < dict[k]) ++i;
        pairs[pos[k]++] = SlicePair{hub, view.entries[i].dist};
      }
    }
  }
  for (size_t k = 0; k < levels; ++k) level_offsets[k * rows + n] = pos[k];

  SlicedLabelSet out;
  out.offsets_ = owned->offsets;
  out.group_offsets_ = owned->group_offsets;
  out.dictionary_ = owned->dictionary;
  out.level_offsets_ = owned->level_offsets;
  out.pairs_ = {owned->pairs.get(), owned->num_pairs};
  out.storage_ = std::move(owned);
  return out;
}

SlicedLabelSet SlicedLabelSet::FromExternal(
    std::span<const uint64_t> offsets, std::span<const uint64_t> group_offsets,
    std::span<const Quality> dictionary,
    std::span<const uint64_t> level_offsets, std::span<const SlicePair> pairs,
    std::shared_ptr<const void> keep_alive) {
  SlicedLabelSet out;
  out.offsets_ = offsets;
  out.group_offsets_ = group_offsets;
  out.dictionary_ = dictionary;
  out.level_offsets_ = level_offsets;
  out.pairs_ = pairs;
  out.storage_ = std::move(keep_alive);
  out.external_ = true;
  return out;
}

size_t SlicedLabelSet::LevelFor(Quality w) const {
  // `!(w <= top)` also catches NaN, which lower_bound would send to
  // level 0 and a finite answer.
  if (dictionary_.empty() || !(w <= dictionary_.back())) return NumLevels();
  return static_cast<size_t>(
      std::lower_bound(dictionary_.begin(), dictionary_.end(), w) -
      dictionary_.begin());
}

namespace {

Status CorruptSlices(Vertex v, const char* what) {
  return Status::Corruption("sliced labels of vertex " + std::to_string(v) +
                            ": " + what);
}

}  // namespace

Status SlicedLabelSet::DecodeVertex(Vertex v, DecodedLabel* out) const {
  out->Clear();
  if (v >= NumVertices()) {
    return Status::InvalidArgument("DecodeVertex: vertex out of range");
  }
  const size_t levels = NumLevels();
  const size_t rows = offsets_.size();
  // Per-level read cursors; graphs have a handful of levels.
  constexpr size_t kInline = 32;
  uint64_t inline_cursor[kInline], inline_end[kInline];
  std::vector<uint64_t> heap;
  uint64_t* cursor = inline_cursor;
  uint64_t* end = inline_end;
  if (levels > kInline) {
    heap.resize(2 * levels);
    cursor = heap.data();
    end = heap.data() + levels;
  }
  for (size_t k = 0; k < levels; ++k) {
    cursor[k] = level_offsets_[k * rows + v];
    end[k] = level_offsets_[k * rows + v + 1];
    if (cursor[k] > end[k] || end[k] > pairs_.size()) {
      return CorruptSlices(v, "slice range out of bounds");
    }
  }
  out->entries.reserve(EntryCount(v));
  out->groups.reserve(GroupCount(v));
  // Level 0 lists every group. A group's entries are the distinct
  // distances it carries going up the levels; each entry's quality is the
  // highest level carrying it. Once a level lacks the hub, so do all
  // higher ones — a stray hub there stalls its cursor, caught below.
  for (; levels > 0 && cursor[0] < end[0]; ++cursor[0]) {
    const SlicePair& first = pairs_[cursor[0]];
    if (!out->groups.empty() && first.hub <= out->groups.back().hub) {
      out->Clear();
      return CorruptSlices(v, "hubs do not strictly ascend");
    }
    out->groups.push_back(
        HubGroup{first.hub, static_cast<uint32_t>(out->entries.size())});
    out->entries.push_back(LabelEntry{first.hub, first.dist, dictionary_[0]});
    for (size_t k = 1; k < levels; ++k) {
      if (cursor[k] == end[k] || pairs_[cursor[k]].hub != first.hub) break;
      const Distance dist = pairs_[cursor[k]++].dist;
      LabelEntry& last = out->entries.back();
      if (dist < last.dist) {
        out->Clear();
        return CorruptSlices(v, "distance descends from one level to the next");
      }
      if (dist == last.dist) {
        last.quality = dictionary_[k];
      } else {
        out->entries.push_back(LabelEntry{first.hub, dist, dictionary_[k]});
      }
    }
  }
  for (size_t k = 1; k < levels; ++k) {
    if (cursor[k] != end[k]) {
      out->Clear();
      return CorruptSlices(v, "a level carries a hub the level below lacks");
    }
  }
  if (out->groups.size() != GroupCount(v) ||
      out->entries.size() != EntryCount(v)) {
    out->Clear();
    return CorruptSlices(v, "rebuilt counts disagree with the offsets");
  }
  return Status::OK();
}

Status SlicedLabelSet::Validate(ValidateLevel level) const {
  // kShape: O(levels * vertices) over the offset arrays and dictionary.
  const size_t rows = offsets_.size();
  const size_t levels = NumLevels();
  if (rows == 0 || group_offsets_.size() != rows ||
      level_offsets_.size() != levels * rows) {
    return Status::Corruption("sliced label arrays have mismatched shapes");
  }
  if (offsets_.front() != 0 || group_offsets_.front() != 0) {
    return Status::Corruption("sliced label offsets do not start at 0");
  }
  for (size_t v = 0; v + 1 < rows; ++v) {
    if (offsets_[v] > offsets_[v + 1] ||
        group_offsets_[v] > group_offsets_[v + 1]) {
      return Status::Corruption("sliced label offsets are not monotone");
    }
  }
  for (size_t k = 0; k < levels; ++k) {
    if (std::isnan(dictionary_[k]) ||
        (k > 0 && !(dictionary_[k - 1] < dictionary_[k]))) {
      return Status::Corruption(
          "slice dictionary is not strictly ascending");
    }
  }
  // The rows concatenate: level 0 starts at pair 0, each level starts
  // where the one below ends, and the top level ends at the last pair.
  uint64_t prev = 0;
  for (size_t i = 0; i < level_offsets_.size(); ++i) {
    if (level_offsets_[i] < prev ||
        (i % rows == 0 && level_offsets_[i] != prev)) {
      return Status::Corruption("slice offsets are not monotone");
    }
    prev = level_offsets_[i];
  }
  if (prev != pairs_.size()) {
    return Status::Corruption("slice offsets do not cover the pairs");
  }
  if (level == ValidateLevel::kShape) return Status::OK();

  // kDirectory: slice lengths, still without a pair page.
  for (Vertex v = 0; v < NumVertices(); ++v) {
    uint64_t below = GroupCount(v);
    for (size_t k = 0; k < levels; ++k) {
      const uint64_t len =
          level_offsets_[k * rows + v + 1] - level_offsets_[k * rows + v];
      if (k == 0 ? len != below : len > below) {
        return CorruptSlices(v, "slice length disagrees with the level below");
      }
      below = len;
    }
    if (levels == 0 && (GroupCount(v) != 0 || EntryCount(v) != 0)) {
      return CorruptSlices(v, "labels without a quality dictionary");
    }
  }
  if (level == ValidateLevel::kDirectory) return Status::OK();

  DecodedLabel scratch;
  for (Vertex v = 0; v < NumVertices(); ++v) {
    WCSD_RETURN_NOT_OK(DecodeVertex(v, &scratch));
  }
  return Status::OK();
}

Distance QuerySlicedMerge(const SlicedLabelSet& s_labels, Vertex s,
                          const SlicedLabelSet& t_labels, Vertex t,
                          Quality w) {
  if (s >= s_labels.NumVertices() || t >= t_labels.NumVertices()) {
    return kInfDistance;
  }
  const size_t ks = s_labels.LevelFor(w);
  const size_t kt = t_labels.LevelFor(w);
  if (ks == s_labels.NumLevels() || kt == t_labels.NumLevels()) {
    return kInfDistance;
  }
  const std::span<const SlicePair> ls = s_labels.Slice(ks, s);
  const std::span<const SlicePair> lt = t_labels.Slice(kt, t);
  const SlicePair* a = ls.data();
  const SlicePair* const a_end = a + ls.size();
  const SlicePair* b = lt.data();
  const SlicePair* const b_end = b + lt.size();
  Distance best = kInfDistance;
  // A plain sorted-array merge. The branch-free form (cursor increments
  // from the compare results) measured ~20% slower on the road fixture:
  // its loads form one dependency chain, while these branches predict
  // well over runs of unmatched hubs.
  while (a != a_end && b != b_end) {
    if (a->hub < b->hub) {
      ++a;
    } else if (b->hub < a->hub) {
      ++b;
    } else {
      const Distance sum = a->dist + b->dist;
      if (sum < best) best = sum;
      ++a;
      ++b;
    }
  }
  return best;
}

}  // namespace wcsd
