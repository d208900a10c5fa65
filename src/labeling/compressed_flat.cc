#include "labeling/compressed_flat.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/checksum.h"

namespace wcsd {

namespace {

void PutVarint(std::vector<uint8_t>* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

/// Bounds-checked varint read: advances *p past the value, never past
/// `end`. False on truncation or a value that would overflow 64 bits.
bool GetVarint(const uint8_t** p, const uint8_t* end, uint64_t* out) {
  uint64_t value = 0;
  int shift = 0;
  while (*p < end && shift < 64) {
    const uint8_t b = *(*p)++;
    value |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      *out = value;
      return true;
    }
    shift += 7;
  }
  return false;
}

/// Skips the 2 varints/entry payload of a group whose header was already
/// consumed. False on truncation.
bool SkipGroupEntries(const uint8_t** p, const uint8_t* end, uint64_t count) {
  uint64_t scratch;
  for (uint64_t i = 0; i < count; ++i) {
    if (!GetVarint(p, end, &scratch)) return false;
    if (!GetVarint(p, end, &scratch)) return false;
  }
  return true;
}

Status CorruptVertex(Vertex v, const char* what) {
  return Status::Corruption("compressed label stream of vertex " +
                            std::to_string(v) + ": " + what);
}

}  // namespace

void CompressedFlatLabelSet::Adopt(std::shared_ptr<const OwnedArrays> owned) {
  offsets_ = owned->offsets;
  group_offsets_ = owned->group_offsets;
  comp_offsets_ = owned->comp_offsets;
  blob_ = owned->blob;
  dictionary_ = owned->dictionary;
  storage_ = std::move(owned);
  external_ = false;
}

CompressedFlatLabelSet CompressedFlatLabelSet::FromFlat(
    const FlatLabelSet& flat) {
  auto owned = std::make_shared<OwnedArrays>();
  const size_t n = flat.NumVertices();

  // Dictionary: sorted distinct finite qualities across every entry.
  std::vector<Quality> qualities;
  for (const LabelEntry& e : flat.raw_entries()) {
    if (e.quality != kInfQuality) qualities.push_back(e.quality);
  }
  std::sort(qualities.begin(), qualities.end());
  qualities.erase(std::unique(qualities.begin(), qualities.end()),
                  qualities.end());
  owned->dictionary = std::move(qualities);

  auto code_of = [&owned](Quality q) -> uint64_t {
    if (q == kInfQuality) return 0;
    auto it = std::lower_bound(owned->dictionary.begin(),
                               owned->dictionary.end(), q);
    return static_cast<uint64_t>(it - owned->dictionary.begin()) + 1;
  };

  owned->offsets.assign(flat.raw_offsets().begin(), flat.raw_offsets().end());
  owned->group_offsets.assign(flat.raw_group_offsets().begin(),
                              flat.raw_group_offsets().end());
  if (owned->offsets.empty()) owned->offsets.push_back(0);
  if (owned->group_offsets.empty()) owned->group_offsets.push_back(0);

  owned->comp_offsets.reserve(n + 1);
  owned->comp_offsets.push_back(0);
  for (Vertex v = 0; v < n; ++v) {
    const FlatLabelView view = flat.View(v);
    PutVarint(&owned->blob, view.groups.size());
    Rank prev_hub = 0;
    for (size_t g = 0; g < view.groups.size(); ++g) {
      const size_t begin = view.groups[g].begin;
      const size_t end = view.GroupEnd(g);
      PutVarint(&owned->blob,
                g == 0 ? view.groups[g].hub : view.groups[g].hub - prev_hub);
      prev_hub = view.groups[g].hub;
      PutVarint(&owned->blob, end - begin);
      Distance prev_dist = 0;
      for (size_t i = begin; i < end; ++i) {
        PutVarint(&owned->blob, i == begin
                                    ? view.entries[i].dist
                                    : view.entries[i].dist - prev_dist);
        prev_dist = view.entries[i].dist;
        PutVarint(&owned->blob, code_of(view.entries[i].quality));
      }
    }
    owned->comp_offsets.push_back(owned->blob.size());
  }

  CompressedFlatLabelSet out;
  out.Adopt(std::move(owned));
  return out;
}

CompressedFlatLabelSet CompressedFlatLabelSet::FromExternal(
    std::span<const uint64_t> offsets, std::span<const uint64_t> group_offsets,
    std::span<const uint64_t> comp_offsets, std::span<const uint8_t> blob,
    std::span<const Quality> dictionary,
    std::shared_ptr<const void> keep_alive) {
  CompressedFlatLabelSet out;
  out.offsets_ = offsets;
  out.group_offsets_ = group_offsets;
  out.comp_offsets_ = comp_offsets;
  out.blob_ = blob;
  out.dictionary_ = dictionary;
  out.storage_ = std::move(keep_alive);
  out.external_ = true;
  return out;
}

Status CompressedFlatLabelSet::DecodeVertex(Vertex v, DecodedLabel* out) const {
  out->Clear();
  if (v >= NumVertices()) {
    return Status::InvalidArgument("DecodeVertex: vertex out of range");
  }
  // The offset arrays are kShape-validated at load, but clamp anyway so a
  // corrupt slice can never index past the blob.
  const uint64_t lo = std::min<uint64_t>(comp_offsets_[v], blob_.size());
  const uint64_t hi = std::min<uint64_t>(comp_offsets_[v + 1], blob_.size());
  if (lo > hi) return CorruptVertex(v, "byte range inverted");
  const uint8_t* p = blob_.data() + lo;
  const uint8_t* const end = blob_.data() + hi;

  const uint64_t want_groups = GroupCount(v);
  const uint64_t want_entries = EntryCount(v);
  uint64_t group_count = 0;
  if (!GetVarint(&p, end, &group_count)) {
    return CorruptVertex(v, "truncated group count");
  }
  if (group_count != want_groups) {
    out->Clear();
    return CorruptVertex(v, "group count disagrees with directory");
  }
  out->entries.reserve(want_entries);
  out->groups.reserve(want_groups);
  uint64_t hub = 0;
  for (uint64_t g = 0; g < group_count; ++g) {
    uint64_t delta = 0, count = 0;
    if (!GetVarint(&p, end, &delta) || !GetVarint(&p, end, &count)) {
      out->Clear();
      return CorruptVertex(v, "truncated group header");
    }
    if (g > 0 && delta == 0) {
      out->Clear();
      return CorruptVertex(v, "non-ascending hub rank");
    }
    hub = g == 0 ? delta : hub + delta;
    if (hub > std::numeric_limits<Rank>::max() || count == 0 ||
        out->entries.size() + count > want_entries) {
      out->Clear();
      return CorruptVertex(v, "group header out of range");
    }
    out->groups.push_back(HubGroup{static_cast<Rank>(hub),
                                   static_cast<uint32_t>(out->entries.size())});
    uint64_t dist = 0;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t dist_delta = 0, qcode = 0;
      if (!GetVarint(&p, end, &dist_delta) || !GetVarint(&p, end, &qcode)) {
        out->Clear();
        return CorruptVertex(v, "truncated entry");
      }
      dist = i == 0 ? dist_delta : dist + dist_delta;
      if (dist > std::numeric_limits<Distance>::max() ||
          qcode > dictionary_.size()) {
        out->Clear();
        return CorruptVertex(v, "entry out of range");
      }
      const Quality quality =
          qcode == 0 ? kInfQuality : dictionary_[qcode - 1];
      out->entries.push_back(LabelEntry{static_cast<Rank>(hub),
                                        static_cast<Distance>(dist), quality});
    }
  }
  if (out->entries.size() != want_entries) {
    out->Clear();
    return CorruptVertex(v, "entry count disagrees with offsets");
  }
  if (p != end) {
    out->Clear();
    return CorruptVertex(v, "trailing bytes after label stream");
  }
  return Status::OK();
}

Result<FlatLabelSet> CompressedFlatLabelSet::Decompress() const {
  LabelSet labels(NumVertices());
  DecodedLabel scratch;
  for (Vertex v = 0; v < NumVertices(); ++v) {
    WCSD_RETURN_NOT_OK(DecodeVertex(v, &scratch));
    *labels.Mutable(v) = scratch.entries;
  }
  return FlatLabelSet::FromLabelSet(labels);
}

Status CompressedFlatLabelSet::Validate(ValidateLevel level) const {
  // kShape: array-shape consistency, O(vertices). The three offset arrays
  // share one length; every one starts at 0 and ascends; the byte offsets
  // end exactly at the blob; the dictionary is strictly ascending and
  // finite (a sorted dictionary is what keeps FromFlat/decode stable).
  if (offsets_.empty() || group_offsets_.size() != offsets_.size() ||
      comp_offsets_.size() != offsets_.size()) {
    return Status::Corruption("compressed label arrays have mismatched shapes");
  }
  if (offsets_.front() != 0 || group_offsets_.front() != 0 ||
      comp_offsets_.front() != 0) {
    return Status::Corruption("compressed label offsets do not start at 0");
  }
  if (comp_offsets_.back() != blob_.size()) {
    return Status::Corruption(
        "compressed byte offsets do not cover the payload");
  }
  for (size_t v = 0; v + 1 < offsets_.size(); ++v) {
    if (offsets_[v] > offsets_[v + 1] ||
        group_offsets_[v] > group_offsets_[v + 1] ||
        comp_offsets_[v] > comp_offsets_[v + 1]) {
      return Status::Corruption("compressed label offsets are not monotone");
    }
  }
  for (size_t i = 0; i + 1 < dictionary_.size(); ++i) {
    if (!(dictionary_[i] < dictionary_[i + 1])) {
      return Status::Corruption("quality dictionary is not strictly sorted");
    }
  }
  for (const Quality q : dictionary_) {
    if (!std::isfinite(q)) {
      return Status::Corruption("quality dictionary holds a non-finite value");
    }
  }
  if (level == ValidateLevel::kShape) return Status::OK();

  // kDirectory / kDeep: full streaming parse — every stream must decode
  // cleanly with counts matching the offset arrays (DecodeVertex checks
  // hub ascent and ranges); kDeep adds per-group distance monotonicity.
  DecodedLabel scratch;
  for (Vertex v = 0; v < NumVertices(); ++v) {
    WCSD_RETURN_NOT_OK(DecodeVertex(v, &scratch));
    if (scratch.groups.size() != GroupCount(v)) {
      return CorruptVertex(v, "group count disagrees with directory");
    }
    if (level == ValidateLevel::kDeep) {
      const FlatLabelView view = scratch.View();
      for (size_t g = 0; g < view.groups.size(); ++g) {
        for (size_t i = view.groups[g].begin + 1; i < view.GroupEnd(g); ++i) {
          if (view.entries[i].dist < view.entries[i - 1].dist) {
            return CorruptVertex(v, "distances descend within a hub group");
          }
        }
      }
    }
  }
  return Status::OK();
}

bool CompressedFlatLabelSet::ChainContentCrcs(uint32_t* entries_crc,
                                              uint32_t* groups_crc) const {
  // Chained per-vertex CRCs over the decoded arrays: HubGroup.begin is
  // vertex-relative, so concatenating per-vertex slices reproduces the
  // flat backend's raw arrays byte for byte — chaining shard slices in
  // tiling order therefore reproduces IndexContentFingerprint of the
  // unsharded flat index, whatever the storage backend per shard.
  const uint64_t n = NumVertices();
  DecodedLabel scratch;
  for (Vertex v = 0; v < n; ++v) {
    if (!DecodeVertex(static_cast<Vertex>(v), &scratch).ok()) return false;
    *entries_crc = Crc32c(scratch.entries.data(),
                          scratch.entries.size() * sizeof(LabelEntry),
                          *entries_crc);
    *groups_crc = Crc32c(scratch.groups.data(),
                         scratch.groups.size() * sizeof(HubGroup),
                         *groups_crc);
  }
  return true;
}

uint64_t CompressedFlatLabelSet::ContentFingerprint() const {
  const uint64_t n = NumVertices();
  const uint32_t seed = Crc32c(&n, sizeof(n));
  uint32_t entries_crc = seed;
  uint32_t groups_crc = seed;
  if (!ChainContentCrcs(&entries_crc, &groups_crc)) return 0;
  return (uint64_t{groups_crc} << 32) | entries_crc;
}

bool operator==(const CompressedFlatLabelSet& a,
                const CompressedFlatLabelSet& b) {
  auto span_eq = [](auto x, auto y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  return span_eq(a.offsets_, b.offsets_) &&
         span_eq(a.group_offsets_, b.group_offsets_) &&
         span_eq(a.comp_offsets_, b.comp_offsets_) &&
         span_eq(a.blob_, b.blob_) && span_eq(a.dictionary_, b.dictionary_);
}

namespace {

/// One side of the streaming merge: a cursor over a vertex's varint
/// stream positioned at successive group headers. Any malformed read
/// flips the cursor to "exhausted" — corrupt bytes end the merge early
/// instead of reading out of bounds (same trust model as the flat
/// kernels, minus their crash classes).
struct GroupCursor {
  std::span<const Quality> dict;  // this side's quality dictionary
  const uint8_t* p = nullptr;
  const uint8_t* end = nullptr;
  uint64_t groups_left = 0;
  uint64_t hub = 0;
  uint64_t count = 0;  // entries in the current group (header consumed)

  bool Init(const CompressedFlatLabelSet& labels, Vertex v) {
    dict = labels.raw_dictionary();
    const auto comp = labels.raw_comp_offsets();
    const auto blob = labels.raw_blob();
    const uint64_t lo = std::min<uint64_t>(comp[v], blob.size());
    const uint64_t hi = std::min<uint64_t>(comp[v + 1], blob.size());
    if (lo > hi) return false;
    p = blob.data() + lo;
    end = blob.data() + hi;
    if (!GetVarint(&p, end, &groups_left)) return false;
    return NextHeader(true);
  }

  /// Parses the next group header; the previous group's entries must
  /// already be consumed. False when the stream is exhausted.
  bool NextHeader(bool first) {
    if (groups_left == 0) return false;
    --groups_left;
    uint64_t delta = 0;
    if (!GetVarint(&p, end, &delta) || !GetVarint(&p, end, &count)) {
      groups_left = 0;
      return false;
    }
    hub = first ? delta : hub + delta;
    return true;
  }

  bool SkipEntriesAndAdvance() {
    if (!SkipGroupEntries(&p, end, count)) {
      groups_left = 0;
      return false;
    }
    return NextHeader(false);
  }

  /// Consumes the current group's entries, returning the distance of the
  /// first entry with quality >= w (kInfDistance if none) — the Theorem 3
  /// choice, exactly what FirstWithQuality picks on the decoded group.
  Distance FirstDistWithQuality(Quality w) {
    Distance found = kInfDistance;
    uint64_t dist = 0;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t dist_delta = 0, qcode = 0;
      if (!GetVarint(&p, end, &dist_delta) || !GetVarint(&p, end, &qcode) ||
          qcode > dict.size()) {
        groups_left = 0;
        count = i;  // entries consumed so far
        return found;
      }
      dist = i == 0 ? dist_delta : dist + dist_delta;
      if (found == kInfDistance) {
        const Quality quality = qcode == 0 ? kInfQuality : dict[qcode - 1];
        if (quality >= w) found = static_cast<Distance>(dist);
      }
    }
    return found;
  }
};

}  // namespace

Distance QueryCompressedMerge(const CompressedFlatLabelSet& s_labels,
                              Vertex s, const CompressedFlatLabelSet& t_labels,
                              Vertex t, Quality w) {
  if (s >= s_labels.NumVertices() || t >= t_labels.NumVertices()) {
    return kInfDistance;
  }
  GroupCursor cs, ct;
  bool s_ok = cs.Init(s_labels, s);
  bool t_ok = ct.Init(t_labels, t);
  Distance best = kInfDistance;
  while (s_ok && t_ok) {
    if (cs.hub < ct.hub) {
      s_ok = cs.SkipEntriesAndAdvance();
    } else if (ct.hub < cs.hub) {
      t_ok = ct.SkipEntriesAndAdvance();
    } else {
      const Distance ds = cs.FirstDistWithQuality(w);
      const Distance dt = ct.FirstDistWithQuality(w);
      if (ds != kInfDistance && dt != kInfDistance) {
        const Distance sum = ds + dt;
        if (sum < best) best = sum;
      }
      s_ok = cs.NextHeader(false);
      t_ok = ct.NextHeader(false);
    }
  }
  return best;
}

}  // namespace wcsd
