#include "labeling/label_source.h"

#include "labeling/query.h"
#include "util/checksum.h"

namespace wcsd {

uint64_t LabelSource::ContentFingerprint() const {
  ContentCrcChain chain(NumVertices());
  return chain.Append(*this) ? chain.Fingerprint() : 0;
}

Result<FlatLabelSet> LabelSource::Materialize() const {
  if (!compressed_) return flat_;
  return packed_.Decompress();
}

Status LabelSource::Validate(ValidateLevel level) const {
  return compressed_ ? packed_.Validate(level) : flat_.Validate(level);
}

ContentCrcChain::ContentCrcChain(uint64_t num_vertices_total)
    : entries_crc_(Crc32c(&num_vertices_total, sizeof(num_vertices_total))),
      groups_crc_(entries_crc_) {}

bool ContentCrcChain::Append(const LabelSource& labels) {
  if (!labels.compressed()) {
    auto entries = labels.flat().raw_entries();
    auto groups = labels.flat().raw_groups();
    entries_crc_ = Crc32c(entries.data(), entries.size() * sizeof(LabelEntry),
                          entries_crc_);
    groups_crc_ =
        Crc32c(groups.data(), groups.size() * sizeof(HubGroup), groups_crc_);
    return true;
  }
  // Per-vertex decodes concatenate to the flat arrays byte for byte.
  DecodedLabel scratch;
  for (Vertex v = 0; v < labels.NumVertices(); ++v) {
    if (!labels.packed().DecodeVertex(v, &scratch).ok()) return false;
    entries_crc_ = Crc32c(scratch.entries.data(),
                          scratch.entries.size() * sizeof(LabelEntry),
                          entries_crc_);
    groups_crc_ = Crc32c(scratch.groups.data(),
                         scratch.groups.size() * sizeof(HubGroup), groups_crc_);
  }
  return true;
}

Distance QueryMerge(const LabelSource& s_labels, Vertex s,
                    const LabelSource& t_labels, Vertex t, Quality w,
                    DecodedLabel* s_scratch, DecodedLabel* t_scratch) {
  if (s_labels.compressed() && t_labels.compressed()) {
    return QueryCompressedMerge(s_labels.packed(), s, t_labels.packed(), t, w);
  }
  return QueryFlatMerge(s_labels.View(s, s_scratch),
                        t_labels.View(t, t_scratch), w);
}

}  // namespace wcsd
