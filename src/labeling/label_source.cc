#include "labeling/label_source.h"

#include "labeling/query.h"
#include "util/checksum.h"

namespace wcsd {

uint64_t LabelSource::ContentFingerprint() const {
  ContentCrcChain chain(NumVertices());
  return chain.Append(*this) ? chain.Fingerprint() : 0;
}

const char* LabelFormName(LabelForm form) {
  switch (form) {
    case LabelForm::kFlat: return "flat";
    case LabelForm::kSliced: return "sliced";
    case LabelForm::kCompressed: return "compressed";
  }
  return "unknown";
}

Status LabelSource::Decode(Vertex local, DecodedLabel* out) const {
  return form_ == LabelForm::kSliced ? sliced_.DecodeVertex(local, out)
                                     : packed_.DecodeVertex(local, out);
}

Result<FlatLabelSet> LabelSource::Materialize() const {
  if (form_ == LabelForm::kFlat) return flat_;
  LabelSet labels(NumVertices());
  DecodedLabel scratch;
  for (Vertex v = 0; v < NumVertices(); ++v) {
    WCSD_RETURN_NOT_OK(Decode(v, &scratch));
    *labels.Mutable(v) = scratch.entries;
  }
  return FlatLabelSet::FromLabelSet(labels);
}


ContentCrcChain::ContentCrcChain(uint64_t num_vertices_total)
    : entries_crc_(Crc32c(&num_vertices_total, sizeof(num_vertices_total))),
      groups_crc_(entries_crc_) {}

bool ContentCrcChain::Append(const LabelSource& labels) {
  if (labels.form() == LabelForm::kFlat) {
    auto entries = labels.flat().raw_entries();
    auto groups = labels.flat().raw_groups();
    entries_crc_ = Crc32c(entries.data(), entries.size() * sizeof(LabelEntry),
                          entries_crc_);
    groups_crc_ =
        Crc32c(groups.data(), groups.size() * sizeof(HubGroup), groups_crc_);
    return true;
  }
  // Per-vertex rebuilds concatenate to the flat arrays byte for byte.
  DecodedLabel scratch;
  for (Vertex v = 0; v < labels.NumVertices(); ++v) {
    if (!labels.Decode(v, &scratch).ok()) return false;
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
  if (s_labels.form() == LabelForm::kSliced &&
      t_labels.form() == LabelForm::kSliced) {
    return QuerySlicedMerge(s_labels.sliced(), s, t_labels.sliced(), t, w);
  }
  if (s_labels.compressed() && t_labels.compressed()) {
    return QueryCompressedMerge(s_labels.packed(), s, t_labels.packed(), t, w);
  }
  return QueryFlatMerge(s_labels.View(s, s_scratch),
                        t_labels.View(t, t_scratch), w);
}

}  // namespace wcsd
