// WCSD query algorithms over two label sets (paper §IV.A and §IV.C).
//
// Four implementations answering Eq. (1) — min over common hubs h of
// dist(s,h) + dist(h,t) subject to both entry qualities >= w:
//   * kScan       — Algorithm 2: scan of L(s) x L(t), skipping unmatched
//                   hub groups via the sorted-rank invariant.
//   * kHubGrouped — Algorithm 4: iterate L(t), look up L(s)[hub], scan the
//                   two hub groups.
//   * kBinary     — Algorithm 4 + Theorem 3: binary search inside hub
//                   groups for the first entry with quality >= w.
//   * kMerge      — Algorithm 5 (Query+): linear two-pointer merge over the
//                   rank-sorted labels, O(|L(s)| + |L(t)|)-flavored.
//
// All four return identical distances (tested), INF at w = NaN included;
// they differ only in cost.
// Theorem 3 (within a hub group distances and qualities are both strictly
// ascending) is what makes "first entry with quality >= w" the minimal
// distance choice for that hub.

#ifndef WCSD_LABELING_QUERY_H_
#define WCSD_LABELING_QUERY_H_

#include <span>

#include "labeling/flat_label_set.h"
#include "labeling/label_set.h"
#include "util/types.h"

namespace wcsd {

/// Which query implementation to use.
enum class QueryImpl {
  kScan,
  kHubGrouped,
  kBinary,
  kMerge,
};

/// Query answer plus the witnessing hub (kNullVertex rank if unreachable).
struct HubQueryResult {
  Distance dist = kInfDistance;
  Rank via_hub = static_cast<Rank>(-1);
  Distance dist_from_s = kInfDistance;
  Distance dist_to_t = kInfDistance;
};

/// Query answer plus the maximal constraint interval it certifies.
///
/// d(s, t, w) is a non-decreasing step function of w whose breakpoints are
/// entry qualities (Theorem 3: within a hub group qualities and distances
/// both strictly ascend, so tightening w can only advance each group's
/// chosen entry to a larger distance). The interval [w_lo, w_hi] — CLOSED
/// on both ends, so that +inf and exact float breakpoints are
/// representable — is the maximal interval containing the queried w on
/// which the step function is constant: every w' with w_lo <= w' <= w_hi
/// answers `dist`, and querying just below w_lo or just above w_hi yields
/// a different distance. The defaults describe the everywhere-constant
/// function (s == t, out of range, or no common hub).
struct IntervalQueryResult {
  Distance dist = kInfDistance;
  Quality w_lo = -kInfQuality;
  Quality w_hi = kInfQuality;

  /// True when `dist` is certified for constraint w.
  bool Contains(Quality w) const { return w_lo <= w && w <= w_hi; }

  friend bool operator==(const IntervalQueryResult&,
                         const IntervalQueryResult&) = default;
};

/// Algorithm 2: scan of L(s) x L(t). Exploits the sorted-rank invariant to
/// skip past hub groups absent from the other side, so the worst case is
/// O(|L(s)| + |L(t)| + matched group areas) rather than the naïve product.
Distance QueryLabelsScan(std::span<const LabelEntry> ls,
                         std::span<const LabelEntry> lt, Quality w);

/// Algorithm 4: hub-grouped lookup with full group scans.
Distance QueryLabelsHubGrouped(std::span<const LabelEntry> ls,
                               std::span<const LabelEntry> lt, Quality w);

/// Algorithm 4 + binary search on quality inside each hub group.
Distance QueryLabelsBinary(std::span<const LabelEntry> ls,
                           std::span<const LabelEntry> lt, Quality w);

/// Algorithm 5 (Query+): two-pointer merge.
Distance QueryLabelsMerge(std::span<const LabelEntry> ls,
                          std::span<const LabelEntry> lt, Quality w);

/// Dispatch by implementation tag.
Distance QueryLabels(std::span<const LabelEntry> ls,
                     std::span<const LabelEntry> lt, Quality w,
                     QueryImpl impl);

/// Merge query that also reports the best hub and the split distances —
/// needed by path reconstruction (§V).
HubQueryResult QueryLabelsMergeWithHub(std::span<const LabelEntry> ls,
                                       std::span<const LabelEntry> lt,
                                       Quality w);

/// Merge query that also reports the maximal validity interval of its
/// answer (see IntervalQueryResult) — the dominance fact the serve-side
/// result cache keys on. Two O(|L(s)| + |L(t)|) merge passes: one for the
/// distance, one tracking the tightest quality breakpoint on either side.
IntervalQueryResult QueryLabelsMergeWithInterval(
    std::span<const LabelEntry> ls, std::span<const LabelEntry> lt,
    Quality w);

/// Flat-backend query kernels: same four algorithms over FlatLabelView.
/// Group boundaries come from the hub directory instead of entry scans /
/// entry-array binary searches, and all entries of one vertex share cache
/// lines. Answers are identical to the span versions (tested).
Distance QueryFlatScan(const FlatLabelView& ls, const FlatLabelView& lt,
                       Quality w);
Distance QueryFlatHubGrouped(const FlatLabelView& ls, const FlatLabelView& lt,
                             Quality w);
Distance QueryFlatBinary(const FlatLabelView& ls, const FlatLabelView& lt,
                         Quality w);
Distance QueryFlatMerge(const FlatLabelView& ls, const FlatLabelView& lt,
                        Quality w);

/// Dispatch by implementation tag (flat backend).
Distance QueryFlat(const FlatLabelView& ls, const FlatLabelView& lt, Quality w,
                   QueryImpl impl);

/// Flat merge query reporting the best hub and split distances (§V path
/// reconstruction on a finalized index).
HubQueryResult QueryFlatMergeWithHub(const FlatLabelView& ls,
                                     const FlatLabelView& lt, Quality w);

/// Flat merge query reporting the maximal validity interval of its answer
/// (identical to QueryLabelsMergeWithInterval; tested).
IntervalQueryResult QueryFlatMergeWithInterval(const FlatLabelView& ls,
                                               const FlatLabelView& lt,
                                               Quality w);

/// Within one hub group [begin, end) sorted by ascending quality, returns
/// the index of the first entry with quality >= w, or `end` if none.
/// Exposed for construction-side pruning and tests.
size_t FirstWithQuality(std::span<const LabelEntry> entries, size_t begin,
                        size_t end, Quality w);

}  // namespace wcsd

#endif  // WCSD_LABELING_QUERY_H_
