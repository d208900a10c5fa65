#include "labeling/query.h"

#include <algorithm>
#include <cmath>

namespace wcsd {

size_t FirstWithQuality(std::span<const LabelEntry> entries, size_t begin,
                        size_t end, Quality w) {
  // Qualities ascend within a hub group (Theorem 3): binary search.
  size_t lo = begin, hi = end;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (entries[mid].quality >= w) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

Distance QueryLabelsScan(std::span<const LabelEntry> ls,
                         std::span<const LabelEntry> lt, Quality w) {
  Distance best = kInfDistance;
  // Both labels are sorted by hub rank, so the matching position in L(t)
  // only ever moves forward: skip whole hub groups instead of rescanning
  // L(t) for every entry of L(s) (the seed's O(|L(s)|*|L(t)|) shape).
  size_t i = 0, j = 0;
  while (i < ls.size() && j < lt.size()) {
    Rank hi = ls[i].hub, hj = lt[j].hub;
    if (hi < hj) {
      ++i;
    } else if (hj < hi) {
      ++j;
    } else {
      // Full scan of the two matched groups — the Algorithm 2 flavor, with
      // no reliance on intra-group quality ordering. The constraint tests
      // are written `!(quality >= w)` so that w = NaN admits no entry and
      // answers INF, as FirstWithQuality does for the other kernels.
      size_t ie = i;
      do { ++ie; } while (ie < ls.size() && ls[ie].hub == hi);
      size_t je = j;
      do { ++je; } while (je < lt.size() && lt[je].hub == hi);
      for (size_t ii = i; ii < ie; ++ii) {
        if (!(ls[ii].quality >= w)) continue;
        for (size_t jj = j; jj < je; ++jj) {
          if (!(lt[jj].quality >= w)) continue;
          Distance sum = ls[ii].dist + lt[jj].dist;
          if (sum < best) best = sum;
        }
      }
      i = ie;
      j = je;
    }
  }
  return best;
}

namespace {

// Advances `i` to the end of the hub group starting at `i`.
inline size_t GroupEnd(std::span<const LabelEntry> entries, size_t i) {
  Rank hub = entries[i].hub;
  do {
    ++i;
  } while (i < entries.size() && entries[i].hub == hub);
  return i;
}

// Locates the hub group for `hub` in `entries` via binary search over the
// rank-sorted label. Returns [begin, end), empty if absent.
inline std::pair<size_t, size_t> FindGroup(std::span<const LabelEntry> entries,
                                           Rank hub) {
  auto it = std::lower_bound(
      entries.begin(), entries.end(), hub,
      [](const LabelEntry& e, Rank h) { return e.hub < h; });
  size_t begin = static_cast<size_t>(it - entries.begin());
  if (begin == entries.size() || entries[begin].hub != hub) {
    return {begin, begin};
  }
  return {begin, GroupEnd(entries, begin)};
}

}  // namespace

Distance QueryLabelsHubGrouped(std::span<const LabelEntry> ls,
                               std::span<const LabelEntry> lt, Quality w) {
  if (ls.empty() || lt.empty()) return kInfDistance;
  Distance best = kInfDistance;
  // Hubs present in L(s) are exactly ranks <= rank(s); the label's last hub
  // is rank(s) itself (the self entry). Algorithm 4 Line 2's "Ij.vertex > s"
  // prune translates to: skip L(t) groups whose hub exceeds that rank.
  Rank max_hub_s = ls.back().hub;
  for (size_t j = 0; j < lt.size();) {
    size_t je = GroupEnd(lt, j);
    Rank hub = lt[j].hub;
    if (hub > max_hub_s) break;  // Sorted: every later group is larger too.
    auto [ib, ie] = FindGroup(ls, hub);
    if (ib != ie) {
      for (size_t jj = j; jj < je; ++jj) {
        if (!(lt[jj].quality >= w)) continue;
        for (size_t ii = ib; ii < ie; ++ii) {
          if (!(ls[ii].quality >= w)) continue;
          Distance sum = ls[ii].dist + lt[jj].dist;
          if (sum < best) best = sum;
        }
      }
    }
    j = je;
  }
  return best;
}

Distance QueryLabelsBinary(std::span<const LabelEntry> ls,
                           std::span<const LabelEntry> lt, Quality w) {
  if (ls.empty() || lt.empty()) return kInfDistance;
  Distance best = kInfDistance;
  Rank max_hub_s = ls.back().hub;
  for (size_t j = 0; j < lt.size();) {
    size_t je = GroupEnd(lt, j);
    Rank hub = lt[j].hub;
    if (hub > max_hub_s) break;
    auto [ib, ie] = FindGroup(ls, hub);
    if (ib != ie) {
      // Theorem 3: the first constraint-satisfying entry in each group has
      // the minimal distance for that hub.
      size_t jj = FirstWithQuality(lt, j, je, w);
      size_t ii = FirstWithQuality(ls, ib, ie, w);
      if (jj != je && ii != ie) {
        Distance sum = ls[ii].dist + lt[jj].dist;
        if (sum < best) best = sum;
      }
    }
    j = je;
  }
  return best;
}

Distance QueryLabelsMerge(std::span<const LabelEntry> ls,
                          std::span<const LabelEntry> lt, Quality w) {
  Distance best = kInfDistance;
  size_t i = 0, j = 0;
  while (i < ls.size() && j < lt.size()) {
    Rank hi = ls[i].hub, hj = lt[j].hub;
    if (hi < hj) {
      i = GroupEnd(ls, i);
    } else if (hj < hi) {
      j = GroupEnd(lt, j);
    } else {
      size_t ie = GroupEnd(ls, i);
      size_t je = GroupEnd(lt, j);
      size_t ii = FirstWithQuality(ls, i, ie, w);
      size_t jj = FirstWithQuality(lt, j, je, w);
      if (ii != ie && jj != je) {
        Distance sum = ls[ii].dist + lt[jj].dist;
        if (sum < best) best = sum;
      }
      i = ie;
      j = je;
    }
  }
  return best;
}

Distance QueryLabels(std::span<const LabelEntry> ls,
                     std::span<const LabelEntry> lt, Quality w,
                     QueryImpl impl) {
  switch (impl) {
    case QueryImpl::kScan:
      return QueryLabelsScan(ls, lt, w);
    case QueryImpl::kHubGrouped:
      return QueryLabelsHubGrouped(ls, lt, w);
    case QueryImpl::kBinary:
      return QueryLabelsBinary(ls, lt, w);
    case QueryImpl::kMerge:
      return QueryLabelsMerge(ls, lt, w);
  }
  return kInfDistance;
}

namespace {

// Binary search over a hub directory for `hub`; returns the group index or
// groups.size() if absent. Directory elements are 8 bytes, so this touches
// ~1/3 the cache lines of the same search over 12-byte entries.
inline size_t FindGroupFlat(std::span<const HubGroup> groups, Rank hub) {
  auto it = std::lower_bound(
      groups.begin(), groups.end(), hub,
      [](const HubGroup& g, Rank h) { return g.hub < h; });
  if (it == groups.end() || it->hub != hub) return groups.size();
  return static_cast<size_t>(it - groups.begin());
}

}  // namespace

Distance QueryFlatScan(const FlatLabelView& ls, const FlatLabelView& lt,
                       Quality w) {
  return QueryLabelsScan(ls.entries, lt.entries, w);
}

Distance QueryFlatHubGrouped(const FlatLabelView& ls, const FlatLabelView& lt,
                             Quality w) {
  if (ls.groups.empty() || lt.groups.empty()) return kInfDistance;
  Distance best = kInfDistance;
  Rank max_hub_s = ls.groups.back().hub;
  for (size_t gt = 0; gt < lt.groups.size(); ++gt) {
    Rank hub = lt.groups[gt].hub;
    if (hub > max_hub_s) break;
    size_t gs = FindGroupFlat(ls.groups, hub);
    if (gs == ls.groups.size()) continue;
    size_t jb = lt.groups[gt].begin, je = lt.GroupEnd(gt);
    size_t ib = ls.groups[gs].begin, ie = ls.GroupEnd(gs);
    for (size_t jj = jb; jj < je; ++jj) {
      if (!(lt.entries[jj].quality >= w)) continue;
      for (size_t ii = ib; ii < ie; ++ii) {
        if (!(ls.entries[ii].quality >= w)) continue;
        Distance sum = ls.entries[ii].dist + lt.entries[jj].dist;
        if (sum < best) best = sum;
      }
    }
  }
  return best;
}

Distance QueryFlatBinary(const FlatLabelView& ls, const FlatLabelView& lt,
                         Quality w) {
  if (ls.groups.empty() || lt.groups.empty()) return kInfDistance;
  Distance best = kInfDistance;
  Rank max_hub_s = ls.groups.back().hub;
  for (size_t gt = 0; gt < lt.groups.size(); ++gt) {
    Rank hub = lt.groups[gt].hub;
    if (hub > max_hub_s) break;
    size_t gs = FindGroupFlat(ls.groups, hub);
    if (gs == ls.groups.size()) continue;
    size_t jb = lt.groups[gt].begin, je = lt.GroupEnd(gt);
    size_t ib = ls.groups[gs].begin, ie = ls.GroupEnd(gs);
    size_t jj = FirstWithQuality(lt.entries, jb, je, w);
    size_t ii = FirstWithQuality(ls.entries, ib, ie, w);
    if (jj != je && ii != ie) {
      Distance sum = ls.entries[ii].dist + lt.entries[jj].dist;
      if (sum < best) best = sum;
    }
  }
  return best;
}

Distance QueryFlatMerge(const FlatLabelView& ls, const FlatLabelView& lt,
                        Quality w) {
  Distance best = kInfDistance;
  size_t gs = 0, gt = 0;
  while (gs < ls.groups.size() && gt < lt.groups.size()) {
    Rank hs = ls.groups[gs].hub, ht = lt.groups[gt].hub;
    if (hs < ht) {
      ++gs;
    } else if (ht < hs) {
      ++gt;
    } else {
      size_t ib = ls.groups[gs].begin, ie = ls.GroupEnd(gs);
      size_t jb = lt.groups[gt].begin, je = lt.GroupEnd(gt);
      size_t ii = FirstWithQuality(ls.entries, ib, ie, w);
      size_t jj = FirstWithQuality(lt.entries, jb, je, w);
      if (ii != ie && jj != je) {
        Distance sum = ls.entries[ii].dist + lt.entries[jj].dist;
        if (sum < best) best = sum;
      }
      ++gs;
      ++gt;
    }
  }
  return best;
}

Distance QueryFlat(const FlatLabelView& ls, const FlatLabelView& lt, Quality w,
                   QueryImpl impl) {
  switch (impl) {
    case QueryImpl::kScan:
      return QueryFlatScan(ls, lt, w);
    case QueryImpl::kHubGrouped:
      return QueryFlatHubGrouped(ls, lt, w);
    case QueryImpl::kBinary:
      return QueryFlatBinary(ls, lt, w);
    case QueryImpl::kMerge:
      return QueryFlatMerge(ls, lt, w);
  }
  return kInfDistance;
}

HubQueryResult QueryFlatMergeWithHub(const FlatLabelView& ls,
                                     const FlatLabelView& lt, Quality w) {
  HubQueryResult result;
  size_t gs = 0, gt = 0;
  while (gs < ls.groups.size() && gt < lt.groups.size()) {
    Rank hs = ls.groups[gs].hub, ht = lt.groups[gt].hub;
    if (hs < ht) {
      ++gs;
    } else if (ht < hs) {
      ++gt;
    } else {
      size_t ib = ls.groups[gs].begin, ie = ls.GroupEnd(gs);
      size_t jb = lt.groups[gt].begin, je = lt.GroupEnd(gt);
      size_t ii = FirstWithQuality(ls.entries, ib, ie, w);
      size_t jj = FirstWithQuality(lt.entries, jb, je, w);
      if (ii != ie && jj != je) {
        Distance sum = ls.entries[ii].dist + lt.entries[jj].dist;
        if (sum < result.dist) {
          result.dist = sum;
          result.via_hub = hs;
          result.dist_from_s = ls.entries[ii].dist;
          result.dist_to_t = lt.entries[jj].dist;
        }
      }
      ++gs;
      ++gt;
    }
  }
  return result;
}

namespace {

// Relaxes the two interval breakpoints over one matched hub-group pair
// [ib, ie) x [jb, je), given the already-known answer d_star:
//   * hi_q — the largest quality q such that some pair with
//     dist sum <= d_star has min(quality_s, quality_t) = q. The answer
//     stays d_star exactly while w <= max-over-groups of hi_q.
//   * lo_q — the same for pairs with dist sum < d_star: at any w <= lo_q
//     a strictly better pair becomes usable, so the answer drops.
// Within a group qualities and distances both strictly ascend (Theorem 3),
// so for each i the best feasible j is the largest one whose sum fits, and
// that j only moves left as i advances: two descending pointers, one per
// threshold, O(group) total. Sums are widened to 64 bits so the kernel
// never relies on the label distances staying small.
inline void RelaxGroupBreakpoints(std::span<const LabelEntry> es, size_t ib,
                                  size_t ie, std::span<const LabelEntry> et,
                                  size_t jb, size_t je, Distance d_star,
                                  Quality* lo_q, Quality* hi_q) {
  if (d_star == kInfDistance) {
    // Unreachable at w: every pair is a "strictly better" pair, and the
    // best min-quality over the group is attained by the two last (highest
    // quality) entries.
    Quality q = std::min(es[ie - 1].quality, et[je - 1].quality);
    if (q > *lo_q) *lo_q = q;
    return;
  }
  const uint64_t d = d_star;
  size_t j_eq = je;  // pairs with sum <= d_star
  size_t j_lt = je;  // pairs with sum <  d_star
  for (size_t i = ib; i < ie; ++i) {
    const uint64_t ds = es[i].dist;
    while (j_eq > jb && ds + uint64_t{et[j_eq - 1].dist} > d) --j_eq;
    if (j_eq == jb) break;  // larger i only shrinks feasibility
    Quality q = std::min(es[i].quality, et[j_eq - 1].quality);
    if (q > *hi_q) *hi_q = q;
    while (j_lt > jb && ds + uint64_t{et[j_lt - 1].dist} >= d) --j_lt;
    if (j_lt > jb) {
      q = std::min(es[i].quality, et[j_lt - 1].quality);
      if (q > *lo_q) *lo_q = q;
    }
  }
}

// Converts the breakpoints accumulated across groups into the closed
// maximal interval. The constant region is (lo_q, hi_q] over the reals;
// nextafter turns the open lower end into its exact closed float form.
inline IntervalQueryResult FinishInterval(Distance d_star, Quality lo_q,
                                          Quality hi_q) {
  IntervalQueryResult result;
  result.dist = d_star;
  result.w_lo =
      lo_q == -kInfQuality ? -kInfQuality : std::nextafter(lo_q, kInfQuality);
  result.w_hi = d_star == kInfDistance ? kInfQuality : hi_q;
  return result;
}

}  // namespace

IntervalQueryResult QueryLabelsMergeWithInterval(
    std::span<const LabelEntry> ls, std::span<const LabelEntry> lt,
    Quality w) {
  const Distance d_star = QueryLabelsMerge(ls, lt, w);
  Quality lo_q = -kInfQuality;
  Quality hi_q = -kInfQuality;
  size_t i = 0, j = 0;
  while (i < ls.size() && j < lt.size()) {
    Rank hi = ls[i].hub, hj = lt[j].hub;
    if (hi < hj) {
      i = GroupEnd(ls, i);
    } else if (hj < hi) {
      j = GroupEnd(lt, j);
    } else {
      size_t ie = GroupEnd(ls, i);
      size_t je = GroupEnd(lt, j);
      RelaxGroupBreakpoints(ls, i, ie, lt, j, je, d_star, &lo_q, &hi_q);
      i = ie;
      j = je;
    }
  }
  return FinishInterval(d_star, lo_q, hi_q);
}

IntervalQueryResult QueryFlatMergeWithInterval(const FlatLabelView& ls,
                                               const FlatLabelView& lt,
                                               Quality w) {
  const Distance d_star = QueryFlatMerge(ls, lt, w);
  Quality lo_q = -kInfQuality;
  Quality hi_q = -kInfQuality;
  size_t gs = 0, gt = 0;
  while (gs < ls.groups.size() && gt < lt.groups.size()) {
    Rank hs = ls.groups[gs].hub, ht = lt.groups[gt].hub;
    if (hs < ht) {
      ++gs;
    } else if (ht < hs) {
      ++gt;
    } else {
      RelaxGroupBreakpoints(ls.entries, ls.groups[gs].begin, ls.GroupEnd(gs),
                            lt.entries, lt.groups[gt].begin, lt.GroupEnd(gt),
                            d_star, &lo_q, &hi_q);
      ++gs;
      ++gt;
    }
  }
  return FinishInterval(d_star, lo_q, hi_q);
}

HubQueryResult QueryLabelsMergeWithHub(std::span<const LabelEntry> ls,
                                       std::span<const LabelEntry> lt,
                                       Quality w) {
  HubQueryResult result;
  size_t i = 0, j = 0;
  while (i < ls.size() && j < lt.size()) {
    Rank hi = ls[i].hub, hj = lt[j].hub;
    if (hi < hj) {
      i = GroupEnd(ls, i);
    } else if (hj < hi) {
      j = GroupEnd(lt, j);
    } else {
      size_t ie = GroupEnd(ls, i);
      size_t je = GroupEnd(lt, j);
      size_t ii = FirstWithQuality(ls, i, ie, w);
      size_t jj = FirstWithQuality(lt, j, je, w);
      if (ii != ie && jj != je) {
        Distance sum = ls[ii].dist + lt[jj].dist;
        if (sum < result.dist) {
          result.dist = sum;
          result.via_hub = hi;
          result.dist_from_s = ls[ii].dist;
          result.dist_to_t = lt[jj].dist;
        }
      }
      i = ie;
      j = je;
    }
  }
  return result;
}

}  // namespace wcsd
