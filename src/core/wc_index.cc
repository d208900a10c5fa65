#include "core/wc_index.h"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "labeling/shard_manifest.h"
#include "order/hybrid_order.h"
#include "order/tree_decomposition.h"
#include "util/endian.h"
#include "util/epoch_array.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace wcsd {

namespace {

constexpr Quality kNegInfQuality = -std::numeric_limits<Quality>::infinity();

size_t ResolveThreads(size_t num_threads) {
  if (num_threads != 0) return num_threads;
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

VertexOrder MakeOrder(const QualityGraph& g, const WcIndexOptions& options) {
  switch (options.ordering) {
    case WcIndexOptions::Ordering::kDegree:
      return DegreeOrder(g);
    case WcIndexOptions::Ordering::kTreeDecomposition:
      return TreeDecompositionOrder(g);
    case WcIndexOptions::Ordering::kHybrid: {
      HybridOptions h;
      h.degree_threshold = options.hybrid_degree_threshold != 0
                               ? options.hybrid_degree_threshold
                               : AutoDegreeThreshold(g);
      return HybridOrder(g, h);
    }
    case WcIndexOptions::Ordering::kRandom:
      return RandomOrder(g.NumVertices(), options.seed);
    case WcIndexOptions::Ordering::kIdentity:
      return IdentityOrder(g.NumVertices());
  }
  return DegreeOrder(g);
}

/// One-shot builder implementing Algorithm 3, sequentially or as the
/// rank-batched parallel pipeline.
///
/// Sequential mode (num_threads == 1) is the paper's loop: one constrained
/// BFS per root in rank order, each pruning against the live partial index.
///
/// Parallel mode partitions roots (in rank order) into batches. Within a
/// batch, worker threads run the same constrained BFS, but prune only
/// against the immutable snapshot of the index from prior batches and
/// record surviving pops as CANDIDATE entries instead of appending. Missing
/// the prunes of same-batch lower-ranked roots makes the candidate stream a
/// superset of the sequential entry stream with identical (dist, quality)
/// values: with fewer prunes the per-level max-quality frontier dominates
/// the sequential one, and any pop it adds or upgrades is reachable through
/// an already-indexed higher-ranked hub, hence covered. After a barrier, a
/// sequential merge replays each root's candidates in rank order through
/// the exact sequential cover check against the live index, which discards
/// precisely the extras — the result is bit-identical to the sequential
/// build (Theorem 1's minimal index is canonical for a fixed order), for
/// any thread count and batch size (tested).
class WcIndexBuilder {
 public:
  WcIndexBuilder(const QualityGraph& g, VertexOrder order,
                 const WcIndexOptions& options)
      : g_(g),
        order_(std::move(order)),
        options_(options),
        labels_(g.NumVertices()) {
    if (options.record_parents) parents_.resize(g.NumVertices());
  }

  WcIndex Run() {
    Timer timer;
    const size_t n = g_.NumVertices();
    size_t threads = std::min(ResolveThreads(options_.num_threads),
                              n == 0 ? size_t{1} : n);
    if (threads <= 1) {
      BuildWorkspace ws(n);
      for (Rank k = 0; k < n; ++k) {
        BfsFromRoot(k, ws, /*candidates=*/nullptr);
      }
      AccumulateStats(ws);
    } else {
      RunParallel(threads);
    }
    stats_.build_seconds = timer.Seconds();
    WcIndex index(std::move(labels_), std::move(order_), stats_);
    index.parents_ = std::move(parents_);
    return index;
  }

 private:
  // Frontier entry: the paper's queue tuple (u, d, w) with d implicit in
  // the level structure, plus the BFS predecessor for §V quad labels.
  struct Frontier {
    Vertex vertex;
    Quality quality;
    Vertex parent;
  };

  // A surviving pop from a snapshot-pruned BFS, pending the merge-phase
  // re-prune. dist is implicit in sequential mode but must be carried here.
  struct Candidate {
    Vertex vertex;
    Distance dist;
    Quality quality;
    Vertex parent;
  };

  // Per-thread scratch (§IV.C Efficient Initialization): epoch-reset
  // between roots, allocated once per worker for the whole build.
  struct BuildWorkspace {
    explicit BuildWorkspace(size_t n)
        : max_quality(n, kNegInfQuality),
          in_next(n, false),
          memo_quality(n, kNegInfQuality),
          hub_group_begin(n, 0),
          hub_group_end(n, 0),
          pred(n, kNullVertex) {}

    EpochArray<Quality> max_quality;  // the paper's R vector
    EpochArray<bool> in_next;
    EpochArray<Quality> memo_quality;
    EpochArray<uint32_t> hub_group_begin;  // the per-root hub table T
    EpochArray<uint32_t> hub_group_end;
    EpochArray<Vertex> pred;
    std::vector<Frontier> cur;
    std::vector<Vertex> nxt;
    WcIndexBuildStats stats;  // thread-local counters, summed at the end
  };

  void RunParallel(size_t threads) {
    const size_t n = g_.NumVertices();
    ThreadPool pool(threads);
    std::vector<std::unique_ptr<BuildWorkspace>> workspaces;
    workspaces.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      workspaces.push_back(std::make_unique<BuildWorkspace>(n));
    }
    std::vector<std::vector<Candidate>> candidates;
    // Auto batch schedule: start at the thread count and double up to a
    // cap. Early (high-rank) roots contribute the labels that prune the
    // rest of the build, so staling them briefly is cheap only while the
    // batches are small.
    size_t auto_batch = threads;
    const size_t auto_cap = std::max<size_t>(64, 16 * threads);
    for (Rank k0 = 0; k0 < n;) {
      size_t batch = options_.batch_size != 0 ? options_.batch_size
                                              : auto_batch;
      Rank k1 = static_cast<Rank>(std::min<size_t>(n, k0 + batch));
      candidates.assign(k1 - k0, {});
      for (Rank k = k0; k < k1; ++k) {
        pool.Submit([this, k, k0, &workspaces, &candidates](size_t worker) {
          BfsFromRoot(k, *workspaces[worker], &candidates[k - k0]);
        });
      }
      pool.Wait();
      // Barrier passed: labels_ is mutable again, workers are idle, so the
      // first workspace's hub table is free for the merge.
      for (Rank k = k0; k < k1; ++k) {
        MergeRoot(k, candidates[k - k0], *workspaces[0]);
      }
      k0 = k1;
      auto_batch = std::min(auto_batch * 2, auto_cap);
    }
    for (const auto& ws : workspaces) AccumulateStats(*ws);
  }

  // Constrained BFS from the k-th vertex in the order (Algorithm 3 lines
  // 3-17). With `candidates == nullptr` this is the sequential algorithm:
  // cover checks read the live index and survivors are appended directly.
  // Otherwise survivors are recorded for the merge phase and cover checks
  // see only the pre-batch snapshot (labels_ is frozen during the batch).
  void BfsFromRoot(Rank k, BuildWorkspace& ws,
                   std::vector<Candidate>* candidates) {
    const Vertex root = order_.VertexAt(k);

    // Per-root scratch reset (O(1) via epochs): R vector (line 4), the
    // satisfied-query memo, and the root's hub lookup table.
    ws.max_quality.Clear();
    ws.memo_quality.Clear();
    ws.pred.Clear();
    if (options_.query_efficient) BuildHubTable(root, ws);

    ws.max_quality.Set(root, kInfQuality);
    ws.cur.clear();
    ws.nxt.clear();
    ws.cur.push_back(Frontier{root, kInfQuality, kNullVertex});

    Distance d = 0;
    while (!ws.cur.empty()) {
      ws.in_next.Clear();
      ws.nxt.clear();
      for (const Frontier& f : ws.cur) {
        ++ws.stats.pops;
        if (!ProcessPop(k, root, f.vertex, d, f.quality, f.parent, ws,
                        candidates)) {
          continue;
        }
        Relax(k, f.vertex, f.quality, ws);
      }
      // Line 17: only after the whole level is processed are the updated
      // vertices pushed, each once, with the maximal quality seen (the
      // quality-priority order at no extra cost).
      ws.cur.clear();
      for (Vertex v : ws.nxt) {
        ws.cur.push_back(Frontier{v, ws.max_quality.Get(v), ws.pred.Get(v)});
      }
      ++d;
    }
  }

  // Lines 11-12: dominance-prune against the partial index, else keep the
  // new entry. Returns true if the entry was kept (and should expand).
  bool ProcessPop(Rank k, Vertex root, Vertex u, Distance d, Quality w,
                  Vertex parent, BuildWorkspace& ws,
                  std::vector<Candidate>* candidates) {
    if (options_.further_pruning && ws.memo_quality.Get(u) >= w) {
      ++ws.stats.pruned_by_memo;
      return false;
    }
    bool covered = options_.query_efficient
                       ? CoveredFast(root, u, d, w, ws)
                       : CoveredBasic(root, u, d, w);
    if (covered) {
      ++ws.stats.pruned_by_query;
      if (options_.further_pruning) ws.memo_quality.Set(u, w);
      return false;
    }
    if (candidates != nullptr) {
      candidates->push_back(Candidate{u, d, w, parent});
    } else {
      AppendEntry(k, u, d, w, parent);
    }
    return true;
  }

  // Merge phase: replay root k's candidates — in the BFS pop order the
  // sequential build would have used — through the sequential cover check
  // against the live index, appending survivors. The memo is skipped: per
  // vertex, candidate qualities strictly ascend within one root, so a memo
  // hit (a previously satisfied query at >= quality) is impossible here.
  void MergeRoot(Rank k, const std::vector<Candidate>& candidates,
                 BuildWorkspace& ws) {
    const Vertex root = order_.VertexAt(k);
    if (options_.query_efficient) BuildHubTable(root, ws);
    for (const Candidate& c : candidates) {
      bool covered =
          options_.query_efficient
              ? CoveredFast(root, c.vertex, c.dist, c.quality, ws)
              : CoveredBasic(root, c.vertex, c.dist, c.quality);
      if (covered) {
        ++stats_.pruned_by_query;
        continue;
      }
      AppendEntry(k, c.vertex, c.dist, c.quality, c.parent);
    }
  }

  void AppendEntry(Rank k, Vertex u, Distance d, Quality w, Vertex parent) {
    labels_.Append(u, LabelEntry{k, d, w});
    if (!parents_.empty()) parents_[u].push_back(parent);
    ++stats_.entries_added;
  }

  // Lines 13-16: explore higher-ranked neighbors, keeping per vertex only
  // the maximum-quality candidate for the next level (the R test).
  void Relax(Rank k, Vertex u, Quality w, BuildWorkspace& ws) {
    for (const Arc& a : g_.Neighbors(u)) {
      if (order_.RankOf(a.to) <= k) continue;
      ++ws.stats.relaxations;
      Quality next_quality = std::min(a.quality, w);
      if (next_quality <= ws.max_quality.Get(a.to)) continue;
      ws.max_quality.Set(a.to, next_quality);
      ws.pred.Set(a.to, u);
      if (!ws.in_next.Get(a.to)) {
        ws.in_next.Set(a.to, true);
        ws.nxt.push_back(a.to);
      }
    }
  }

  // Per-root hub table T (§IV.C "Querying"): hub rank -> entry range in
  // L(root). Built once per root in O(|L(root)|).
  void BuildHubTable(Vertex root, BuildWorkspace& ws) {
    ws.hub_group_begin.Clear();
    ws.hub_group_end.Clear();
    auto lr = labels_.For(root);
    size_t i = 0;
    while (i < lr.size()) {
      size_t ie = i + 1;
      while (ie < lr.size() && lr[ie].hub == lr[i].hub) ++ie;
      ws.hub_group_begin.Set(lr[i].hub, static_cast<uint32_t>(i));
      ws.hub_group_end.Set(lr[i].hub, static_cast<uint32_t>(ie));
      i = ie;
    }
  }

  // Query-efficient cover check: one pass over L(u), O(1) root-side group
  // lookup through T, binary searches inside groups (Theorem 3).
  bool CoveredFast(Vertex root, Vertex u, Distance d, Quality w,
                   const BuildWorkspace& ws) {
    auto lr = labels_.For(root);
    auto lu = labels_.For(u);
    size_t i = 0;
    while (i < lu.size()) {
      size_t ie = i + 1;
      Rank hub = lu[i].hub;
      while (ie < lu.size() && lu[ie].hub == hub) ++ie;
      if (ws.hub_group_begin.Contains(hub)) {
        size_t rb = ws.hub_group_begin.Get(hub);
        size_t re = ws.hub_group_end.Get(hub);
        size_t ri = FirstWithQuality(lr, rb, re, w);
        if (ri != re) {
          size_t ui = FirstWithQuality(lu, i, ie, w);
          if (ui != ie && lr[ri].dist + lu[ui].dist <= d) return true;
        }
      }
      i = ie;
    }
    return false;
  }

  // Basic cover check (plain WC-INDEX): re-resolve hub groups with binary
  // search over L(root) for every query — Algorithm 4 shape.
  bool CoveredBasic(Vertex root, Vertex u, Distance d, Quality w) {
    return QueryLabelsHubGrouped(labels_.For(root), labels_.For(u), w) <= d;
  }

  void AccumulateStats(const BuildWorkspace& ws) {
    stats_.pops += ws.stats.pops;
    stats_.pruned_by_query += ws.stats.pruned_by_query;
    stats_.pruned_by_memo += ws.stats.pruned_by_memo;
    stats_.relaxations += ws.stats.relaxations;
  }

  const QualityGraph& g_;
  VertexOrder order_;
  WcIndexOptions options_;
  LabelSet labels_;
  WcIndexBuildStats stats_;
  std::vector<std::vector<Vertex>> parents_;
};

WcIndex WcIndex::Build(const QualityGraph& g, const WcIndexOptions& options) {
  return BuildWithOrder(g, MakeOrder(g, options), options);
}

WcIndex WcIndex::BuildWithOrder(const QualityGraph& g, VertexOrder order,
                                const WcIndexOptions& options) {
  assert(order.size() == g.NumVertices());
  WcIndexBuilder builder(g, std::move(order), options);
  return builder.Run();
}

void WcIndex::Finalize() {
  if (finalized_) return;
  flat_ = FlatLabelSet::FromLabelSet(labels_);
  finalized_ = true;
}

FlatLabelView WcIndex::DecodedView(Vertex v) const {
  // Two rotating scratch slots per thread: a kernel holding the views of
  // both endpoints never sees its first decode clobbered by the second.
  thread_local DecodedLabel scratch[2];
  thread_local unsigned next = 0;
  DecodedLabel* slot = &scratch[next++ & 1];
  if (!compressed_.DecodeVertex(v, slot).ok()) slot->Clear();
  return slot->View();
}

Distance WcIndex::Query(Vertex s, Vertex t, Quality w) const {
  if (s >= NumVertices() || t >= NumVertices()) return kInfDistance;
  if (s == t) return 0;
  if (compressed_backend_) {
    return QueryCompressedMerge(compressed_, s, compressed_, t, w);
  }
  if (finalized_) return QueryFlatMerge(flat_.View(s), flat_.View(t), w);
  return QueryLabelsMerge(labels_.For(s), labels_.For(t), w);
}

Distance WcIndex::Query(Vertex s, Vertex t, Quality w, QueryImpl impl) const {
  if (s >= NumVertices() || t >= NumVertices()) return kInfDistance;
  if (s == t) return 0;
  if (compressed_backend_) {
    // kMerge streams the varint blobs directly; the other impls (ablation
    // paths) run the flat kernels over per-vertex decodes — bit-identical
    // either way.
    if (impl == QueryImpl::kMerge) {
      return QueryCompressedMerge(compressed_, s, compressed_, t, w);
    }
    return QueryFlat(DecodedView(s), DecodedView(t), w, impl);
  }
  if (finalized_) return QueryFlat(flat_.View(s), flat_.View(t), w, impl);
  return QueryLabels(labels_.For(s), labels_.For(t), w, impl);
}

IntervalQueryResult WcIndex::QueryWithInterval(Vertex s, Vertex t,
                                               Quality w) const {
  if (s >= NumVertices() || t >= NumVertices()) return IntervalQueryResult{};
  if (s == t) {
    IntervalQueryResult r;
    r.dist = 0;
    return r;  // 0 under every constraint
  }
  if (compressed_backend_) {
    return QueryFlatMergeWithInterval(DecodedView(s), DecodedView(t), w);
  }
  if (finalized_) {
    return QueryFlatMergeWithInterval(flat_.View(s), flat_.View(t), w);
  }
  return QueryLabelsMergeWithInterval(labels_.For(s), labels_.For(t), w);
}

HubQueryResult WcIndex::QueryWithHub(Vertex s, Vertex t, Quality w) const {
  if (s >= NumVertices() || t >= NumVertices()) return HubQueryResult{};
  if (s == t) {
    HubQueryResult r;
    r.dist = 0;
    r.via_hub = order_.RankOf(s);
    r.dist_from_s = 0;
    r.dist_to_t = 0;
    return r;
  }
  if (compressed_backend_) {
    return QueryFlatMergeWithHub(DecodedView(s), DecodedView(t), w);
  }
  if (finalized_) return QueryFlatMergeWithHub(flat_.View(s), flat_.View(t), w);
  return QueryLabelsMergeWithHub(labels_.For(s), labels_.For(t), w);
}

uint64_t WcIndex::ContentFingerprint() const {
  if (compressed_backend_) return compressed_.ContentFingerprint();
  return IndexContentFingerprint(flat_);
}

namespace {
constexpr uint64_t kIndexMagic = 0x57435344'494e4458ULL;  // "WCSDINDX"

// The .wcx format is defined in fixed-width little-endian fields: u64
// magic, u64 vertex count, n * u32 order, then per vertex a u64 entry
// count followed by that many 12-byte LabelEntry records.
static_assert(sizeof(Vertex) == 4);
static_assert(sizeof(LabelEntry) == 12);
}  // namespace

Status WcIndex::Save(const std::string& path) const {
  WCSD_RETURN_NOT_OK(CheckSerializationByteOrder());
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(&kIndexMagic), sizeof(kIndexMagic));
  uint64_t n = NumVertices();
  // An mmap-loaded index has no append-oriented labels; serialize from
  // whichever backend queries route through (EntriesFor decodes the
  // compressed backend per vertex) instead of silently writing an empty
  // index.
  const bool from_serving = labels_.NumVertices() != n;
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(order_.by_rank().data()),
            static_cast<std::streamsize>(n * sizeof(Vertex)));
  for (uint64_t v = 0; v < n; ++v) {
    auto lv = from_serving ? EntriesFor(static_cast<Vertex>(v))
                           : labels_.For(static_cast<Vertex>(v));
    uint64_t count = lv.size();
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    out.write(reinterpret_cast<const char*>(lv.data()),
              static_cast<std::streamsize>(count * sizeof(LabelEntry)));
  }
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

Result<WcIndex> WcIndex::Load(const std::string& path) {
  WCSD_RETURN_NOT_OK(CheckSerializationByteOrder());
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  // Every count is validated against the bytes actually left in the file
  // before any allocation, so a corrupted count field yields Corruption
  // rather than a std::bad_alloc crash.
  uint64_t bytes_left = static_cast<uint64_t>(in.tellg());
  in.seekg(0);
  uint64_t magic = 0, n = 0;
  if (bytes_left < sizeof(magic) + sizeof(n)) {
    return Status::Corruption("truncated header in " + path);
  }
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in || magic != kIndexMagic) {
    return Status::Corruption("bad magic in " + path);
  }
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!in) return Status::Corruption("truncated header in " + path);
  bytes_left -= sizeof(magic) + sizeof(n);
  if (n > bytes_left / sizeof(Vertex)) {
    return Status::Corruption("truncated order in " + path);
  }
  std::vector<Vertex> by_rank(n);
  in.read(reinterpret_cast<char*>(by_rank.data()),
          static_cast<std::streamsize>(n * sizeof(Vertex)));
  if (!in) return Status::Corruption("truncated order in " + path);
  bytes_left -= n * sizeof(Vertex);

  WcIndex index;
  index.order_ = VertexOrder(std::move(by_rank));
  if (!index.order_.IsValid()) {
    return Status::Corruption("order is not a permutation in " + path);
  }
  index.labels_ = LabelSet(n);
  for (uint64_t v = 0; v < n; ++v) {
    uint64_t count = 0;
    if (bytes_left < sizeof(count)) {
      return Status::Corruption("truncated label count in " + path);
    }
    in.read(reinterpret_cast<char*>(&count), sizeof(count));
    if (!in) return Status::Corruption("truncated label count in " + path);
    bytes_left -= sizeof(count);
    if (count > bytes_left / sizeof(LabelEntry)) {
      return Status::Corruption("truncated label entries in " + path);
    }
    auto* lv = index.labels_.Mutable(static_cast<Vertex>(v));
    lv->resize(count);
    in.read(reinterpret_cast<char*>(lv->data()),
            static_cast<std::streamsize>(count * sizeof(LabelEntry)));
    if (!in) return Status::Corruption("truncated label entries in " + path);
    bytes_left -= count * sizeof(LabelEntry);
  }
  if (!index.labels_.IsSorted()) {
    return Status::Corruption("unsorted labels in " + path);
  }
  return index;
}

Status WcIndex::SaveSnapshot(const std::string& path,
                             const SnapshotWriteOptions& write_options) const {
  if (!finalized_) {
    return Status::InvalidArgument(
        "SaveSnapshot requires a finalized index (call Finalize first)");
  }
  if (compressed_backend_) {
    // Re-materialize the flat arrays, the snapshot writer's input form.
    // This is the migration path both ways: --compress re-encodes (fresh
    // dictionary), without it the snapshot comes out uncompressed.
    Result<FlatLabelSet> flat = compressed_.Decompress();
    if (!flat.ok()) return flat.status();
    return WriteSnapshot(path, flat.value(), &order_, /*parents=*/{},
                         write_options);
  }
  if (!parents_.empty()) {
    // Flatten the per-vertex parent vectors in vertex order — the same
    // order Finalize packs entries — so parents align index-for-index with
    // the flat entry array the snapshot carries.
    std::vector<Vertex> flat_parents;
    flat_parents.reserve(flat_.TotalEntries());
    for (const std::vector<Vertex>& pv : parents_) {
      flat_parents.insert(flat_parents.end(), pv.begin(), pv.end());
    }
    if (flat_parents.size() != flat_.raw_entries().size()) {
      return Status::InvalidArgument(
          "parent quads out of sync with the flat labels; refusing to "
          "snapshot misaligned parents");
    }
    return WriteSnapshot(path, flat_, &order_, flat_parents, write_options);
  }
  if (!flat_parents_.empty()) {
    return WriteSnapshot(path, flat_, &order_, flat_parents_, write_options);
  }
  return WriteSnapshot(path, flat_, &order_, /*parents=*/{}, write_options);
}

Result<WcIndex> WcIndex::LoadMmap(const std::string& path,
                                  const SnapshotLoadOptions& options) {
  Result<MappedSnapshot> snapshot = LoadSnapshotMmap(path, options);
  if (!snapshot.ok()) return snapshot.status();
  MappedSnapshot& mapped = snapshot.value();
  if (!mapped.info.IsFullRange() || !mapped.info.has_order) {
    return Status::InvalidArgument(
        "not a full-range snapshot with a vertex order: " + path);
  }
  WcIndex index;
  index.order_ = VertexOrder(std::move(mapped.order_by_rank));
  if (!index.order_.IsValid()) {
    return Status::Corruption("order is not a permutation in " + path);
  }
  if (mapped.info.compressed) {
    index.compressed_ = std::move(mapped.compressed);
    index.compressed_backend_ = true;
  } else {
    index.flat_ = std::move(mapped.labels);
    index.flat_parents_ = mapped.parents;  // kept alive by flat_'s mapping
  }
  index.finalized_ = true;
  return index;
}

}  // namespace wcsd
