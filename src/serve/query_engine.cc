#include "serve/query_engine.h"

#include <algorithm>
#include <utility>

#include "core/path_index.h"
#include "labeling/shard_manifest.h"
#include "search/constrained_dijkstra.h"

namespace wcsd {

namespace {

std::string RangeString(uint64_t begin, uint64_t end) {
  std::string out = "[";
  out += std::to_string(begin);
  out += ", ";
  out += std::to_string(end);
  out += ")";
  return out;
}

}  // namespace

QueryEngine::QueryEngine(std::shared_ptr<const WcIndex> index,
                         QueryEngineOptions options)
    : index_(std::move(index)), options_(std::move(options)) {
  Shard shard;
  shard.end = num_vertices_ = index_->NumVertices();
  shard.labels =
      index_->finalized()
          ? index_->label_source()
          : LabelSource(FlatLabelSet::FromLabelSet(index_->labels()));
  shards_.push_back(std::move(shard));
  Start(std::nullopt);
}

Result<QueryEngine> QueryEngine::Open(const std::string& snapshot_path,
                                      QueryEngineOptions options,
                                      const SnapshotLoadOptions& load) {
  Result<WcIndex> index = WcIndex::LoadMmap(snapshot_path, load);
  if (!index.ok()) return index.status();
  return QueryEngine(
      std::make_shared<const WcIndex>(std::move(index).value()),
      std::move(options));
}

Result<QueryEngine> QueryEngine::Assemble(
    std::vector<Shard> shards, uint64_t num_vertices,
    QueryEngineOptions options, std::optional<uint64_t> known_fingerprint) {
  QueryEngine engine;
  engine.options_ = std::move(options);
  engine.num_vertices_ = num_vertices;
  engine.shards_ = std::move(shards);
  // Sort by (begin, end) so an empty shard [x, x) lands before the
  // non-empty shard starting at x regardless of input order — otherwise
  // the tiling check below would flag a false overlap.
  std::sort(engine.shards_.begin(), engine.shards_.end(),
            [](const Shard& a, const Shard& b) {
              return a.begin != b.begin ? a.begin < b.begin : a.end < b.end;
            });
  uint64_t cursor = 0;
  for (size_t i = 0; i < engine.shards_.size(); ++i) {
    const Shard& shard = engine.shards_[i];
    if (shard.begin != cursor) {
      std::string message = "shards do not tile the vertex range: ";
      message += shard.begin > cursor ? "gap" : "overlap";
      message += " at vertex " + std::to_string(std::min(cursor, shard.begin));
      message += " — shard " + std::to_string(i) + " (" + shard.path + ")";
      message += " covers " + RangeString(shard.begin, shard.end);
      message += " but the range is tiled up to " + std::to_string(cursor);
      return Status::InvalidArgument(std::move(message));
    }
    cursor = shard.end;
  }
  if (cursor != engine.num_vertices_) {
    std::string message = "shards do not cover the full vertex range (end at ";
    message += std::to_string(cursor) + " of " +
               std::to_string(engine.num_vertices_);
    if (!engine.shards_.empty()) {
      const Shard& last = engine.shards_.back();
      message += "; last shard " +
                 std::to_string(engine.shards_.size() - 1) + " (" +
                 last.path + ") covers " + RangeString(last.begin, last.end);
    }
    message += ")";
    return Status::InvalidArgument(std::move(message));
  }
  engine.Start(known_fingerprint);
  return engine;
}

void QueryEngine::Start(std::optional<uint64_t> known_fingerprint) {
  begins_.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    begins_.push_back(shard.begin);
    if (shard.quarantined) ++num_quarantined_;
    if (shard.labels.compressed()) ++num_compressed_;
  }
  size_t threads = ResolveServeThreads(options_.num_threads);
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  stats_ = std::make_unique<ServeStatsBlock>(threads);
  if (options_.decode_cache_bytes > 0 && num_compressed_ > 0) {
    decode_cache_ =
        std::make_shared<DecodedLabelCache>(options_.decode_cache_bytes);
  }
  if (options_.shared_cache || options_.cache_bytes > 0) {
    cache_fingerprint_ = known_fingerprint.has_value() ? *known_fingerprint
                                                       : ContentFingerprint();
    cache_ = options_.shared_cache
                 ? options_.shared_cache
                 : std::make_shared<ResultCache>(options_.cache_bytes);
    if (options_.pre_bind_invalidate) {
      options_.pre_bind_invalidate(cache_fingerprint_);
    }
    // Unconditional, shared cache or not (the result_cache.h contract): a
    // no-op when the cache is already bound to this index — in particular
    // after a swap coordinator's Rebind/InvalidateDelta — and a wholesale
    // wipe when it is bound to a different one, so a shared cache attached
    // without external invalidation can never serve stale distances.
    cache_->Rebind(cache_fingerprint_);
  }
}

uint64_t QueryEngine::ContentFingerprint() const {
  // The same chain OpenManifest verifies against the manifest's
  // fingerprint, over the shards in tiling order.
  ContentCrcChain chain(num_vertices_);
  for (const Shard& shard : shards_) {
    if (!chain.Append(shard.labels)) return 0;
  }
  return chain.Fingerprint();
}

Result<QueryEngine> QueryEngine::OpenMmap(
    const std::vector<std::string>& shard_paths, QueryEngineOptions options,
    const SnapshotLoadOptions& load) {
  if (shard_paths.empty()) {
    return Status::InvalidArgument("no shard snapshots given");
  }
  std::vector<Shard> shards;
  uint64_t num_vertices = 0;
  for (const std::string& path : shard_paths) {
    Result<MappedSnapshot> snapshot = LoadSnapshotMmap(path, load);
    if (!snapshot.ok()) return snapshot.status();
    MappedSnapshot& mapped = snapshot.value();
    if (shards.empty()) {
      num_vertices = mapped.info.num_vertices_total;
    } else if (num_vertices != mapped.info.num_vertices_total) {
      return Status::InvalidArgument(
          "shard " + path + " belongs to a different index (vertex totals "
          "disagree)");
    }
    Shard shard;
    shard.begin = mapped.info.vertex_begin;
    shard.end = mapped.info.vertex_end;
    shard.path = path;
    shard.labels = std::move(mapped.labels);
    shards.push_back(std::move(shard));
  }
  return Assemble(std::move(shards), num_vertices, std::move(options));
}

Result<QueryEngine> QueryEngine::OpenManifest(
    const std::string& manifest_path, QueryEngineOptions options,
    const SnapshotLoadOptions& load, const DegradedOpenOptions& degraded) {
  // The manifest itself is never quarantined: it is the source of truth
  // for what the shard set should look like, and without it there is no
  // way to know which ranges a failed shard was supposed to cover.
  Result<ShardManifest> read = ReadShardManifest(manifest_path);
  if (!read.ok()) return read.status();
  const ShardManifest& manifest = read.value();
  WCSD_RETURN_NOT_OK(manifest.ValidateTiling());

  // Fingerprint recomputation chains the per-shard payload CRCs in tiling
  // order; ValidateTiling just proved the manifest order IS tiling order.
  ContentCrcChain chain(manifest.num_vertices_total);

  std::vector<Shard> shards;
  size_t healthy = 0;
  // A quarantined shard's bytes are missing from the CRC chain, so the
  // whole-index fingerprint cross-check is only meaningful when every
  // shard loaded.
  bool fingerprint_complete = true;
  for (size_t i = 0; i < manifest.shards.size(); ++i) {
    const ShardManifestEntry& entry = manifest.shards[i];
    const std::string path = ResolveShardPath(manifest_path, entry.path);
    const std::string which =
        "shard " + std::to_string(i) + " (" + path + ")";
    Status failure = Status::OK();
    Result<MappedSnapshot> snapshot = LoadSnapshotMmap(path, load);
    if (!snapshot.ok()) {
      failure = Status(snapshot.status().code(),
                       "manifest " + manifest_path + ": " + which + ": " +
                           snapshot.status().message());
    } else {
      const MappedSnapshot& mapped = snapshot.value();
      if (mapped.info.num_vertices_total != manifest.num_vertices_total ||
          mapped.info.vertex_begin != entry.vertex_begin ||
          mapped.info.vertex_end != entry.vertex_end) {
        failure = Status::InvalidArgument(
            "manifest " + manifest_path + ": " + which + " covers " +
            RangeString(mapped.info.vertex_begin, mapped.info.vertex_end) +
            " of " + std::to_string(mapped.info.num_vertices_total) +
            " vertices but the manifest records " +
            RangeString(entry.vertex_begin, entry.vertex_end) + " of " +
            std::to_string(manifest.num_vertices_total));
      } else if (mapped.info.header_crc != entry.snapshot_header_crc) {
        failure = Status::Corruption(
            "manifest " + manifest_path + ": " + which +
            " is not the file the manifest was written for (snapshot header "
            "checksum mismatch)");
      } else if (mapped.labels.TotalEntries() != entry.entry_count ||
                 mapped.labels.TotalGroups() != entry.group_count) {
        // Logical totals, so compressed shards cross-check without a
        // decode.
        failure = Status::Corruption(
            "manifest " + manifest_path + ": " + which +
            " entry/group counts disagree with the manifest");
      }
    }
    if (!failure.ok()) {
      if (!degraded.quarantine_failed_shards) return failure;
      // Degraded mode: remember the planned range so routing still works,
      // but serve nothing from it. The manifest's tiling survives, so
      // every other shard's queries are untouched.
      Shard quarantined;
      quarantined.begin = entry.vertex_begin;
      quarantined.end = entry.vertex_end;
      quarantined.path = path;
      quarantined.quarantined = true;
      shards.push_back(std::move(quarantined));
      fingerprint_complete = false;
      continue;
    }
    MappedSnapshot& mapped = snapshot.value();
    if (load.verify_checksums && !chain.Append(mapped.labels)) {
      return Status::Corruption("manifest " + manifest_path + ": " + which +
                                " labels fail to decode for fingerprinting");
    }
    Shard shard;
    shard.begin = entry.vertex_begin;
    shard.end = entry.vertex_end;
    shard.path = path;
    shard.labels = std::move(mapped.labels);
    shards.push_back(std::move(shard));
    ++healthy;
  }
  if (healthy == 0) {
    return Status::Unavailable(
        "manifest " + manifest_path +
        ": every shard failed to load; refusing to serve an index that can "
        "answer nothing");
  }
  if (load.verify_checksums && fingerprint_complete) {
    if (chain.Fingerprint() != manifest.fingerprint) {
      return Status::Corruption(
          "manifest " + manifest_path +
          ": shard contents do not match the recorded index fingerprint");
    }
  }
  Result<QueryEngine> assembled =
      Assemble(std::move(shards), manifest.num_vertices_total,
               std::move(options), manifest.fingerprint);
  if (!assembled.ok()) return assembled.status();
  QueryEngine engine = std::move(assembled).value();
  engine.fallback_graph_ = degraded.fallback_graph;
  return engine;
}

std::string QueryEngine::LabelForms() const {
  size_t counts[3] = {0, 0, 0};
  size_t kinds = 0;
  for (const Shard& shard : shards_) {
    if (shard.quarantined) continue;
    if (counts[static_cast<size_t>(shard.labels.form())]++ == 0) ++kinds;
  }
  std::string out;
  for (LabelForm form :
       {LabelForm::kFlat, LabelForm::kSliced, LabelForm::kCompressed}) {
    const size_t count = counts[static_cast<size_t>(form)];
    if (count == 0) continue;
    if (!out.empty()) out += ", ";
    if (kinds > 1) out += std::to_string(count) + " ";
    out += LabelFormName(form);
  }
  return out;
}

std::vector<ShardBalanceEntry> QueryEngine::ShardBalance() const {
  std::vector<ShardBalanceEntry> balance;
  if (index_ != nullptr) return balance;
  balance.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    balance.push_back(ShardBalanceEntry{shard.begin, shard.end,
                                        shard.labels.TotalEntries(),
                                        shard.labels.MemoryBytes(),
                                        shard.quarantined});
  }
  return balance;
}

const QueryEngine::Shard& QueryEngine::ShardOf(Vertex v) const {
  // Last shard whose begin <= v; ranges tile [0, n), so this shard holds v.
  return shards_[static_cast<size_t>(
      std::upper_bound(begins_.begin(), begins_.end(), v) - begins_.begin() -
      1)];
}

FlatLabelView QueryEngine::ViewOf(Vertex v, DecodedLabel* scratch) const {
  const Shard& shard = ShardOf(v);
  const Vertex local = static_cast<Vertex>(v - shard.begin);
  if (decode_cache_ == nullptr) return shard.labels.View(local, scratch);
  // Keyed by GLOBAL vertex id, so one cache serves every shard.
  return shard.labels.View(
      local, scratch,
      [&](const CompressedFlatLabelSet& set, Vertex u, DecodedLabel* out) {
        return decode_cache_->GetOrDecode(set, u, v, out);
      });
}

Distance QueryEngine::QueryNoStats(Vertex s, Vertex t, Quality w) const {
  if (s >= num_vertices_ || t >= num_vertices_) return kInfDistance;
  if (s == t) return 0;
  // Two scratch labels per thread: each endpoint's view must survive the
  // other's decode (flat shards never touch them).
  thread_local DecodedLabel ls, lt;
  if (cache_) {
    return cache_->GetOrCompute(s, t, w, cache_fingerprint_, [&] {
      return QueryFlatMergeWithInterval(ViewOf(s, &ls), ViewOf(t, &lt), w);
    });
  }
  const Shard& a = ShardOf(s);
  const Shard& b = ShardOf(t);
  if (decode_cache_ == nullptr ||
      (!a.labels.compressed() && !b.labels.compressed())) {
    // Straight to the two sources' merge (two sliced labels merge their
    // level arrays; two compressed ones stream instead of materializing).
    return QueryMerge(a.labels, static_cast<Vertex>(s - a.begin), b.labels,
                      static_cast<Vertex>(t - b.begin), w, &ls, &lt);
  }
  // A compressed endpoint behind the decode cache: each side's Query+
  // slice at its own shard's level — a cached (vertex, level) slice of a
  // compressed shard, a sliced shard's stored level, or a flat label
  // projected — then the two-array merge.
  thread_local std::vector<SlicePair> ss, st;
  auto slice_of = [&](const Shard& shard, Vertex v,
                      std::vector<SlicePair>* scratch) {
    return shard.labels.Slice(
        static_cast<Vertex>(v - shard.begin), w, scratch,
        [&](const CompressedFlatLabelSet& set, Vertex local, size_t level,
            std::vector<SlicePair>* out) {
          return decode_cache_->GetOrProject(set, local, v, level, out);
        });
  };
  const auto s_slice = slice_of(a, s, &ss);
  if (!s_slice) return kInfDistance;
  const auto t_slice = slice_of(b, t, &st);
  if (!t_slice) return kInfDistance;
  return MergeSlices(*s_slice, *t_slice);
}

ServeOutcome QueryEngine::QueryExNoStats(Vertex s, Vertex t, Quality w,
                                         Distance* out) const {
  // Healthy engines never branch into the degraded path: the 2-hop query
  // stays exactly the pre-quarantine code, bit for bit.
  if (num_quarantined_ > 0 && s < num_vertices_ && t < num_vertices_ &&
      s != t && (Unavailable(s) || Unavailable(t))) {
    if (fallback_graph_ == nullptr) {
      *out = kInfDistance;
      return ServeOutcome::kShardUnavailable;
    }
    // Exact online fallback at graph-search cost. Not cached: the cache is
    // bound to the index fingerprint and fallback answers equal the
    // index's, but keeping the degraded path out of the cache makes its
    // behavior trivially reasoned about.
    *out = ConstrainedDijkstraUnit(*fallback_graph_, s, t, w);
    return ServeOutcome::kOk;
  }
  *out = QueryNoStats(s, t, w);
  return ServeOutcome::kOk;
}

QueryEngineStats QueryEngine::stats() const {
  QueryEngineStats stats = stats_->Aggregate();
  if (cache_ != nullptr) {
    ResultCacheStats c = cache_->stats();
    stats.cache_hits = c.hits;
    stats.cache_misses = c.misses;
    stats.cache_inserts = c.inserts;
    stats.cache_evictions = c.evictions;
  }
  if (decode_cache_ != nullptr) {
    DecodeCacheStats d = decode_cache_->stats();
    stats.decode_hits = d.hits;
    stats.decode_misses = d.misses;
    stats.cold_pageins = d.cold_pageins;
  }
  stats.has_parents = index_ != nullptr && index_->has_parents() ? 1 : 0;
  stats.compressed = num_compressed_ > 0 ? 1 : 0;
  for (const Shard& shard : shards_) {
    if (shard.quarantined) continue;
    stats.label_bytes += shard.labels.MemoryBytes();
    stats.uncompressed_label_bytes += shard.labels.UncompressedBytes();
  }
  return stats;
}

Distance QueryEngine::Query(Vertex s, Vertex t, Quality w) const {
  Distance d = kInfDistance;
  QueryEx(s, t, w, &d);
  return d;
}

ServeOutcome QueryEngine::QueryEx(Vertex s, Vertex t, Quality w,
                                  Distance* out) const {
  ServeOutcome outcome = QueryExNoStats(s, t, w, out);
  if (outcome == ServeOutcome::kOk) {
    stats_->RecordSingle(*out);
  } else {
    stats_->RecordUnavailable(1);
  }
  return outcome;
}

std::vector<Distance> QueryEngine::Batch(
    const std::vector<BatchQueryInput>& queries) const {
  std::vector<Distance> results;
  if (BatchEx(queries, &results) != ServeOutcome::kOk) {
    // Degraded without a fallback: the refusal is counted by BatchEx;
    // callers of this form see kInfDistance for the refused batch.
    results.assign(queries.size(), kInfDistance);
  }
  return results;
}

ServeOutcome QueryEngine::BatchEx(const std::vector<BatchQueryInput>& queries,
                                  std::vector<Distance>* out) const {
  out->clear();
  if (num_quarantined_ > 0 && fallback_graph_ == nullptr) {
    // Refuse the whole batch if any query needs a quarantined shard: a
    // distance vector with silently-wrong entries is worse than a clean
    // refusal the client can split or reroute.
    for (const BatchQueryInput& q : queries) {
      const bool in_range = q.s < num_vertices_ && q.t < num_vertices_;
      if (in_range && q.s != q.t && (Unavailable(q.s) || Unavailable(q.t))) {
        stats_->RecordUnavailable(queries.size());
        return ServeOutcome::kShardUnavailable;
      }
    }
  }
  *out = RunServeBatch(pool_.get(), num_threads(), options_.min_chunk,
                       *stats_, queries, [&](const BatchQueryInput& q) {
                         Distance d = kInfDistance;
                         QueryExNoStats(q.s, q.t, q.w, &d);
                         return d;
                       });
  return ServeOutcome::kOk;
}

ServeOutcome QueryEngine::TopKEx(Vertex source,
                                 std::span<const Vertex> candidates,
                                 Quality w, size_t k,
                                 std::vector<RankedCandidate>* out) const {
  out->clear();
  if (num_quarantined_ > 0) {
    // Whole-request refusal, mirroring BatchEx: the reply has no per-
    // candidate error channel, and a ranking silently missing candidates
    // is worse than a clean refusal the client can route around.
    bool touched = source < num_vertices_ && Unavailable(source);
    for (size_t i = 0; !touched && i < candidates.size(); ++i) {
      const Vertex c = candidates[i];
      touched = c < num_vertices_ && c != source && Unavailable(c);
    }
    if (touched) {
      stats_->RecordUnavailable(candidates.size());
      return ServeOutcome::kShardUnavailable;
    }
  }
  // Ring of two scratch labels: the top-k kernel holds at most one
  // candidate's span alongside the source scan.
  thread_local DecodedLabel ring[2];
  thread_local unsigned next = 0;
  *out = TopKClosestOverLabels(
      num_vertices_, source, candidates, w, k, [&](Vertex v) {
        return ViewOf(v, &ring[next++ & 1]).entries;
      });
  stats_->RecordMany(candidates.size(), out->size());
  return ServeOutcome::kOk;
}

ServeOutcome QueryEngine::ProfileEx(Vertex s, Vertex t,
                                    std::span<const Quality> thresholds,
                                    std::vector<ProfilePoint>* out) const {
  out->clear();
  const bool in_range = s < num_vertices_ && t < num_vertices_;
  if (num_quarantined_ > 0 && in_range && s != t &&
      (Unavailable(s) || Unavailable(t))) {
    stats_->RecordUnavailable(thresholds.size());
    return ServeOutcome::kShardUnavailable;
  }
  thread_local DecodedLabel ls, lt;
  *out = QualityProfileOverIntervals(
      thresholds, [&](Quality w) -> IntervalQueryResult {
        // Degenerate pairs answer with the everywhere-constant interval,
        // the same guards WcIndex::QueryWithInterval applies.
        if (!in_range) return IntervalQueryResult{};
        if (s == t) return IntervalQueryResult{0, -kInfQuality, kInfQuality};
        return QueryFlatMergeWithInterval(ViewOf(s, &ls), ViewOf(t, &lt), w);
      });
  uint64_t reachable = 0;
  for (const ProfilePoint& p : *out) {
    if (p.dist != kInfDistance) ++reachable;
  }
  stats_->RecordMany(thresholds.size(), reachable);
  return ServeOutcome::kOk;
}

ServeOutcome QueryEngine::PathEx(Vertex s, Vertex t, Quality w,
                                 std::vector<Vertex>* out) const {
  out->clear();
  if (options_.graph == nullptr) return ServeOutcome::kNotSupported;
  const QualityGraph& g = *options_.graph;
  if (s >= num_vertices_ || t >= num_vertices_) {
    stats_->RecordSingle(kInfDistance);
    return ServeOutcome::kOk;
  }
  if (index_ != nullptr) {
    // The §V unwind over the index's parent quads (index-guided neighbor
    // steps where a quad is missing).
    PathQueryStats path_stats;
    *out = QueryConstrainedPath(*index_, g, s, t, w, &path_stats);
    stats_->RecordSingle(out->empty() ? kInfDistance : 0);
    stats_->RecordPathFallbacks(path_stats.fallback_steps);
    return ServeOutcome::kOk;
  }
  if (num_quarantined_ > 0 && (Unavailable(s) || Unavailable(t))) {
    stats_->RecordUnavailable(1);
    return ServeOutcome::kShardUnavailable;
  }
  if (s == t) {
    out->push_back(s);
    stats_->RecordSingle(0);
    return ServeOutcome::kOk;
  }
  const Distance total = QueryNoStats(s, t, w);
  stats_->RecordSingle(total);
  if (total == kInfDistance) return ServeOutcome::kOk;
  // Greedy index-guided stepping: at each vertex take any constraint-
  // satisfying neighbor exactly one step closer to t. Every step is a
  // fallback step — shard slices carry no parent quads.
  out->push_back(s);
  Vertex cur = s;
  Distance remaining = total;
  size_t steps = 0;
  while (remaining > 0) {
    Vertex next = kNullVertex;
    bool skipped_quarantined = false;
    for (const Arc& a : g.Neighbors(cur)) {
      if (a.quality < w) continue;
      if (a.to >= num_vertices_) continue;
      if (num_quarantined_ > 0 && Unavailable(a.to)) {
        skipped_quarantined = true;
        continue;
      }
      if (QueryNoStats(a.to, t, w) == remaining - 1) {
        next = a.to;
        break;
      }
    }
    ++steps;
    if (next == kNullVertex) {
      out->clear();
      stats_->RecordPathFallbacks(steps);
      if (skipped_quarantined) {
        // The only viable next hops were quarantined; the graph may still
        // have a path through them.
        stats_->RecordUnavailable(1);
        return ServeOutcome::kShardUnavailable;
      }
      // Index inconsistent with the graph; treat as unreachable.
      return ServeOutcome::kOk;
    }
    out->push_back(next);
    cur = next;
    --remaining;
  }
  stats_->RecordPathFallbacks(steps);
  return ServeOutcome::kOk;
}

}  // namespace wcsd
