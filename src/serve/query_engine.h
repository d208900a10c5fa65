// Thread-safe serving engine over an immutable WC-INDEX.
//
// Construction-side code mutates labels; serving-side code must not. The
// QueryEngine encodes that boundary: it serves immutable label storage —
// typically mmap'd snapshot sections, so start-up is zero-copy — and
// answers single queries and batch workloads from any number of caller
// threads concurrently. Batches fan out over an internal ThreadPool in
// contiguous chunks (serve/batch_runner.h); each worker accumulates into
// its own cache-line-padded stats slot (the per-thread scratch), so the
// only cross-thread traffic on the hot path is the final relaxed
// aggregation.
//
// Storage is always a tiling of [0, n) by vertex-range shards. A 2-hop
// query (s, t, w) reads exactly two label slices, L(s) and L(t) (§IV.C,
// Algorithm 5), and hubs are global ranks, so the slices intersect
// correctly no matter which file each came from. A whole snapshot (Open)
// or an in-memory WcIndex (the constructor) is the one-shard tiling;
// vertex-range shard files (OpenMmap, each written by WriteSnapshotShard)
// and a manifest-described shard set (OpenManifest) are N shards. Every
// query routes its endpoints through the same shard lookup, so one process
// can serve an index whose snapshots it would not want to hold as a single
// file, and each shard is one LabelSource (labeling/label_source.h) over
// whatever its file carries, flat, sliced or compressed.
//
// Degraded mode: OpenManifest can optionally quarantine a shard that is
// missing or corrupt instead of failing the whole open. The engine then
// serves every query whose two label slices live in healthy shards
// bit-identically to the intact index (the 2-hop property again: a query
// touches exactly its endpoints' shards), while queries touching a
// quarantined range get a clean kShardUnavailable outcome — or, when a
// fallback graph is provided, an exact online ConstrainedDijkstraUnit
// answer at graph-search cost.

#ifndef WCSD_SERVE_QUERY_ENGINE_H_
#define WCSD_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/wc_index.h"
#include "labeling/label_source.h"
#include "labeling/snapshot.h"
#include "serve/batch_runner.h"
#include "serve/decode_cache.h"
#include "serve/result_cache.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace wcsd {

class QualityGraph;

struct QueryEngineOptions {
  /// Pool worker threads for batch evaluation. 0 = hardware concurrency;
  /// 1 = no pool, batches run on the calling thread. With a pool the
  /// calling thread drains chunks of its own batch too, so one batch
  /// computes on up to num_threads + 1 threads.
  size_t num_threads = 0;
  /// Smallest batch slice handed to one worker; bounds scheduling overhead
  /// on small batches.
  size_t min_chunk = 64;
  /// Byte budget for the dominance-aware result cache
  /// (serve/result_cache.h). 0 (the default) disables caching. When
  /// enabled, misses are answered by the interval-returning merge kernel —
  /// answers stay bit-identical — and the engine computes the index content
  /// fingerprint at construction to bind the cache to the snapshot's
  /// identity (one full pass over the label bytes, which faults an mmap'd
  /// snapshot in; only paid when caching, and skipped for a manifest, which
  /// records the fingerprint).
  size_t cache_bytes = 0;
  /// Externally owned cache shared across engine generations (the hot-swap
  /// serve path). When set the engine uses it instead of creating its own;
  /// lookups and inserts are bound to this engine's fingerprint (stale
  /// generations can neither read nor poison the shared cache), and the
  /// engine Rebinds unconditionally at open — a no-op when a swap
  /// coordinator already invalidated (Rebind or InvalidateDelta with this
  /// engine's fingerprint, before construction), a wholesale wipe when the
  /// cache is still bound to a different snapshot. cache_bytes is ignored
  /// when set.
  std::shared_ptr<ResultCache> shared_cache;
  /// Swap-coordinator hook: called with the engine's computed cache
  /// fingerprint after the cache is attached but BEFORE the engine's
  /// unconditional Rebind, while no queries flow through this engine yet.
  /// A scoped InvalidateDelta(fingerprint, ...) here rebinds the shared
  /// cache itself, making the engine's Rebind a no-op — surviving entries
  /// stay warm across the swap instead of being wholesale-wiped. Without
  /// the hook (or if it does not rebind), the Rebind wipes as usual.
  std::function<void(uint64_t fingerprint)> pre_bind_invalidate;
  /// Byte budget for the decoded-label cache (serve/decode_cache.h), used
  /// only when some shard serves compressed labels: hot vertices' Query+
  /// level slices (and, for the interval, top-k and profile readers, their
  /// whole decoded labels) stay resident so repeat queries skip the varint
  /// walk (and the cold-tier page-in). 0 (the default) streams compressed
  /// labels per query instead. Ignored when no shard is compressed.
  size_t decode_cache_bytes = 0;
  /// Graph backing constrained-path reconstruction (§V). Path endpoints
  /// need the graph even when the index carries parent quads: a mid-chain
  /// entry pruned during construction forces an index-guided neighbor
  /// step, which reads adjacency. Null (the default) makes PathEx report
  /// kNotSupported. Must describe the graph the index was built from.
  std::shared_ptr<const QualityGraph> graph;
};

/// Outcome of serving one request against a possibly-degraded engine.
enum class ServeOutcome : uint8_t {
  kOk = 0,
  /// The request needs a label slice from a quarantined shard; no result
  /// was produced. Retrying the same engine will not help until the shard
  /// is repaired.
  kShardUnavailable = 1,
  /// The service cannot serve this request family at all (path
  /// reconstruction without a configured graph); retrying never helps.
  kNotSupported = 2,
};

/// One shard's static contribution to the stitched index, for balance
/// reporting (wire Stats, CLI, benches). A quarantined shard reports its
/// planned range with zero mass: its labels never loaded.
struct ShardBalanceEntry {
  uint64_t vertex_begin = 0;
  uint64_t vertex_end = 0;
  uint64_t entry_count = 0;
  uint64_t label_bytes = 0;  // CSR bytes served from this shard's mapping
  bool quarantined = false;

  friend bool operator==(const ShardBalanceEntry&,
                         const ShardBalanceEntry&) = default;
};

/// Degraded-mode policy for OpenManifest.
struct DegradedOpenOptions {
  /// When true, a shard that fails to load (missing file, corrupt header,
  /// checksum mismatch, manifest cross-check failure) is quarantined
  /// instead of failing the open: the engine starts without its labels and
  /// refuses only the queries that need them. At least one shard must
  /// load, and the manifest itself must be intact.
  bool quarantine_failed_shards = false;
  /// Optional online fallback: when set, queries touching a quarantined
  /// shard are answered exactly (but slowly) by ConstrainedDijkstraUnit on
  /// this graph instead of refused. The graph must outlive the engine.
  const QualityGraph* fallback_graph = nullptr;
};

class QueryEngine {
 public:
  /// Serves `index` as the one-shard tiling; the index must not be mutated
  /// for the engine's lifetime. A non-finalized index is packed into flat
  /// labels for serving (answers are identical).
  explicit QueryEngine(std::shared_ptr<const WcIndex> index,
                       QueryEngineOptions options = {});

  /// Maps a full snapshot (WcIndex::LoadMmap) and serves it.
  static Result<QueryEngine> Open(const std::string& snapshot_path,
                                  QueryEngineOptions options = {},
                                  const SnapshotLoadOptions& load = {});

  /// Maps every shard snapshot and validates that together they tile the
  /// full vertex range of one logical index. Failure messages name the
  /// offending shard file and its (range-sorted) index.
  static Result<QueryEngine> OpenMmap(
      const std::vector<std::string>& shard_paths,
      QueryEngineOptions options = {}, const SnapshotLoadOptions& load = {});

  /// Opens a shard set through its manifest (labeling/shard_manifest.h):
  /// reads the manifest, validates its tiling, maps every referenced shard
  /// (paths resolved relative to the manifest), and cross-checks each
  /// file's header — vertex range, totals, entry counts, and the recorded
  /// snapshot header CRC — against the manifest. With `load.verify_checksums`
  /// additionally verifies every shard's section checksums and recomputes
  /// the index content fingerprint across the set. Every failure names the
  /// offending shard.
  static Result<QueryEngine> OpenManifest(
      const std::string& manifest_path, QueryEngineOptions options = {},
      const SnapshotLoadOptions& load = {},
      const DegradedOpenOptions& degraded = {});

  QueryEngine(QueryEngine&&) = default;
  QueryEngine& operator=(QueryEngine&&) = default;

  /// One query. Callable from any thread. In degraded mode, a query
  /// refused for a quarantined shard reports kInfDistance here — use
  /// QueryEx when the distinction matters.
  Distance Query(Vertex s, Vertex t, Quality w) const;

  /// Evaluates all queries across the engine's pool; results are
  /// positionally aligned with the inputs. Callable from any thread,
  /// including concurrently with other Batch calls on this engine.
  /// Degraded-mode refusals report kInfDistance; use BatchEx to detect
  /// them.
  std::vector<Distance> Batch(
      const std::vector<BatchQueryInput>& queries) const;

  /// Outcome-reporting query: like Query, but a degraded-mode refusal is
  /// reported as kShardUnavailable instead of folded into kInfDistance.
  ServeOutcome QueryEx(Vertex s, Vertex t, Quality w, Distance* out) const;

  /// Outcome-reporting batch. A batch touching any quarantined range (with
  /// no fallback configured) is refused whole with kShardUnavailable and
  /// `out` left empty: distances are plain u32s on the wire with no
  /// per-query error channel, and a partially-trustworthy batch is worse
  /// than a clean refusal the client can route around.
  ServeOutcome BatchEx(const std::vector<BatchQueryInput>& queries,
                       std::vector<Distance>* out) const;

  /// One-to-many top-k closest (core/batch.h TopKClosest semantics): the
  /// source's labels are scanned once, then each candidate costs one pass
  /// over its own labels. Counts candidates.size() queries in stats().
  /// Refused whole with kShardUnavailable when the source or ANY candidate
  /// lives in a quarantined shard — a ranking silently missing candidates
  /// is worse than a clean refusal — and the online Dijkstra fallback does
  /// not apply (it covers the distance endpoints only).
  ServeOutcome TopKEx(Vertex source, std::span<const Vertex> candidates,
                      Quality w, size_t k,
                      std::vector<RankedCandidate>* out) const;

  /// Quality profile for (s, t) at the given thresholds (core/batch.h
  /// QualityProfile semantics): one interval merge per distinct certified
  /// interval, not one per threshold; positionally aligned with the input.
  /// Refused with kShardUnavailable when either endpoint is quarantined.
  ServeOutcome ProfileEx(Vertex s, Vertex t,
                         std::span<const Quality> thresholds,
                         std::vector<ProfilePoint>* out) const;

  /// Constrained shortest path s -> t. Requires a graph
  /// (QueryEngineOptions::graph; kNotSupported without). An engine over a
  /// WcIndex unwinds its §V parent quads (core/path_index.h); a shard set
  /// carries none, so it steps greedily: each step probes the current
  /// vertex's neighbors for one whose remaining distance shrinks by one.
  /// Unwind fallbacks and greedy steps are aggregated into
  /// stats().path_fallbacks. Refused with kShardUnavailable when an
  /// endpoint — or every viable next hop of some step — is quarantined.
  /// Empty `out` with kOk = unreachable (or an endpoint out of range).
  ServeOutcome PathEx(Vertex s, Vertex t, Quality w,
                      std::vector<Vertex>* out) const;

  /// True when a path graph was configured (PathEx can serve).
  bool has_graph() const { return options_.graph != nullptr; }

  /// True when OpenManifest quarantined at least one shard.
  bool degraded() const { return num_quarantined_ > 0; }
  size_t num_quarantined() const { return num_quarantined_; }

  size_t NumVertices() const { return num_vertices_; }
  size_t num_shards() const { return shards_.size(); }
  size_t num_threads() const { return pool_ ? pool_->size() : 1; }
  QueryEngineStats stats() const;

  /// True when any shard's labels are stored compressed (a v3 snapshot;
  /// mixed shard sets are fine — each shard serves whatever its file
  /// carries).
  bool compressed() const { return num_compressed_ > 0; }

  /// The label forms served, for reports: "flat", "sliced" or
  /// "compressed" when every healthy shard agrees, else counts such as
  /// "1 flat, 2 sliced".
  std::string LabelForms() const;

  /// True for engines over a WcIndex (the constructor and Open); index()
  /// is only callable then.
  bool has_index() const { return index_ != nullptr; }
  const WcIndex& index() const { return *index_; }

  /// The result cache, or null when options.cache_bytes == 0.
  const ResultCache* cache() const { return cache_.get(); }

  /// The decoded-label cache, or null unless a compressed shard is served
  /// with options.decode_cache_bytes > 0. Shared across shards, keyed by
  /// (global vertex id, level).
  const DecodedLabelCache* decode_cache() const { return decode_cache_.get(); }

  /// The index content fingerprint when caching, 0 otherwise. The swap
  /// coordinator feeds this to Rebind/InvalidateDelta.
  uint64_t cache_fingerprint() const { return cache_fingerprint_; }

  /// Per-shard ranges and label mass, in tiling order — what the wire
  /// Stats frame reports as shard balance. Empty for an engine over a
  /// WcIndex, which has no shard files to balance.
  std::vector<ShardBalanceEntry> ShardBalance() const;

 private:
  struct Shard {
    uint64_t begin = 0;
    uint64_t end = 0;
    LabelSource labels;  // keeps its shard's mapping alive; empty when
                         // quarantined
    std::string path;    // where the mapping came from, for diagnostics
    bool quarantined = false;
  };

  QueryEngine() = default;

  /// Sorts `shards`, validates the tiling (messages name the offending
  /// shard), and starts the engine. `num_vertices` is the logical index's
  /// total from the shard headers.
  static Result<QueryEngine> Assemble(
      std::vector<Shard> shards, uint64_t num_vertices,
      QueryEngineOptions options,
      std::optional<uint64_t> known_fingerprint = std::nullopt);

  /// Shared tail of every construction path, over a validated tiling:
  /// routing table, pool, stats, decode cache, and the result-cache bind
  /// (known fingerprint → pre_bind_invalidate → Rebind).
  /// `known_fingerprint` spares the full-label-pass ContentFingerprint
  /// when the caller already holds the index identity (a manifest records
  /// it; its header CRC cross-checks prove the mapped files are the
  /// recorded ones).
  void Start(std::optional<uint64_t> known_fingerprint);

  /// The shard holding v (v < num_vertices_).
  const Shard& ShardOf(Vertex v) const;
  /// Label view of vertex v, routed to its shard's LabelSource::View (a
  /// decode, when there is one, goes through the decode cache if
  /// configured), so the view lives as long as the caller's scratch. Must
  /// not be called for a vertex in a quarantined shard (callers check
  /// Unavailable first).
  FlatLabelView ViewOf(Vertex v, DecodedLabel* scratch) const;
  /// True when v's labels live in a quarantined shard.
  bool Unavailable(Vertex v) const { return ShardOf(v).quarantined; }
  Distance QueryNoStats(Vertex s, Vertex t, Quality w) const;
  /// QueryEx without the per-query stats update (the batch path records
  /// per-chunk).
  ServeOutcome QueryExNoStats(Vertex s, Vertex t, Quality w,
                              Distance* out) const;

  /// The tiling-invariant content fingerprint of the served labels (a
  /// ContentCrcChain over the shards) — identical to
  /// IndexContentFingerprint of the unsharded flat labels and to a
  /// shard-set manifest's recorded fingerprint, however the range was cut
  /// and however each shard is stored. One pass over every shard's label
  /// bytes; only computed when the cache needs a snapshot identity to bind
  /// to.
  uint64_t ContentFingerprint() const;

  std::shared_ptr<const WcIndex> index_;  // null for shard sets
  std::vector<Shard> shards_;       // sorted by begin, tiling [0, n)
  std::vector<uint64_t> begins_;    // shards_[i].begin, for binary search
  uint64_t num_vertices_ = 0;
  size_t num_quarantined_ = 0;
  size_t num_compressed_ = 0;
  const QualityGraph* fallback_graph_ = nullptr;  // not owned; may be null
  QueryEngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads == 1
  std::unique_ptr<ServeStatsBlock> stats_;
  std::shared_ptr<ResultCache> cache_;  // null when caching is off
  std::shared_ptr<DecodedLabelCache> decode_cache_;  // null unless compressed
  uint64_t cache_fingerprint_ = 0;
};

}  // namespace wcsd

#endif  // WCSD_SERVE_QUERY_ENGINE_H_
