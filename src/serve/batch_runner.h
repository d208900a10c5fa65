// Serving scaffold: the per-worker stats slots and the batch body the
// engine (serve/query_engine.h) runs on, fanned out over a ThreadPool by
// RunChunked (util/thread_pool.h).

#ifndef WCSD_SERVE_BATCH_RUNNER_H_
#define WCSD_SERVE_BATCH_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace wcsd {

/// Monotonic serving counters, aggregated across workers on read. The
/// cache_* counters come from the engine's result cache (serve/
/// result_cache.h) and stay zero when caching is off.
struct QueryEngineStats {
  uint64_t queries = 0;
  uint64_t reachable = 0;
  uint64_t batches = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_inserts = 0;
  uint64_t cache_evictions = 0;
  /// Queries refused because their labels live in a quarantined shard
  /// (degraded-mode sharded serving); always 0 for healthy engines.
  uint64_t shard_unavailable = 0;
  /// Hot-swap generation currently serving (net/swap_service.h), starting
  /// at 1 and bumped on every swap; 0 for a non-swappable service.
  uint64_t generation = 0;
  /// 1 when the served index carries §V parent quads (path reconstruction
  /// runs on the fast unwind), 0 otherwise — e.g. an index built without
  /// record_parents or mmap-loaded from a v1 snapshot that predates the
  /// parents section. Surfaced on the wire so the degraded parent-less
  /// mode is explicit, not silent.
  uint64_t has_parents = 0;
  /// Path-reconstruction unwind steps resolved through the index-guided
  /// neighbor fallback instead of a recorded parent quad. A steadily
  /// climbing value on a parent-less index is the degraded mode's
  /// signature (each fallback step costs one index query per neighbor).
  uint64_t path_fallbacks = 0;
  /// 1 when the engine serves the compressed label backend (a v3
  /// compressed snapshot, or any compressed shard in a sharded set), 0 on
  /// the flat backend.
  uint64_t compressed = 0;
  /// Decoded-label cache counters (serve/decode_cache.h); zero when no
  /// decode cache is configured. cold_pageins counts cache misses whose
  /// decode walked mmap-backed label bytes — the reads that can fault
  /// cold-tier pages in from disk.
  uint64_t decode_hits = 0;
  uint64_t decode_misses = 0;
  uint64_t cold_pageins = 0;
  /// Bytes of the label backend actually resident/served (compressed
  /// bytes on the compressed backend) vs. what the same labels cost flat.
  /// uncompressed_label_bytes / label_bytes is the compression ratio; the
  /// two are equal on the flat backend.
  uint64_t label_bytes = 0;
  uint64_t uncompressed_label_bytes = 0;
};

/// 0 = hardware concurrency (min 1).
inline size_t ResolveServeThreads(size_t num_threads) {
  if (num_threads != 0) return num_threads;
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Per-worker counter slot, cache-line padded so workers never share a
/// line. Relaxed atomics: single queries may come from arbitrary caller
/// threads, and stats() may race a batch in flight.
struct alignas(64) ServeWorkerSlot {
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> reachable{0};
};

/// The stats state an engine heap-holds (atomics are unmovable; the engine
/// stays movable by owning this through a unique_ptr).
struct ServeStatsBlock {
  explicit ServeStatsBlock(size_t num_workers) : slots(num_workers) {}

  /// Records one direct (non-batch) query.
  void RecordSingle(Distance d) {
    slots[0].queries.fetch_add(1, std::memory_order_relaxed);
    if (d != kInfDistance) {
      slots[0].reachable.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Records queries refused in degraded mode (quarantined shard).
  void RecordUnavailable(uint64_t count) {
    shard_unavailable.fetch_add(count, std::memory_order_relaxed);
  }

  /// Records `count` evaluated sub-queries of which `reachable_count`
  /// answered finite (the top-k / profile endpoints evaluate many
  /// per-frame).
  void RecordMany(uint64_t count, uint64_t reachable_count) {
    slots[0].queries.fetch_add(count, std::memory_order_relaxed);
    slots[0].reachable.fetch_add(reachable_count, std::memory_order_relaxed);
  }

  /// Records path-unwind steps served through the graph fallback.
  void RecordPathFallbacks(uint64_t count) {
    if (count != 0) {
      path_fallbacks.fetch_add(count, std::memory_order_relaxed);
    }
  }

  QueryEngineStats Aggregate() const {
    QueryEngineStats total;
    for (const ServeWorkerSlot& slot : slots) {
      total.queries += slot.queries.load(std::memory_order_relaxed);
      total.reachable += slot.reachable.load(std::memory_order_relaxed);
    }
    total.batches = batches.load(std::memory_order_relaxed);
    total.shard_unavailable =
        shard_unavailable.load(std::memory_order_relaxed);
    total.path_fallbacks = path_fallbacks.load(std::memory_order_relaxed);
    return total;
  }

  std::vector<ServeWorkerSlot> slots;
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> shard_unavailable{0};
  std::atomic<uint64_t> path_fallbacks{0};
};

/// The engine's batch body: evaluate `fn(query)` for every input across
/// the pool in contiguous chunks, accumulating per-thread scratch counters
/// locally and publishing once per chunk. Results are positionally aligned
/// with the inputs.
template <typename QueryFn>
std::vector<Distance> RunServeBatch(ThreadPool* pool, size_t num_threads,
                                    size_t min_chunk, ServeStatsBlock& stats,
                                    const std::vector<BatchQueryInput>& queries,
                                    const QueryFn& fn) {
  std::vector<Distance> results(queries.size(), kInfDistance);
  stats.batches.fetch_add(1, std::memory_order_relaxed);
  // ~4 chunks per worker so stragglers rebalance, but never slices smaller
  // than min_chunk.
  const size_t target = std::max<size_t>(1, num_threads * 4);
  const size_t chunk =
      std::max(min_chunk, (queries.size() + target - 1) / target);
  RunChunked(pool, queries.size(), chunk,
             [&](size_t begin, size_t end, size_t worker) {
               uint64_t reachable = 0;
               for (size_t i = begin; i < end; ++i) {
                 results[i] = fn(queries[i]);
                 if (results[i] != kInfDistance) ++reachable;
               }
               ServeWorkerSlot& slot = stats.slots[worker];
               slot.queries.fetch_add(end - begin,
                                      std::memory_order_relaxed);
               slot.reachable.fetch_add(reachable,
                                        std::memory_order_relaxed);
             });
  return results;
}

}  // namespace wcsd

#endif  // WCSD_SERVE_BATCH_RUNNER_H_
