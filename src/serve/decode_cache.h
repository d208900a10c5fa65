// Decoded-label cache for cold-tier serving of compressed snapshots.
//
// A compressed snapshot keeps label bytes on disk: the varint blob is an
// mmap'd section that pages in on first decode (the cold tier), and every
// query pays a streaming decode of both endpoints. This cache bounds that
// cost for skewed workloads by keeping the hot vertices' DECODED labels
// resident under a fixed byte budget — a hit copies the decoded arrays
// into caller scratch instead of re-walking the varint stream (and, for a
// genuinely cold page, instead of faulting it back in).
//
// Layout: striped hash maps, each stripe its own mutex — the decode path
// is heavyweight enough that a short critical section per lookup is noise,
// unlike the result cache's lock-free hot path. The byte budget is a hard
// bound, resolved by eviction (a CLOCK sweep over the stripe), never by
// growth.
//
// Admission mirrors the result cache's second-chance-on-first-touch policy
// (serve/result_cache.h): a vertex whose insert would require evicting
// resident labels is refused on first touch and admitted only when it
// comes back while its tag survives — one-off vertices in the tail of a
// skewed workload die in the tag table instead of flushing the hot set.
// Inserts that fit without displacement are always admitted.
//
// The cache stores plain decoded bytes keyed by a caller-chosen id (the
// GLOBAL vertex id, so the engine shares one cache across its
// shards). It is bound to one index for its lifetime — engines create it
// per open and never share it across generations, so no fingerprint
// protocol is needed.

#ifndef WCSD_SERVE_DECODE_CACHE_H_
#define WCSD_SERVE_DECODE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "labeling/compressed_flat.h"
#include "util/types.h"

namespace wcsd {

/// Monotonic counters. hits + misses = lookups; cold_pageins counts the
/// misses whose decode walked EXTERNAL (mmap-backed) label bytes — the
/// decodes that can fault cold pages in from disk; admission_rejects
/// counts first-touch inserts refused by the second-chance policy.
struct DecodeCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t admission_rejects = 0;
  uint64_t cold_pageins = 0;

  friend bool operator==(const DecodeCacheStats&,
                         const DecodeCacheStats&) = default;
};

class DecodedLabelCache {
 public:
  /// Stripes (power of two); each holds budget_bytes / kStripes.
  static constexpr size_t kStripes = 16;
  /// Second-chance tag slots per stripe (power of two).
  static constexpr size_t kAdmissionTags = 64;

  /// Budgets ~`budget_bytes` of decoded label storage across the stripes.
  explicit DecodedLabelCache(size_t budget_bytes);

  DecodedLabelCache(const DecodedLabelCache&) = delete;
  DecodedLabelCache& operator=(const DecodedLabelCache&) = delete;

  /// Decodes L(local) of `labels` into `out` through the cache, keyed by
  /// `key` (the global vertex id). A hit copies the resident arrays; a
  /// miss decodes from the compressed stream and offers the result for
  /// admission. Returns false (with `out` cleared) when the underlying
  /// decode fails — corrupt bytes at a load tier that skipped deep
  /// validation; failed decodes are never cached.
  bool GetOrDecode(const CompressedFlatLabelSet& labels, Vertex local,
                   uint64_t key, DecodedLabel* out);

  DecodeCacheStats stats() const;

  size_t budget_bytes() const { return budget_bytes_; }

  /// Decoded bytes currently resident (sum over stripes; racy-but-sane
  /// under concurrent use).
  size_t MemoryBytes() const;

 private:
  struct Entry {
    DecodedLabel label;
    /// CLOCK reference bit: set on every hit, cleared by an eviction
    /// sweep; an entry is evicted only when swept twice without a hit.
    bool referenced = false;
  };

  /// Cache-line aligned so two stripes' mutexes never share a line.
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Entry> entries;
    /// Second-chance tags: keys seen once whose admission is pending.
    uint64_t admit_once[kAdmissionTags] = {};
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    uint64_t admission_rejects = 0;
    uint64_t cold_pageins = 0;
  };

  static size_t EntryBytes(const DecodedLabel& label);
  Stripe& StripeFor(uint64_t key) const;

  /// Heap-held array (mutexes are immovable); size kStripes.
  std::unique_ptr<Stripe[]> stripes_;
  size_t budget_bytes_ = 0;
  size_t stripe_budget_ = 0;
};

}  // namespace wcsd

#endif  // WCSD_SERVE_DECODE_CACHE_H_
