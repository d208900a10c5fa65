// Decoded-label cache for cold-tier serving of compressed snapshots.
//
// A compressed snapshot keeps label bytes on disk: the varint blob is an
// mmap'd section that pages in on first decode (the cold tier), and every
// query pays a streaming decode of both endpoints. This cache bounds that
// cost for skewed workloads by keeping the hot vertices' decoded labels
// resident under a fixed byte budget — a hit copies resident arrays into
// caller scratch instead of re-walking the varint stream (and, for a
// genuinely cold page, instead of faulting it back in).
//
// Entries. An entry is keyed by (GLOBAL vertex id, level), so the engine
// shares one cache across its shards, packed as vertex << 32 | level:
//   * level < kWholeLabel — a Query+ level slice (labeling/sliced_labels.h)
//     of a compressed vertex: per hub group the first entry whose quality
//     reaches the level's quality (level k of the vertex's shard set is
//     its dictionary's k-th quality, the top level +inf). By Theorem 3
//     that is all a constraint served by the level reads, so Query+
//     answers with a plain two-array merge over two slices. A slice costs
//     8 bytes per reaching hub group against 12 per entry plus 8 per group
//     for the whole label, so more of the hot set stays resident;
//   * level == kWholeLabel (reserved) — the whole decoded label (entries
//     and hub directory), for the readers that need every entry: the
//     result cache's interval merge, top-k and profile.
// The two kinds never alias and share one budget, one admission policy
// and one eviction sweep. A miss decodes with the bounds-checked
// CompressedFlatLabelSet::DecodeVertex (a slice miss into thread-local
// scratch, then projects one level); a failed decode is never cached.
//
// Layout: striped hash maps, each stripe its own mutex — a decode is
// heavyweight enough that a short critical section per lookup is noise,
// unlike the result cache's lock-free hot path. The byte budget is a hard
// bound, resolved by eviction (a CLOCK sweep over the stripe), never by
// growth.
//
// Admission mirrors the result cache's second-chance-on-first-touch policy
// (serve/result_cache.h): a key whose insert would require evicting
// resident entries is refused on first touch and admitted only when it
// comes back while its tag survives — one-off keys in the tail of a
// skewed workload die in the tag table instead of flushing the hot set.
// Inserts that fit without displacement are always admitted.
//
// The cache is bound to one index for its lifetime — engines create it
// per open and never share it across generations, so no fingerprint
// protocol is needed.

#ifndef WCSD_SERVE_DECODE_CACHE_H_
#define WCSD_SERVE_DECODE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "labeling/compressed_flat.h"
#include "labeling/sliced_labels.h"
#include "util/types.h"

namespace wcsd {

/// Monotonic counters over slice and whole-label lookups alike. hits +
/// misses = lookups; cold_pageins counts the misses whose decode walked
/// EXTERNAL (mmap-backed) label bytes — the decodes that can fault cold
/// pages in from disk; admission_rejects counts first-touch inserts
/// refused by the second-chance policy.
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
  /// The level whole decoded labels are filed under; slice levels are
  /// below it.
  static constexpr uint32_t kWholeLabel = 0xFFFFFFFFu;

  /// Budgets ~`budget_bytes` of decoded label storage across the stripes.
  explicit DecodedLabelCache(size_t budget_bytes);

  DecodedLabelCache(const DecodedLabelCache&) = delete;
  DecodedLabelCache& operator=(const DecodedLabelCache&) = delete;

  /// Decodes L(local) of `labels` into `out` through the cache, filed
  /// under (`vertex`, kWholeLabel) — `vertex` is the global id. A hit
  /// copies the resident arrays; a miss decodes from the compressed stream
  /// and offers the result for admission. Returns false (with `out`
  /// cleared) when the decode fails — corrupt bytes at a load tier that
  /// skipped deep validation.
  bool GetOrDecode(const CompressedFlatLabelSet& labels, Vertex local,
                   Vertex vertex, DecodedLabel* out);

  /// The slice of L(local) at `level` (< labels.NumLevels(): hub-sorted,
  /// per hub group the first entry with quality >= LevelQuality(level))
  /// into `out` through the cache, filed under (`vertex`, `level`). A hit
  /// copies the resident slice; a miss decodes into thread-local scratch,
  /// projects the level and offers it for admission. False (with `out`
  /// cleared) when the decode fails.
  bool GetOrProject(const CompressedFlatLabelSet& labels, Vertex local,
                    Vertex vertex, size_t level, std::vector<SlicePair>* out);

  DecodeCacheStats stats() const;

  size_t budget_bytes() const { return budget_bytes_; }

  /// Decoded bytes currently resident (sum over stripes; racy-but-sane
  /// under concurrent use).
  size_t MemoryBytes() const;

 private:
  /// One resident value: a whole label or a slice, the other part empty.
  struct Entry {
    DecodedLabel label;
    std::vector<SlicePair> slice;
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

  static size_t EntryBytes(const Entry& entry);
  Stripe& StripeFor(uint64_t key) const;

  /// The lookup both kinds share: a hit copies the entry's `Value` part
  /// into `out`; a miss runs `fill(out)` outside the stripe lock (false:
  /// the decode failed, `out` is cleared and nothing is cached) and offers
  /// the value for admission.
  template <typename Value, typename Fill>
  bool GetOrFill(const CompressedFlatLabelSet& labels, uint64_t key,
                 Value* out, Fill&& fill);

  /// Second-chance admission, then a CLOCK sweep making room for `cost`
  /// bytes; true when the key may be inserted. Stripe lock held.
  bool Admit(Stripe& stripe, uint64_t key, size_t cost);

  /// Heap-held array (mutexes are immovable); size kStripes.
  std::unique_ptr<Stripe[]> stripes_;
  size_t budget_bytes_ = 0;
  size_t stripe_budget_ = 0;
};

}  // namespace wcsd

#endif  // WCSD_SERVE_DECODE_CACHE_H_
