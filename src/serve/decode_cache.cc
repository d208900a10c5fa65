#include "serve/decode_cache.h"

#include <algorithm>
#include <type_traits>

namespace wcsd {

namespace {

// splitmix64: the keys are dense vertex ids over small levels, so they
// need real mixing before the high bits pick a stripe.
uint64_t MixKey(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t KeyOf(Vertex vertex, uint64_t level) {
  return uint64_t{vertex} << 32 | level;
}

size_t PayloadBytes(const DecodedLabel& label) {
  return label.entries.size() * sizeof(LabelEntry) +
         label.groups.size() * sizeof(HubGroup);
}
size_t PayloadBytes(const std::vector<SlicePair>& slice) {
  return slice.size() * sizeof(SlicePair);
}

// A flat charge per entry for the map node and Entry bookkeeping, so
// budgets stay honest on tiny labels.
constexpr size_t kEntryOverhead = 96;

}  // namespace

DecodedLabelCache::DecodedLabelCache(size_t budget_bytes)
    : stripes_(std::make_unique<Stripe[]>(kStripes)),
      budget_bytes_(budget_bytes),
      stripe_budget_(std::max<size_t>(1, budget_bytes / kStripes)) {}

size_t DecodedLabelCache::EntryBytes(const Entry& entry) {
  return PayloadBytes(entry.label) + PayloadBytes(entry.slice) +
         kEntryOverhead;
}

DecodedLabelCache::Stripe& DecodedLabelCache::StripeFor(uint64_t key) const {
  return stripes_[(MixKey(key) >> 48) & (kStripes - 1)];
}

template <typename Value, typename Fill>
bool DecodedLabelCache::GetOrFill(const CompressedFlatLabelSet& labels,
                                  uint64_t key, Value* out, Fill&& fill) {
  // The Entry part holding this value kind.
  auto part = [](Entry& entry) -> Value& {
    if constexpr (std::is_same_v<Value, DecodedLabel>) {
      return entry.label;
    } else {
      return entry.slice;
    }
  };
  Stripe& stripe = StripeFor(key);
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.entries.find(key);
    if (it != stripe.entries.end()) {
      it->second.referenced = true;
      // Copy-out under the lock; vector assignment reuses the caller's
      // scratch capacity, so a steady-state hit allocates nothing.
      *out = part(it->second);
      ++stripe.hits;
      return true;
    }
    ++stripe.misses;
    if (labels.external()) ++stripe.cold_pageins;
  }

  // Decode outside the lock — it may fault mmap'd pages in from disk, and
  // a page-in under a stripe mutex would serialize every cold vertex that
  // hashes alongside it.
  if (!fill(out)) {
    *out = Value();
    return false;
  }

  const size_t cost = PayloadBytes(*out) + kEntryOverhead;
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (stripe.entries.find(key) != stripe.entries.end()) {
    return true;  // a racing decode of the same key already landed
  }
  if (!Admit(stripe, key, cost)) return true;
  part(stripe.entries[key]) = *out;
  stripe.bytes += cost;
  ++stripe.inserts;
  return true;
}

bool DecodedLabelCache::Admit(Stripe& stripe, uint64_t key, size_t cost) {
  if (cost > stripe_budget_) return false;  // larger than the whole stripe
  if (stripe.bytes + cost <= stripe_budget_) return true;
  // Displacement required: second-chance admission. First touch parks the
  // key in its tag slot and is refused; a comeback while the tag survives
  // is admitted.
  uint64_t& tag = stripe.admit_once[MixKey(key) & (kAdmissionTags - 1)];
  if (tag != key) {
    tag = key;
    ++stripe.admission_rejects;
    return false;
  }
  tag = 0;
  // CLOCK sweep: clear reference bits until enough unreferenced entries
  // have been evicted. Two passes bound the sweep (after one full pass
  // every bit is clear).
  for (int pass = 0; pass < 2 && stripe.bytes + cost > stripe_budget_;
       ++pass) {
    for (auto it = stripe.entries.begin();
         it != stripe.entries.end() && stripe.bytes + cost > stripe_budget_;) {
      if (it->second.referenced) {
        it->second.referenced = false;
        ++it;
        continue;
      }
      stripe.bytes -= EntryBytes(it->second);
      it = stripe.entries.erase(it);
      ++stripe.evictions;
    }
  }
  return stripe.bytes + cost <= stripe_budget_;
}

bool DecodedLabelCache::GetOrDecode(const CompressedFlatLabelSet& labels,
                                    Vertex local, Vertex vertex,
                                    DecodedLabel* out) {
  return GetOrFill(labels, KeyOf(vertex, kWholeLabel), out,
                   [&](DecodedLabel* label) {
                     return labels.DecodeVertex(local, label).ok();
                   });
}

bool DecodedLabelCache::GetOrProject(const CompressedFlatLabelSet& labels,
                                     Vertex local, Vertex vertex, size_t level,
                                     std::vector<SlicePair>* out) {
  return GetOrFill(labels, KeyOf(vertex, level), out,
                   [&](std::vector<SlicePair>* slice) {
                     thread_local DecodedLabel scratch;
                     if (!labels.DecodeVertex(local, &scratch).ok()) {
                       return false;
                     }
                     ProjectSlice(scratch.View(), labels.LevelQuality(level),
                                  slice);
                     return true;
                   });
}

DecodeCacheStats DecodedLabelCache::stats() const {
  DecodeCacheStats total;
  for (size_t i = 0; i < kStripes; ++i) {
    const Stripe& stripe = stripes_[i];
    std::lock_guard<std::mutex> lock(stripe.mu);
    total.hits += stripe.hits;
    total.misses += stripe.misses;
    total.inserts += stripe.inserts;
    total.evictions += stripe.evictions;
    total.admission_rejects += stripe.admission_rejects;
    total.cold_pageins += stripe.cold_pageins;
  }
  return total;
}

size_t DecodedLabelCache::MemoryBytes() const {
  size_t total = 0;
  for (size_t i = 0; i < kStripes; ++i) {
    const Stripe& stripe = stripes_[i];
    std::lock_guard<std::mutex> lock(stripe.mu);
    total += stripe.bytes;
  }
  return total;
}

}  // namespace wcsd
