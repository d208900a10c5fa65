// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around calls into each
// layer (the library itself carries no tracing). Every thread appends to
// its own buffer; nothing is written until the run ends. Spans opened with
// ScopedSpan nest by thread; server-side spans, which run on reactor
// threads and cannot see the client's request, are linked to the client
// request span afterwards by a shared key and time containment.

#ifndef WCSD_PERFBENCH_TRACE_H_
#define WCSD_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wcsd::perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root (or not linked)
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t key = 0;         // links client and server spans of one frame
  uint64_t request_id = 0;  // where the client side knows it
};

/// Span name of one client request; server spans link to these.
inline constexpr const char* kClientRequestSpan = "net.client.request";

/// Per-name totals of a trace: durations and self time (duration minus
/// the part covered by child spans). Medians resist the few spans that
/// waited out a hot swap.
struct SpanTotals {
  std::string name;
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
  double median_us = 0;
  double median_self_us_with_children = 0;  // over spans that had children
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// A fresh span id, unique across threads.
  uint64_t NextId();

  /// Records a finished span; `id` 0 allocates one. Returns the id.
  uint64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                  uint64_t key = 0, uint64_t request_id = 0,
                  uint64_t parent = 0, uint64_t id = 0);

  /// Innermost ScopedSpan open on this thread, 0 if none.
  static uint64_t CurrentParent();

  /// Links unparented keyed spans (the server side of a frame) to the
  /// client request span with the same key that contains them, then
  /// totals every span name.
  std::vector<SpanTotals> Summarize();

  /// Writes every span as CSV (id,parent,name,start_ns,end_ns,key,
  /// request_id). Returns false on an IO error.
  bool WriteCsv(const std::string& path) const;

  size_t NumSpans() const;

 private:
  friend class ScopedSpan;
  struct Buffer {
    uint64_t slot = 0;
    uint64_t next = 0;
    std::deque<Span> spans;  // grows without copying (no stalls)
  };
  Buffer* Local();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards buffers_ (the list, not the contents)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Records the span of its own lifetime when the tracer is enabled, as a
/// child of the innermost ScopedSpan open on this thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_ = 0;
};

}  // namespace wcsd::perfbench

#endif  // WCSD_PERFBENCH_TRACE_H_
