#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "bench.h"

namespace wcsd::perfbench {
namespace {

struct LocalState {
  Tracer* owner = nullptr;
  void* buffer = nullptr;
  std::vector<uint64_t> open;  // ScopedSpan ids, innermost last
};
thread_local LocalState tl_state;

}  // namespace

Tracer::Buffer* Tracer::Local() {
  if (tl_state.owner != this) {
    auto buffer = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> lock(mu_);
    buffer->slot = buffers_.size() + 1;
    tl_state.owner = this;
    tl_state.buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return static_cast<Buffer*>(tl_state.buffer);
}

uint64_t Tracer::NextId() {
  Buffer* b = Local();
  return (b->slot << 40) | ++b->next;
}

uint64_t Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                        uint64_t key, uint64_t request_id, uint64_t parent,
                        uint64_t id) {
  Buffer* b = Local();
  if (id == 0) id = (b->slot << 40) | ++b->next;
  b->spans.push_back({id, parent, name, start_ns, end_ns, key, request_id});
  return id;
}

uint64_t Tracer::CurrentParent() {
  return tl_state.open.empty() ? 0 : tl_state.open.back();
}

size_t Tracer::NumSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

std::vector<SpanTotals> Tracer::Summarize() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span*> all;
  for (auto& b : buffers_) {
    for (Span& s : b->spans) all.push_back(&s);
  }

  // Client request spans by key, in start order.
  std::unordered_map<uint64_t, std::vector<Span*>> clients;
  for (Span* s : all) {
    if (std::strcmp(s->name, kClientRequestSpan) == 0) {
      clients[s->key].push_back(s);
    }
  }
  for (auto& [key, list] : clients) {
    std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
      return a->start_ns < b->start_ns;
    });
  }
  // A keyed server span belongs to the latest-started client request of
  // its key whose interval contains it.
  for (Span* s : all) {
    if (s->parent != 0 || s->key == 0 ||
        std::strcmp(s->name, kClientRequestSpan) == 0) {
      continue;
    }
    auto it = clients.find(s->key);
    if (it == clients.end()) continue;
    const auto& list = it->second;
    auto pos = std::upper_bound(
        list.begin(), list.end(), s->start_ns,
        [](int64_t t, const Span* c) { return t < c->start_ns; });
    for (int steps = 0; pos != list.begin() && steps < 8; ++steps) {
      --pos;
      if ((*pos)->end_ns >= s->end_ns) {
        s->parent = (*pos)->id;
        break;
      }
    }
  }

  // Self time: duration minus the union of the children's intervals.
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span* s : all) {
    if (s->parent != 0) children[s->parent].push_back(s);
  }
  std::unordered_map<std::string, SpanTotals> totals;
  std::unordered_map<std::string, std::vector<double>> durations, selfs;
  for (const Span* s : all) {
    const double dur = static_cast<double>(s->end_ns - s->start_ns);
    double covered = 0;
    auto it = children.find(s->id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> iv;
      for (const Span* c : it->second) {
        iv.emplace_back(std::max(c->start_ns, s->start_ns),
                        std::min(c->end_ns, s->end_ns));
      }
      std::sort(iv.begin(), iv.end());
      int64_t lo = 0, hi = 0;
      bool open = false;
      for (const auto& [a, b] : iv) {
        if (b <= a) continue;
        if (!open || a > hi) {
          if (open) covered += static_cast<double>(hi - lo);
          lo = a;
          hi = b;
          open = true;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (open) covered += static_cast<double>(hi - lo);
    }
    SpanTotals& t = totals[s->name];
    t.name = s->name;
    ++t.count;
    t.total_us += dur / 1e3;
    t.self_us += (dur - covered) / 1e3;
    durations[t.name].push_back(dur / 1e3);
    if (it != children.end()) selfs[t.name].push_back((dur - covered) / 1e3);
  }
  std::vector<SpanTotals> out;
  for (auto& [name, t] : totals) {
    t.median_us = Quantile(&durations[name], 0.5);
    t.median_self_us_with_children = Quantile(&selfs[name], 0.5);
    out.push_back(t);
  }
  std::sort(out.begin(), out.end(),
            [](const SpanTotals& a, const SpanTotals& b) {
              return a.name < b.name;
            });
  return out;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,name,start_ns,end_ns,key,request_id\n");
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      std::fprintf(f, "%llu,%llu,%s,%lld,%lld,%llu,%llu\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.key),
                   static_cast<unsigned long long>(s.request_id));
    }
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      name_(name) {
  if (tracer_ == nullptr) return;
  parent_ = Tracer::CurrentParent();
  id_ = tracer_->NextId();
  tl_state.open.push_back(id_);
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  const int64_t end = NowNs();
  tl_state.open.pop_back();
  tracer_->Record(name_, start_ns_, end, 0, 0, parent_, id_);
}

}  // namespace wcsd::perfbench
