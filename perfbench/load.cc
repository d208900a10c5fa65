// Load generators: the closed loop (synchronous WcClient batch callers) and
// the open loop (one generator thread on non-blocking sockets that sends
// single-query frames on a schedule and times each request from when it
// was due).

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench.h"
#include "net/client.h"
#include "net/wire.h"

namespace wcsd::perfbench {

LoadReport RunClosedLoop(const WorkloadSpec& spec, Served* served,
                         const std::vector<BatchQueryInput>& queries,
                         const Oracle& oracle, double seconds,
                         const Injection& inject, Tracer* tracer) {
  const size_t per_frame = spec.frame_queries;
  const size_t num_frames = queries.size() / per_frame;
  std::vector<std::vector<BatchQueryInput>> frames(num_frames);
  for (size_t f = 0; f < num_frames; ++f) {
    frames[f].assign(queries.begin() + f * per_frame,
                     queries.begin() + (f + 1) * per_frame);
  }
  const std::vector<Distance>& expected = oracle.expected[0];
  const uint16_t port = served->server->port();

  struct ConnResult {
    uint64_t attempted = 0, answered = 0, errors = 0, wrong = 0;
    int64_t last_ns = 0;
    std::vector<LatencySample> latency;
  };
  std::vector<ConnResult> results(spec.conns);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec.conns; ++c) {
    threads.emplace_back([&, c] {
      PinThread(CpuSide::kClient);
      ConnResult& r = results[c];
      r.latency.reserve(1 << 16);
      auto client = WcClient::Connect("127.0.0.1", port, 10000);
      if (!client.ok()) {
        ++r.attempted;
        ++r.errors;
        return;
      }
      bool inject_wrong = inject.wrong_answer && c == 0;
      bool inject_refused = inject.refused && c == 0;
      size_t k = c * num_frames / spec.conns;
      while (NowNs() < end) {
        if (inject_refused) {
          // One frame over the server's batch admission limit: refused.
          inject_refused = false;
          std::vector<BatchQueryInput> oversized = frames[0];
          oversized.push_back(frames[0][0]);
          ++r.attempted;
          if (!client.value().Batch(oversized).ok()) ++r.errors;
          continue;
        }
        const size_t f = k++ % num_frames;
        const int64_t t0 = NowNs();
        auto reply = client.value().Batch(frames[f]);
        const int64_t t1 = NowNs();
        ++r.attempted;
        if (!reply.ok()) {
          ++r.errors;
          continue;
        }
        std::vector<Distance> answers = std::move(reply).value();
        if (inject_wrong) {
          answers[0] ^= 1;
          inject_wrong = false;
        }
        if (!std::equal(answers.begin(), answers.end(),
                        expected.begin() + f * per_frame)) {
          ++r.wrong;
          continue;
        }
        ++r.answered;
        r.last_ns = t1;
        r.latency.push_back({t0, static_cast<double>(t1 - t0) / 1e3});
        if (tracer->enabled()) {
          const BatchQueryInput& q = frames[f].front();
          tracer->Record(kClientRequestSpan, t0, t1,
                         FrameKey(q.s, q.t, q.w, per_frame), (c << 32) | k);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  LoadReport report;
  int64_t last = start;
  for (ConnResult& r : results) {
    report.attempted += r.attempted;
    report.answered += r.answered;
    report.errors += r.errors;
    report.wrong += r.wrong;
    last = std::max(last, r.last_ns);
    report.latency.insert(report.latency.end(), r.latency.begin(),
                          r.latency.end());
  }
  report.queries = report.answered * per_frame;
  report.seconds = static_cast<double>(last - start) / 1e9;
  report.backlog_max = spec.conns;  // one frame in flight per client
  return report;
}

namespace {

/// Connects a non-blocking, no-delay TCP socket to the loopback server.
int ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Connects `n` sockets so that each lands on a different reactor (the
/// kernel spreads SO_REUSEPORT accepts by hash, so two connections can
/// otherwise share one reactor and leave the other idle). Returns the fds;
/// empty on failure.
std::vector<int> ConnectSpread(const WcServer& server, size_t n) {
  std::vector<int> fds;
  std::vector<bool> used(server.num_reactors(), false);
  for (int attempt = 0; fds.size() < n && attempt < 256; ++attempt) {
    std::vector<WcReactorStats> before = server.reactor_stats();
    int fd = ConnectLoopback(server.port());
    if (fd < 0) break;
    int landed = -1;
    for (int spin = 0; spin < 2000 && landed < 0; ++spin) {
      std::vector<WcReactorStats> now = server.reactor_stats();
      for (size_t r = 0; r < now.size(); ++r) {
        if (now[r].connections_accepted > before[r].connections_accepted) {
          landed = static_cast<int>(r);
        }
      }
      if (landed < 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    const bool spread = n <= used.size();
    if (landed >= 0 && (!spread || !used[landed])) {
      used[landed] = true;
      fds.push_back(fd);
    } else {
      ::close(fd);
    }
  }
  if (fds.size() < n) {
    for (int fd : fds) ::close(fd);
    fds.clear();
  }
  return fds;
}

struct Request {
  int64_t sched = 0;
  int64_t send = 0;
  int64_t recv = 0;
  Distance answer = 0;
  uint32_t gen_send = 0;
  uint32_t gen_recv = 0;
  uint8_t state = 0;  // 0 unsent, 1 in flight, 2 answered, 3 error frame
};

struct StepStats {
  double rate = 0;
  size_t sent = 0;
  size_t ok = 0;
  double p50_us = 0, p99_us = 0, lag_p99_us = 0;
  uint64_t backlog_max = 0;
  bool meets_slo = false;
};

}  // namespace

OpenShape MakeOpenShape(const WorkloadSpec& spec, double seconds,
                        bool ladder) {
  OpenShape shape;
  if (!spec.open_loop) return shape;
  shape.ladder = ladder && !spec.ladder.empty();
  const double rate_s = shape.ladder ? seconds * spec.reference_share : seconds;
  shape.swap_s = rate_s * spec.swap_share;
  shape.reference_s = rate_s - shape.swap_s;
  shape.step_s = shape.ladder ? (seconds - rate_s) / spec.ladder.size() : 0;
  shape.swaps = std::max<size_t>(
      1, static_cast<size_t>(shape.swap_s / spec.swap_period_s));
  shape.reference_queries =
      static_cast<size_t>(spec.reference_rate * shape.reference_s);
  shape.swap_queries = static_cast<size_t>(spec.reference_rate * shape.swap_s);
  shape.total_queries = shape.reference_queries + shape.swap_queries;
  if (shape.ladder) {
    for (double rate : spec.ladder) {
      shape.total_queries += static_cast<size_t>(rate * shape.step_s);
    }
  }
  return shape;
}

LoadReport RunOpenLoop(const WorkloadSpec& spec, Served* served,
                       const std::vector<BatchQueryInput>& queries,
                       const Oracle& oracle, const OpenShape& shape,
                       size_t first_gen, const Injection& inject,
                       Tracer* tracer) {
  LoadReport report;
  PinThread(CpuSide::kClient);  // the generator runs on this thread
  std::vector<int> fds = ConnectSpread(*served->server, spec.conns);
  if (fds.empty()) {
    report.attempted = report.errors = 1;
    report.notes.push_back("could not connect one socket per reactor");
    return report;
  }
  const size_t conns = fds.size();
  std::vector<std::vector<uint8_t>> out(conns), in(conns);
  std::vector<size_t> out_sent(conns, 0);
  std::vector<Request> reqs(queries.size());
  SwappableQueryService& swappable = *served->swappable;
  uint64_t outstanding = 0;
  const uint64_t injected_id = queries.size() + 1;
  bool injected_pending = false;
  std::vector<uint8_t> chunk(1 << 16);

  auto flush = [&] {
    for (size_t c = 0; c < conns; ++c) {
      while (out_sent[c] < out[c].size()) {
        ssize_t n = ::send(fds[c], out[c].data() + out_sent[c],
                           out[c].size() - out_sent[c],
                           MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n <= 0) break;
        out_sent[c] += static_cast<size_t>(n);
      }
      if (out_sent[c] == out[c].size()) {
        out[c].clear();
        out_sent[c] = 0;
      }
    }
  };
  auto drain = [&] {
    for (size_t c = 0; c < conns; ++c) {
      for (;;) {
        ssize_t n = ::recv(fds[c], chunk.data(), chunk.size(), MSG_DONTWAIT);
        if (n <= 0) break;
        in[c].insert(in[c].end(), chunk.begin(), chunk.begin() + n);
      }
      if (in[c].empty()) continue;
      const int64_t now = NowNs();
      const uint32_t gen = static_cast<uint32_t>(swappable.generation());
      size_t off = 0;
      for (;;) {
        net::WireHeader header;
        const uint8_t* payload = nullptr;
        net::FrameStatus st =
            net::ParseFrame(in[c].data() + off, in[c].size() - off,
                            net::kMaxPayloadBytes, &header, &payload);
        if (st != net::FrameStatus::kOk) break;
        off += sizeof(net::WireHeader) + header.payload_bytes;
        if (header.request_id == injected_id) {
          injected_pending = false;
          ++report.errors;
          continue;
        }
        if (header.request_id == 0 || header.request_id > reqs.size()) {
          ++report.errors;
          continue;
        }
        Request& r = reqs[header.request_id - 1];
        if (r.state != 1) continue;
        --outstanding;
        r.recv = now;
        r.gen_recv = gen;
        if (header.type == static_cast<uint8_t>(net::MsgType::kQueryReply) &&
            header.status == 0 &&
            header.payload_bytes == sizeof(net::QueryReplyPayload)) {
          std::memcpy(&r.answer, payload, sizeof(r.answer));
          r.state = 2;
        } else {
          r.state = 3;
        }
        if (tracer->enabled()) {
          const BatchQueryInput& q = queries[header.request_id - 1];
          tracer->Record(kClientRequestSpan, r.send, now,
                         FrameKey(q.s, q.t, q.w, 1), header.request_id);
        }
      }
      in[c].erase(in[c].begin(), in[c].begin() + off);
    }
  };

  // Runs one step: `n` requests from `base` at `rate`, starting at t0.
  auto run_step = [&](double rate, size_t base, size_t n, int64_t t0,
                      bool reference) {
    const double interval = 1e9 / rate;
    size_t next = 0;
    uint64_t backlog_max = 0;
    uint64_t backlog_at_last_send = 0;
    bool stalled = false;
    if (reference && inject.refused) {
      // A malformed query frame (short payload): refused with an error.
      uint8_t junk[8] = {};
      net::AppendFrame(&out[0], net::MsgType::kQuery, net::WireError::kOk,
                       injected_id, junk, sizeof(junk));
      ++report.attempted;
      injected_pending = true;
    }
    const int64_t end = t0 + static_cast<int64_t>(n * interval);
    const int64_t give_up = end + 2'000'000'000;
    for (;;) {
      int64_t now = NowNs();
      while (next < n) {
        const int64_t sched = t0 + static_cast<int64_t>(next * interval);
        if (sched > now) break;
        const size_t i = base + next;
        Request& r = reqs[i];
        r.sched = sched;
        r.send = now;
        r.gen_send = static_cast<uint32_t>(swappable.generation());
        r.state = 1;
        net::AppendQueryRequest(&out[i % conns], i + 1, queries[i].s,
                                queries[i].t, queries[i].w);
        ++next;
        ++outstanding;
        ++report.attempted;
        if (next == n) backlog_at_last_send = outstanding;
      }
      backlog_max = std::max(backlog_max, outstanding);
      flush();
      if (reference && inject.stall_ms > 0 && !stalled && next >= n / 4) {
        stalled = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(inject.stall_ms));
      }
      drain();
      now = NowNs();
      if (next == n && outstanding == 0 && !injected_pending) break;
      if (now > give_up) break;
      if (next == n) {
        // All sent: sleep until replies arrive. While sending, the loop
        // spins on the non-blocking sockets instead, so a reply is timed
        // when it arrives, not when a sleeping generator wakes up.
        std::vector<pollfd> pfds(conns);
        for (size_t c = 0; c < conns; ++c) pfds[c] = {fds[c], POLLIN, 0};
        ::poll(pfds.data(), conns, 1);
      }
    }
    StepStats s;
    s.rate = rate;
    s.sent = next;
    s.backlog_max = backlog_max;
    std::vector<double> lat, lag;
    for (size_t i = base; i < base + next; ++i) {
      lag.push_back(static_cast<double>(reqs[i].send - reqs[i].sched) / 1e3);
      if (reqs[i].state == 2) {
        ++s.ok;
        lat.push_back(static_cast<double>(reqs[i].recv - reqs[i].sched) / 1e3);
      }
    }
    s.p50_us = Quantile(&lat, 0.5);
    s.p99_us = Quantile(&lat, 0.99);
    s.lag_p99_us = Quantile(&lag, 0.99);
    // Meets the limit with no growing backlog: every request answered,
    // p99 and generator lateness within the limit, and no more than the
    // limit's worth of requests still in flight when the last one is sent.
    const double slo_s = spec.slo_p99_us / 1e6;
    s.meets_slo =
        s.ok == n && s.p99_us <= spec.slo_p99_us &&
        s.lag_p99_us <= spec.slo_p99_us &&
        static_cast<double>(backlog_at_last_send) <= rate * slo_s + 16;
    return s;
  };

  // Reference step: steady serving, no swaps (p50_us, p99_us, qps).
  char line[256];
  size_t base = 0;
  const int64_t ref_t0 = NowNs() + 1'000'000;
  const StepStats ref = run_step(spec.reference_rate, base,
                                 shape.reference_queries, ref_t0, true);
  report.gen_lag_p99_us = ref.lag_p99_us;
  report.backlog_max = ref.backlog_max;
  int64_t ref_last = ref_t0;
  for (size_t i = base; i < base + shape.reference_queries; ++i) {
    const Request& r = reqs[i];
    if (r.state != 2) continue;
    ref_last = std::max(ref_last, r.recv);
    report.latency.push_back(
        {r.sched, static_cast<double>(r.recv - r.sched) / 1e3});
  }
  report.seconds = static_cast<double>(ref_last - ref_t0) / 1e9;
  std::snprintf(line, sizeof(line),
                "reference rate=%.0f sent=%zu ok=%zu p50_us=%.1f "
                "p99_us=%.1f lag_p99_us=%.1f backlog_max=%llu",
                ref.rate, ref.sent, ref.ok, ref.p50_us, ref.p99_us,
                ref.lag_p99_us,
                static_cast<unsigned long long>(ref.backlog_max));
  report.notes.push_back(line);
  base += shape.reference_queries;

  // Swap step at the same rate: the writer thread hot-swaps to the next
  // generations. Every request of the step is inside a swap window (the
  // swap and the drain of the backlog it built) and counts toward
  // swap_p99_us.
  const int64_t swap_t0 = NowNs() + 1'000'000;
  std::vector<SwapRecord> swaps;
  std::thread writer([&] {
    PinThread(CpuSide::kServer);
    const double gap_ns = shape.swap_s * 1e9 / shape.swaps;
    for (size_t k = 0; k < shape.swaps; ++k) {
      const int64_t at = swap_t0 + static_cast<int64_t>((k + 0.25) * gap_ns);
      std::this_thread::sleep_for(std::chrono::nanoseconds(at - NowNs()));
      SwapRecord rec = SwapTo(spec, served, first_gen + k + 1, tracer);
      const ResultCacheStats a = served->cache->stats();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const ResultCacheStats b = served->cache->stats();
      const double lookups =
          static_cast<double>(b.hits - a.hits + b.misses - a.misses);
      rec.post_hit_rate =
          lookups > 0 ? static_cast<double>(b.hits - a.hits) / lookups : 0;
      swaps.push_back(rec);
    }
  });
  const StepStats sw = run_step(spec.reference_rate, base,
                                shape.swap_queries, swap_t0, false);
  writer.join();
  for (const SwapRecord& rec : swaps) {
    if (!rec.ok) ++report.errors;  // a failed swap is a failed operation
  }
  for (size_t i = base; i < base + shape.swap_queries; ++i) {
    const Request& r = reqs[i];
    if (r.state != 2) continue;
    report.swap_latency_us.push_back(static_cast<double>(r.recv - r.sched) /
                                     1e3);
  }
  report.swaps = swaps;
  std::snprintf(line, sizeof(line),
                "swap rate=%.0f sent=%zu ok=%zu p50_us=%.1f p99_us=%.1f "
                "lag_p99_us=%.1f backlog_max=%llu swaps=%zu",
                sw.rate, sw.sent, sw.ok, sw.p50_us, sw.p99_us, sw.lag_p99_us,
                static_cast<unsigned long long>(sw.backlog_max), swaps.size());
  report.notes.push_back(line);
  base += shape.swap_queries;

  // The ladder, ascending; each step starts with nothing in flight. Only
  // the reference step is traced.
  const bool traced = tracer->enabled();
  tracer->set_enabled(false);
  for (double rate : shape.ladder ? spec.ladder : std::vector<double>()) {
    const size_t n = static_cast<size_t>(rate * shape.step_s);
    if (base + n > reqs.size()) break;
    StepStats s = run_step(rate, base, n, NowNs() + 1'000'000, false);
    base += n;
    if (s.meets_slo) report.slo_qps = std::max(report.slo_qps, rate);
    std::snprintf(line, sizeof(line),
                  "ladder rate=%.0f sent=%zu ok=%zu p50_us=%.1f p99_us=%.1f "
                  "lag_p99_us=%.1f backlog_max=%llu meets_slo=%d",
                  rate, s.sent, s.ok, s.p50_us, s.p99_us, s.lag_p99_us,
                  static_cast<unsigned long long>(s.backlog_max),
                  s.meets_slo ? 1 : 0);
    report.notes.push_back(line);
  }
  tracer->set_enabled(traced);
  for (int fd : fds) ::close(fd);
  PinThread(CpuSide::kServer);

  // Check: an answer from any generation current between send and reply.
  bool inject_wrong = inject.wrong_answer;
  for (size_t i = 0; i < base; ++i) {
    Request& r = reqs[i];
    if (r.state == 1) ++report.errors;  // timed out
    if (r.state == 3) ++report.errors;  // error frame
    if (r.state != 2) continue;
    if (inject_wrong) {
      r.answer ^= 1;
      inject_wrong = false;
    }
    bool ok = false;
    for (uint32_t g = r.gen_send; g <= r.gen_recv && !ok; ++g) {
      ok = g >= 1 && g - 1 < oracle.expected.size() &&
           oracle.expected[g - 1][i] == r.answer;
    }
    if (ok) {
      ++report.answered;
      if (i < shape.reference_queries) ++report.queries;  // qps: reference
    } else {
      ++report.wrong;
    }
  }
  if (injected_pending) ++report.errors;  // the injected frame timed out
  return report;
}

}  // namespace wcsd::perfbench
