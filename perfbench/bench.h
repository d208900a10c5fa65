// Shared declarations of the wire-level serving benchmark.
//
// One process sets a workload up (graph, index build, snapshot or shard
// set, engine, in-process WcServer on loopback), drives it over the real
// wire protocol, checks every answer against the index's direct answer,
// and prints its metrics. See README.md in this directory.

#ifndef WCSD_PERFBENCH_BENCH_H_
#define WCSD_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "graph/graph.h"
#include "labeling/delta.h"
#include "net/server.h"
#include "net/swap_service.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "serve/sharded_engine.h"
#include "trace.h"
#include "util/types.h"

namespace wcsd::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The q-quantile (0..1) of `v` by the nearest-rank rule; sorts `v`.
double Quantile(std::vector<double>* v, double q);

/// One request's latency and when it was due (open loop) or sent.
struct LatencySample {
  int64_t at_ns = 0;
  double us = 0;
};

/// Latency of a timed phase, over consecutive windows of requests in send
/// order: p50 is the median of the p50s of windows of at least
/// kP50WindowSamples requests, and p99 the median of the p99s of windows of
/// at least kMinWindowSamples (each has 10 samples beyond its p99). A burst
/// of noise from outside the process then moves only the windows it falls
/// in.
struct LatencySummary {
  static constexpr size_t kMinWindowSamples = 1000;
  static constexpr size_t kP50WindowSamples = 100;
  size_t samples = 0;
  size_t windows = 0;
  size_t beyond_p99 = 0;  // samples above p99 in the smallest window
  double p50_us = 0;      // median of the windows' p50
  double p99_us = 0;      // median of the windows' p99
  double p50_all_us = 0;  // over every sample, for the log
  double p99_all_us = 0;  // over every sample, for the log
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
};

LatencySummary SummarizeLatency(std::vector<LatencySample> samples);

/// Resident set size of this process in MiB (/proc/self/status VmRSS).
double RssMiB();

/// CPU placement of the calling thread. Threads inherit it, so the server
/// side (reactors and engine workers, started from a kServer thread, and
/// the swap writer) keeps off the last CPU, which the client side (load
/// generator or closed-loop callers) has to itself. Setup may run on any
/// CPU. A no-op on machines with fewer than 4 CPUs.
enum class CpuSide { kAll, kServer, kClient };
void PinThread(CpuSide side);

/// While alive, keeps every CPU of the machine running an idle-class
/// spinner, so no CPU halts during a timed phase. On a shared virtual
/// machine a halted CPU handed work (a reactor waking an engine worker, a
/// reply waking a client) waits for the hypervisor to schedule it again;
/// when the host is busy those wake-ups take milliseconds and moved
/// closed-loop throughput by 30-50% from run to run. A spinner runs only
/// when its CPU has nothing else to run, and any other thread preempts it.
class KeepCpusAwake {
 public:
  KeepCpusAwake();
  ~KeepCpusAwake();
  KeepCpusAwake(const KeepCpusAwake&) = delete;
  KeepCpusAwake& operator=(const KeepCpusAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Fixed shape of one workload: inputs, server configuration and client.
struct WorkloadSpec {
  std::string name;
  bool social = false;  // Barabási–Albert graph; else a road grid
  size_t road_side = 100;
  size_t road_arterial = 10;
  size_t social_vertices = 5000;
  size_t social_edges_per_vertex = 10;
  int levels = 5;
  bool compressed_shards = false;  // serve a compressed shard manifest
  size_t num_shards = 4;
  size_t result_cache_bytes = 0;
  size_t decode_cache_bytes = 0;
  size_t reactors = 1;
  size_t engine_threads = 2;
  uint32_t max_batch_queries = 0;
  // Query inputs: uniform (s, t, w) when zipf_pool == 0.
  size_t zipf_pool = 0;
  double zipf_theta = 0;
  bool vary_w = false;
  // Closed loop: `conns` synchronous clients cycling over frame_count
  // frames of frame_queries queries each.
  bool open_loop = false;
  size_t conns = 2;
  size_t frame_queries = 512;
  size_t frame_count = 128;
  // Open loop: single-query frames on `conns` connections. At
  // reference_rate, first a steady reference step, then a swap step with a
  // hot swap to the next delta generation every swap_period_s; then, in
  // traced runs, the ladder of rates.
  std::vector<double> ladder;
  double reference_rate = 0;
  double reference_share = 0.5;  // of a phase that has a ladder
  double swap_share = 0.4;       // of the time at reference_rate
  double swap_period_s = 1.0;
  size_t edges_per_delta = 4;
  double slo_p99_us = 1000;
};

WorkloadSpec MakeSpec(const std::string& name, bool toy);

/// Faults the self-test injects to prove the checker counts them.
struct Injection {
  bool wrong_answer = false;  // corrupt one received answer
  bool refused = false;       // send one request the server refuses
  int64_t stall_ms = 0;       // stall the open-loop generator once
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;
  std::string workdir;
  Injection inject;
};

/// One prepared index generation (social: one delta each).
struct Generation {
  std::string path;                  // snapshot (or manifest) to serve
  std::vector<DeltaImpact> impacts;  // of the delta that produced it
};

/// Expected answers: expected[g][i] is the direct WcIndex::Query answer
/// of generation g to query i of the workload's query list. Every
/// generation answers the first `prefix` queries (the open loop's
/// reference step, where swaps happen); a generation with whole[g] set
/// answers all of them. Cells left out hold kNotComputed, which matches no
/// reply, so a reply checked against one counts as wrong.
struct Oracle {
  static constexpr Distance kNotComputed = kInfDistance - 1;
  size_t prefix = 0;
  std::vector<bool> whole;
  std::vector<std::vector<Distance>> expected;
  size_t dijkstra_checked = 0;
  size_t dijkstra_mismatches = 0;
};

/// QueryService decorator handed to WcServer in traced runs: records the
/// span of every QueryEx / BatchEx (it runs on the reactor thread).
class TracingService : public QueryService {
 public:
  TracingService(std::shared_ptr<const QueryService> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  Distance Query(Vertex s, Vertex t, Quality w) const override {
    return inner_->Query(s, t, w);
  }
  std::vector<Distance> Batch(
      const std::vector<BatchQueryInput>& queries) const override {
    return inner_->Batch(queries);
  }
  uint64_t NumVertices() const override { return inner_->NumVertices(); }
  QueryEngineStats Stats() const override { return inner_->Stats(); }
  std::vector<ShardBalanceEntry> ShardBalance() const override {
    return inner_->ShardBalance();
  }
  ServeOutcome QueryEx(Vertex s, Vertex t, Quality w,
                       Distance* out) const override;
  ServeOutcome BatchEx(const std::vector<BatchQueryInput>& queries,
                       std::vector<Distance>* out) const override;

 private:
  std::shared_ptr<const QueryService> inner_;
  Tracer* tracer_;
};

/// Span key shared by a client request and the server-side span it
/// caused: the first query of the frame and the frame's query count.
uint64_t FrameKey(Vertex s, Vertex t, Quality w, size_t count);

/// Everything one setup leaves serving.
struct Served {
  std::shared_ptr<const QueryEngine> engine;          // flat / social
  std::shared_ptr<const ShardedQueryEngine> sharded;  // compressed shards
  std::shared_ptr<ResultCache> cache;                  // social only
  std::shared_ptr<SwappableQueryService> swappable;    // social only
  std::unique_ptr<WcServer> server;
  std::vector<Generation> gens;
  std::vector<std::string> files;  // everything written
};

/// Timings and counts of one setup.
struct SetupReport {
  double setup_s = 0;  // excludes the oracle's work
  double build_s = 0;
  double write_s = 0;
  double open_ms = 0;
  uint64_t index_bytes = 0;
  uint64_t build_entries = 0;
  uint64_t build_pops = 0;
};

/// Per-layer figures measured by replays at setup (traced runs only).
struct ReplayReport {
  double merge_ns = 0;
  double compressed_merge_ns = 0;
  double entries_per_query = 0;
  double encode_ns = 0;
  double decode_ns = 0;
  double bytes_per_query = 0;
};

/// The workload's query list: closed loops cycle over it frame by frame,
/// the open loop walks it in order.
std::vector<BatchQueryInput> MakeQueries(const WorkloadSpec& spec,
                                         const QualityGraph& g,
                                         size_t count, uint64_t seed);

/// The workload's graph. Social: a Barabási–Albert draw from `seed`. Road:
/// one fixed street layout (the generator's draw for kRoadLayoutSeed), whose
/// non-arterial edge qualities are drawn from `seed`. Whole road draws differ
/// by ±10% in label entries and ±25% in build time from seed to seed; a
/// fixed layout keeps that input variance out of the run-to-run spread.
QualityGraph MakeGraph(const WorkloadSpec& spec, uint64_t seed);
inline constexpr uint64_t kRoadLayoutSeed = 1;

/// Seed of the graph drawn for setup `draw` of a run: draw 0 is the one
/// served; the others are further draws of the same family, so a run's
/// setup_s / build_s / index_bytes are medians over several graphs.
uint64_t DrawSeed(uint64_t seed, size_t draw);

/// Runs one full setup into `out` and leaves the server running. `oracle`
/// (and in traced runs `replay`) are filled from the build-time index
/// before it is freed.
SetupReport RunSetup(const WorkloadSpec& spec, const Options& opt,
                     uint64_t graph_seed, size_t generations,
                     const std::vector<BatchQueryInput>& queries,
                     Served* out, Oracle* oracle, ReplayReport* replay,
                     Tracer* tracer);

/// One hot swap's timings.
struct SwapRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double open_ms = 0;
  double invalidate_ms = 0;
  double swap_us = 0;
  size_t dropped = 0;
  double post_hit_rate = 0;
  bool ok = false;
};

/// Opens generation `gen` and swaps it in (the serve --watch --delta
/// sequence: shared cache, pre_bind_invalidate -> InvalidateDelta, Swap).
SwapRecord SwapTo(const WorkloadSpec& spec, Served* served, size_t gen,
                  Tracer* tracer);

/// Result of one timed phase of the load generator.
struct LoadReport {
  uint64_t attempted = 0;  // requests (frames) sent
  uint64_t answered = 0;   // replies accepted as correct
  uint64_t queries = 0;    // queries answered correctly
  uint64_t errors = 0;     // transport errors, error frames, timeouts
  uint64_t wrong = 0;      // replies that differ from the oracle
  double seconds = 0;      // measured span of the throughput window
  std::vector<LatencySample> latency;   // per request, swap windows out
  std::vector<double> swap_latency_us;  // the swap step's requests
  std::vector<SwapRecord> swaps;
  double gen_lag_p99_us = 0;
  uint64_t backlog_max = 0;
  double slo_qps = 0;
  std::vector<std::string> notes;  // per-step lines for the log
};

/// Timing of one open-loop phase; all zero for a closed loop.
struct OpenShape {
  double reference_s = 0;
  double swap_s = 0;
  double step_s = 0;  // each ladder step; 0 without a ladder
  bool ladder = false;
  size_t swaps = 0;  // hot swaps in the swap step
  size_t reference_queries = 0;
  size_t swap_queries = 0;  // sent right after the reference step's
  size_t total_queries = 0;
};

OpenShape MakeOpenShape(const WorkloadSpec& spec, double seconds,
                        bool ladder);

LoadReport RunClosedLoop(const WorkloadSpec& spec, Served* served,
                         const std::vector<BatchQueryInput>& queries,
                         const Oracle& oracle, double seconds,
                         const Injection& inject, Tracer* tracer);

/// Runs the reference step, the swap step (swapping to generations
/// first_gen + 1 ...) and, when the shape has one, the ladder.
LoadReport RunOpenLoop(const WorkloadSpec& spec, Served* served,
                       const std::vector<BatchQueryInput>& queries,
                       const Oracle& oracle, const OpenShape& shape,
                       size_t first_gen, const Injection& inject,
                       Tracer* tracer);

}  // namespace wcsd::perfbench

#endif  // WCSD_PERFBENCH_BENCH_H_
