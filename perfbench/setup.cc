// Workload shapes, inputs, the repeated setup and the hot swap.

#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench.h"
#include "bench/workload.h"
#include "core/dynamic_wc_index.h"
#include "core/wc_index.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "labeling/shard_manifest.h"
#include "labeling/shard_plan.h"
#include "net/client.h"
#include "net/wire.h"
#include "search/constrained_dijkstra.h"
#include "util/random.h"

namespace wcsd::perfbench {

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v->size()));
  return (*v)[std::min(rank, v->size() - 1)];
}

LatencySummary SummarizeLatency(std::vector<LatencySample> samples) {
  LatencySummary out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::stable_sort(samples.begin(), samples.end(),
            [](const LatencySample& a, const LatencySample& b) {
              return a.at_ns < b.at_ns;
            });
  std::vector<double> all;
  for (const LatencySample& s : samples) all.push_back(s.us);
  out.p50_all_us = Quantile(&all, 0.5);
  out.p99_all_us = Quantile(&all, 0.99);
  const size_t p50_windows = std::max<size_t>(
      1, samples.size() / LatencySummary::kP50WindowSamples);
  std::vector<double> p50s;
  for (size_t w = 0; w < p50_windows; ++w) {
    std::vector<double> window;
    for (size_t i = w * samples.size() / p50_windows;
         i < (w + 1) * samples.size() / p50_windows; ++i) {
      window.push_back(samples[i].us);
    }
    p50s.push_back(Quantile(&window, 0.5));
  }
  out.window_p50_us = p50s;
  out.p50_us = Quantile(&p50s, 0.5);
  out.windows = std::max<size_t>(
      1, samples.size() / LatencySummary::kMinWindowSamples);
  std::vector<double> p99s;
  out.beyond_p99 = samples.size();
  for (size_t w = 0; w < out.windows; ++w) {
    const size_t begin = w * samples.size() / out.windows;
    const size_t end = (w + 1) * samples.size() / out.windows;
    std::vector<double> window;
    for (size_t i = begin; i < end; ++i) window.push_back(samples[i].us);
    const double p99 = Quantile(&window, 0.99);
    p99s.push_back(p99);
    out.window_p99_us.push_back(p99);
    out.beyond_p99 = std::min<size_t>(
        out.beyond_p99,
        window.end() - std::upper_bound(window.begin(), window.end(), p99));
  }
  out.p99_us = Quantile(&p99s, 0.5);
  return out;
}

double RssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void PinThread(CpuSide side) {
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (cpus < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = 0; c < cpus; ++c) {
    const bool client_cpu = c == cpus - 1;
    if (side == CpuSide::kAll || (side == CpuSide::kClient) == client_cpu) {
      CPU_SET(c, &set);
    }
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

KeepCpusAwake::KeepCpusAwake() {
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  for (int c = 0; c < cpus; ++c) {
    threads_.emplace_back([this, c] {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(c, &set);
      sched_param param{};
      if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0 ||
          pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
        return;  // never spin at normal priority
      }
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

KeepCpusAwake::~KeepCpusAwake() {
  stop_ = true;
  for (std::thread& t : threads_) t.join();
}

uint64_t FrameKey(Vertex s, Vertex t, Quality w, size_t count) {
  uint32_t wbits = 0;
  std::memcpy(&wbits, &w, sizeof(wbits));
  uint64_t h = (uint64_t{s} << 32 | t) * 0x9e3779b97f4a7c15ULL;
  h ^= (uint64_t{wbits} << 20 ^ count) * 0xc2b2ae3d27d4eb4fULL;
  return (h ^ (h >> 29)) | 1;
}

ServeOutcome TracingService::QueryEx(Vertex s, Vertex t, Quality w,
                                     Distance* out) const {
  if (!tracer_->enabled()) return inner_->QueryEx(s, t, w, out);
  const int64_t start = NowNs();
  ServeOutcome outcome = inner_->QueryEx(s, t, w, out);
  tracer_->Record("serve.query", start, NowNs(), FrameKey(s, t, w, 1));
  return outcome;
}

ServeOutcome TracingService::BatchEx(
    const std::vector<BatchQueryInput>& queries,
    std::vector<Distance>* out) const {
  if (!tracer_->enabled() || queries.empty()) {
    return inner_->BatchEx(queries, out);
  }
  const int64_t start = NowNs();
  ServeOutcome outcome = inner_->BatchEx(queries, out);
  const BatchQueryInput& q = queries.front();
  tracer_->Record("serve.batch", start, NowNs(),
                  FrameKey(q.s, q.t, q.w, queries.size()));
  return outcome;
}

WorkloadSpec MakeSpec(const std::string& name, bool toy) {
  WorkloadSpec spec;
  spec.name = name;
  spec.frame_count = 1024;
  if (name == "road-batch") {
    spec.reactors = 1;
    spec.engine_threads = 2;
    spec.max_batch_queries = 512;
  } else if (name == "road-cold-sharded") {
    spec.compressed_shards = true;
    spec.decode_cache_bytes = 4u << 20;
    spec.zipf_pool = 4096;
    spec.zipf_theta = 0.8;
    spec.reactors = 1;
    spec.engine_threads = 2;
    spec.max_batch_queries = 512;
  } else if (name == "social-zipf-swap") {
    spec.social = true;
    spec.result_cache_bytes = 8u << 20;
    spec.zipf_pool = 65536;
    spec.zipf_theta = 1.0;
    spec.vary_w = true;
    spec.reactors = 2;
    spec.engine_threads = 1;
    spec.open_loop = true;
    spec.ladder = {20000, 40000, 80000, 160000, 320000, 640000};
    spec.reference_rate = 20000;
  } else {
    spec.name.clear();
    return spec;
  }
  if (toy) {
    spec.road_side = 16;
    spec.road_arterial = 4;
    spec.social_vertices = 400;
    spec.social_edges_per_vertex = 4;
    spec.frame_count = 8;
    if (spec.zipf_pool != 0) spec.zipf_pool = 256;
    if (spec.decode_cache_bytes != 0) spec.decode_cache_bytes = 16u << 10;
    if (spec.result_cache_bytes != 0) spec.result_cache_bytes = 64u << 10;
    if (spec.open_loop) {
      spec.ladder = {500, 1000, 2000};
      spec.reference_rate = 1000;
    }
  }
  return spec;
}

QualityGraph MakeGraph(const WorkloadSpec& spec, uint64_t seed) {
  QualityModel quality;
  quality.num_levels = spec.levels;
  if (spec.social) {
    return GenerateBarabasiAlbert(spec.social_vertices,
                                  spec.social_edges_per_vertex, quality,
                                  seed);
  }
  RoadOptions road;
  road.rows = spec.road_side;
  road.cols = spec.road_side;
  road.arterial_spacing = spec.road_arterial;
  road.quality = quality;
  const QualityGraph layout = GenerateRoadNetwork(road, kRoadLayoutSeed);
  // Arterials keep the top quality, as the generator gives them; every
  // other edge (grid or diagonal) gets a quality drawn from the seed.
  const size_t cols = spec.road_side;
  const size_t spacing = spec.road_arterial;
  auto is_arterial = [&](Vertex u, Vertex v) {
    const size_t ru = u / cols, cu = u % cols, rv = v / cols, cv = v % cols;
    if (ru == rv) return ru % spacing == 0;
    if (cu == cv) return cu % spacing == 0;
    return false;
  };
  Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 0x9d);
  GraphBuilder builder(layout.NumVertices());
  for (Vertex u = 0; u < layout.NumVertices(); ++u) {
    for (const Arc& a : layout.Neighbors(u)) {
      if (a.to < u) continue;
      builder.AddEdge(u, a.to,
                      is_arterial(u, a.to)
                          ? static_cast<Quality>(spec.levels)
                          : SampleQuality(quality, &rng));
    }
  }
  return builder.Build();
}

uint64_t DrawSeed(uint64_t seed, size_t draw) {
  return draw == 0 ? seed : seed * 0x9e3779b97f4a7c15ULL + draw;
}

std::vector<BatchQueryInput> MakeQueries(const WorkloadSpec& spec,
                                         const QualityGraph& g,
                                         size_t count, uint64_t seed) {
  const uint64_t query_seed = seed * 0x100000001b3ULL + 0x51;
  std::vector<WcsdQuery> drawn =
      spec.zipf_pool == 0
          ? MakeQueryWorkload(g, count, query_seed)
          : MakeZipfQueryWorkload(g, count, spec.zipf_pool, spec.zipf_theta,
                                  spec.vary_w, query_seed);
  std::vector<BatchQueryInput> out;
  out.reserve(drawn.size());
  for (const WcsdQuery& q : drawn) out.push_back({q.s, q.t, q.w});
  return out;
}

namespace {

/// Appends generation `gen`'s direct WcIndex::Query answers to the oracle,
/// computed on 4 threads.
void AddDirectAnswers(const WcIndex& index,
                      const std::vector<BatchQueryInput>& q, size_t gen,
                      Oracle* oracle) {
  const size_t n = gen < oracle->whole.size() && oracle->whole[gen]
                       ? q.size()
                       : std::min(oracle->prefix, q.size());
  std::vector<Distance> out(q.size(), Oracle::kNotComputed);
  constexpr size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (size_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      for (size_t i = k; i < n; i += kThreads) {
        out[i] = index.Query(q[i].s, q[i].t, q[i].w);
      }
    });
  }
  for (auto& t : threads) t.join();
  oracle->expected.push_back(std::move(out));
}

/// Checks an evenly spaced sample of the expected answers against an
/// online constrained Dijkstra on the generating graph.
void CheckAgainstDijkstra(const QualityGraph& g,
                          const std::vector<BatchQueryInput>& q,
                          const std::vector<Distance>& expected,
                          Oracle* oracle) {
  constexpr size_t kSample = 32;
  const size_t n = std::min(q.size(), oracle->prefix);
  for (size_t k = 0; k < kSample && n > 0; ++k) {
    const size_t i = k * n / kSample;
    ++oracle->dijkstra_checked;
    if (ConstrainedDijkstraUnit(g, q[i].s, q[i].t, q[i].w) != expected[i]) {
      ++oracle->dijkstra_mismatches;
    }
  }
}

void MeasureReplays(const WorkloadSpec& spec, const WcIndex& index,
                    const std::vector<BatchQueryInput>& queries,
                    const std::vector<Distance>& expected,
                    ReplayReport* out) {
  const size_t n = std::min<size_t>(queries.size(), 65536);
  // Kernel: one-thread replay through WcIndex::Query on the flat index.
  uint64_t sink = 0;
  size_t entries = 0;
  for (size_t i = 0; i < n; ++i) {
    sink += index.Query(queries[i].s, queries[i].t, queries[i].w);
    entries += index.EntriesFor(queries[i].s).size() +
               index.EntriesFor(queries[i].t).size();
  }
  int64_t start = NowNs();
  for (size_t i = 0; i < n; ++i) {
    sink += index.Query(queries[i].s, queries[i].t, queries[i].w);
  }
  out->merge_ns = static_cast<double>(NowNs() - start) / n;
  out->entries_per_query = static_cast<double>(entries) / n;

  // Wire codec: encode and parse the workload's request and reply frames.
  const size_t per_frame = spec.open_loop ? 1 : spec.frame_queries;
  const size_t frames = n / per_frame;
  std::vector<uint8_t> req, rep;
  req.reserve(1 << 16);
  rep.reserve(1 << 16);
  int64_t encode_ns = 0, decode_ns = 0;
  size_t bytes = 0;
  std::vector<BatchQueryInput> decoded_q;
  std::vector<Distance> decoded_d;
  for (size_t f = 0; f < frames; ++f) {
    const size_t base = f * per_frame;
    req.clear();
    rep.clear();
    int64_t t0 = NowNs();
    if (spec.open_loop) {
      net::AppendQueryRequest(&req, f + 1, queries[base].s, queries[base].t,
                              queries[base].w);
      net::QueryReplyPayload reply{expected[base]};
      net::AppendFrame(&rep, net::MsgType::kQueryReply, net::WireError::kOk,
                       f + 1, &reply, sizeof(reply));
    } else {
      net::AppendBatchRequest(
          &req, f + 1,
          std::span<const BatchQueryInput>(queries.data() + base, per_frame));
      net::AppendBatchReply(
          &rep, f + 1,
          std::span<const Distance>(expected.data() + base, per_frame));
    }
    int64_t t1 = NowNs();
    net::WireHeader header;
    const uint8_t* payload = nullptr;
    net::ParseFrame(req.data(), req.size(), net::kMaxPayloadBytes, &header,
                    &payload);
    const size_t skip = spec.open_loop ? 0 : sizeof(uint32_t);
    decoded_q.resize(per_frame);
    std::memcpy(decoded_q.data(), payload + skip,
                per_frame * sizeof(BatchQueryInput));
    net::ParseFrame(rep.data(), rep.size(), net::kMaxPayloadBytes, &header,
                    &payload);
    decoded_d.resize(per_frame);
    std::memcpy(decoded_d.data(), payload + skip,
                per_frame * sizeof(Distance));
    int64_t t2 = NowNs();
    encode_ns += t1 - t0;
    decode_ns += t2 - t1;
    bytes += req.size() + rep.size();
    sink += decoded_d.back() + decoded_q.back().s;
  }
  const double nq = static_cast<double>(frames * per_frame);
  out->encode_ns = static_cast<double>(encode_ns) / nq;
  out->decode_ns = static_cast<double>(decode_ns) / nq;
  out->bytes_per_query = static_cast<double>(bytes) / nq;
  if (sink == 42) std::fprintf(stderr, " ");
}

double CompressedReplayNs(const std::string& manifest,
                          const std::vector<BatchQueryInput>& queries) {
  QueryEngineOptions options;
  options.num_threads = 1;
  auto engine = ShardedQueryEngine::OpenManifest(manifest, options);
  if (!engine.ok()) return 0;
  const size_t n = std::min<size_t>(queries.size(), 65536);
  uint64_t sink = 0;
  int64_t start = NowNs();
  for (size_t i = 0; i < n; ++i) {
    sink += engine.value().Query(queries[i].s, queries[i].t, queries[i].w);
  }
  const double ns = static_cast<double>(NowNs() - start) / n;
  if (sink == 42) std::fprintf(stderr, " ");
  return ns;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

/// Warm-up: one connection sends the first 128 frames (closed loop) or the
/// head of the query sequence pipelined (open loop).
bool WarmUp(const WorkloadSpec& spec, uint16_t port,
            const std::vector<BatchQueryInput>& queries) {
  auto client = WcClient::Connect("127.0.0.1", port, 10000);
  if (!client.ok()) return false;
  if (spec.open_loop) {
    std::vector<BatchQueryInput> head(
        queries.begin(),
        queries.begin() + std::min<size_t>(queries.size(), 32768));
    return client.value().QueryPipelined(head).ok();
  }
  for (size_t f = 0; f < std::min<size_t>(spec.frame_count, 128); ++f) {
    std::vector<BatchQueryInput> frame(
        queries.begin() + f * spec.frame_queries,
        queries.begin() + (f + 1) * spec.frame_queries);
    if (!client.value().Batch(frame).ok()) return false;
  }
  return true;
}

}  // namespace

SetupReport RunSetup(const WorkloadSpec& spec, const Options& opt,
                     uint64_t graph_seed, size_t generations,
                     const std::vector<BatchQueryInput>& queries,
                     Served* out, Oracle* oracle, ReplayReport* replay,
                     Tracer* tracer) {
  static int rep = 0;
  PinThread(CpuSide::kAll);
  SetupReport report;
  const int64_t start = NowNs();
  int64_t excluded = 0;  // oracle and replay work, not the system's setup
  ScopedSpan setup_span(tracer, "setup");
  *out = Served();

  QualityGraph g;
  {
    ScopedSpan span(tracer, "graph.generate");
    g = MakeGraph(spec, graph_seed);
  }
  // One build thread: on a 4-CPU machine the serial build of these graphs
  // is faster than the 4-thread pipeline (road: 4.5 s against 6 s) and,
  // with no barriers across CPUs, less moved by other load on the host.
  WcIndexOptions build_options = WcIndexOptions::Plus();
  build_options.num_threads = 1;
  int64_t t = NowNs();
  auto built = [&] {
    ScopedSpan span(tracer, "core.build");
    auto index = std::make_unique<WcIndex>(WcIndex::Build(g, build_options));
    index->Finalize();
    return index;
  }();
  const WcIndex& index = *built;
  report.build_s = static_cast<double>(NowNs() - t) / 1e9;
  report.build_entries = index.build_stats().entries_added;
  report.build_pops = index.build_stats().pops;

  const std::string stem =
      opt.workdir + "/" + spec.name + "-" + std::to_string(rep++);
  t = NowNs();
  {
    ScopedSpan span(tracer, "labeling.snapshot_write");
    if (spec.compressed_shards) {
      ShardPlanOptions plan_options;
      plan_options.num_shards = spec.num_shards;
      auto plan = PlanShards(index.flat_labels(), plan_options);
      SnapshotWriteOptions write;
      write.compress = true;
      auto written =
          plan.ok() ? WriteShardSet(stem, index.flat_labels(), plan.value(),
                                    write)
                    : Result<WrittenShardSet>(plan.status());
      if (!written.ok()) {
        std::fprintf(stderr, "shard set: %s\n",
                     written.status().ToString().c_str());
        return report;
      }
      out->files = written.value().shard_paths;
      out->files.push_back(written.value().manifest_path);
      out->gens.push_back({written.value().manifest_path, {}});
    } else {
      const std::string path = stem + ".wcsnap";
      Status s = index.SaveSnapshot(path);
      if (!s.ok()) {
        std::fprintf(stderr, "snapshot: %s\n", s.ToString().c_str());
        return report;
      }
      out->files.push_back(path);
      out->gens.push_back({path, {}});
    }
  }
  report.write_s = static_cast<double>(NowNs() - t) / 1e9;
  for (const std::string& f : out->files) report.index_bytes += FileBytes(f);

  {
    const int64_t t0 = NowNs();
    AddDirectAnswers(index, queries, 0, oracle);
    CheckAgainstDijkstra(g, queries, oracle->expected.back(), oracle);
    if (opt.trace) {
      MeasureReplays(spec, index, queries, oracle->expected.back(), replay);
      if (spec.compressed_shards) {
        replay->compressed_merge_ns =
            CompressedReplayNs(out->gens[0].path, queries);
      }
    }
    excluded += NowNs() - t0;
  }

  // Later generations: edge-insert deltas applied by DynamicWcIndex, each
  // written as its own snapshot (the serve --watch --delta input).
  if (generations > 1) {
    ScopedSpan span(tracer, "core.delta_generations");
    Rng rng(graph_seed ^ 0x5eed5eedULL);
    LabelSet labels = index.labels();
    QualityGraph graph = g;
    for (size_t k = 1; k < generations; ++k) {
      DynamicWcIndex dyn(graph, index.order(), std::move(labels),
                         build_options);
      DeltaLog log;
      log.batches.emplace_back();
      std::vector<DynamicWcIndex::EdgeUpdate> edges;
      while (edges.size() < spec.edges_per_delta) {
        Vertex u = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
        Vertex v = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
        if (u == v) continue;
        Quality q = static_cast<Quality>(rng.NextInRange(1, spec.levels));
        edges.push_back({u, v, q});
        DeltaRecord rec;
        rec.op = static_cast<uint8_t>(DeltaOp::kInsert);
        rec.u = u;
        rec.v = v;
        rec.quality = q;
        log.batches.back().records.push_back(rec);
      }
      dyn.InsertEdges(edges);
      graph = dyn.Snapshot();
      WcIndex next = dyn.ReleaseIndex();
      labels = next.labels();
      next.Finalize();
      const std::string path = stem + ".gen" + std::to_string(k) + ".wcsnap";
      Status s = next.SaveSnapshot(path);
      if (!s.ok()) {
        std::fprintf(stderr, "snapshot: %s\n", s.ToString().c_str());
        return report;
      }
      out->files.push_back(path);
      out->gens.push_back({path, DeltaImpacts(log)});
      const int64_t t0 = NowNs();
      AddDirectAnswers(next, queries, k, oracle);
      CheckAgainstDijkstra(graph, queries, oracle->expected.back(), oracle);
      excluded += NowNs() - t0;
    }
  }

  // The build-time index is gone before anything is served.
  built.reset();
  g = QualityGraph();
  malloc_trim(0);

  // Engine workers and reactors inherit the server side's CPUs.
  PinThread(CpuSide::kServer);
  QueryEngineOptions engine_options;
  engine_options.num_threads = spec.engine_threads;
  std::shared_ptr<const QueryService> service;
  t = NowNs();
  {
    ScopedSpan span(tracer, "labeling.snapshot_open");
    if (spec.compressed_shards) {
      engine_options.decode_cache_bytes = spec.decode_cache_bytes;
      auto opened =
          ShardedQueryEngine::OpenManifest(out->gens[0].path, engine_options);
      if (!opened.ok()) {
        std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
        return report;
      }
      out->sharded = std::make_shared<const ShardedQueryEngine>(
          std::move(opened).value());
      service = MakeQueryService(out->sharded);
    } else {
      if (spec.result_cache_bytes != 0) {
        out->cache = std::make_shared<ResultCache>(spec.result_cache_bytes);
        engine_options.shared_cache = out->cache;
      }
      auto opened = QueryEngine::Open(out->gens[0].path, engine_options);
      if (!opened.ok()) {
        std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
        return report;
      }
      out->engine =
          std::make_shared<const QueryEngine>(std::move(opened).value());
      service = MakeQueryService(out->engine);
    }
  }
  report.open_ms = static_cast<double>(NowNs() - t) / 1e6;
  if (spec.open_loop) {
    out->swappable = std::make_shared<SwappableQueryService>(service);
    service = out->swappable;
  }
  if (opt.trace) {
    service = std::make_shared<TracingService>(service, tracer);
  }

  {
    ScopedSpan span(tracer, "net.server_start");
    WcServerOptions server_options;
    server_options.num_reactors = spec.reactors;
    server_options.max_batch_queries = spec.max_batch_queries;
    auto started = WcServer::Start(service, server_options);
    if (!started.ok()) {
      std::fprintf(stderr, "server: %s\n",
                   started.status().ToString().c_str());
      return report;
    }
    out->server = std::make_unique<WcServer>(std::move(started).value());
  }
  {
    // Warm-up frames stay out of the server-side span totals.
    const bool tracing = tracer->enabled();
    tracer->set_enabled(false);
    const bool warmed = WarmUp(spec, out->server->port(), queries);
    tracer->set_enabled(tracing);
    if (!warmed) {
      std::fprintf(stderr, "warm-up failed\n");
      out->server.reset();
      return report;
    }
  }
  report.setup_s = static_cast<double>(NowNs() - start - excluded) / 1e9;
  return report;
}

SwapRecord SwapTo(const WorkloadSpec& spec, Served* served, size_t gen,
                  Tracer* tracer) {
  SwapRecord record;
  record.start_ns = NowNs();
  ScopedSpan swap_span(tracer, "net.swap");
  const Generation& next = served->gens[gen];
  std::shared_ptr<const QueryEngine> old_engine = served->engine;
  QueryEngineOptions options;
  options.num_threads = spec.engine_threads;
  options.shared_cache = served->cache;
  // The engine keeps its options, so the hook owns what it uses and holds
  // the outgoing engine only weakly (a strong hold would chain every
  // generation to the next). It runs once, inside Open, and reports
  // through `invalidated`.
  struct Invalidated {
    size_t dropped = 0;
    double ms = 0;
  };
  auto invalidated = std::make_shared<Invalidated>();
  options.pre_bind_invalidate = [cache = served->cache, impacts = next.impacts,
                                 outgoing = std::weak_ptr(old_engine),
                                 invalidated, tracer](uint64_t fingerprint) {
    ScopedSpan span(tracer, "serve.result_cache.invalidate");
    const int64_t t0 = NowNs();
    std::shared_ptr<const QueryEngine> old_engine = outgoing.lock();
    if (!old_engine) return;  // nothing to couple against: wholesale Rebind
    // A pair can only change if it reaches the new edge from both sides
    // in the outgoing index (the serve --watch --delta coupling test).
    ResultCache::CoupledFn coupled = [old_engine](Vertex s, Vertex t,
                                                  const DeltaImpact& impact,
                                                  Quality w) {
      const WcIndex& index = old_engine->index();
      return (index.Query(s, impact.u, w) != kInfDistance &&
              index.Query(impact.v, t, w) != kInfDistance) ||
             (index.Query(s, impact.v, w) != kInfDistance &&
              index.Query(impact.u, t, w) != kInfDistance);
    };
    invalidated->dropped =
        cache->InvalidateDelta(fingerprint, impacts, coupled);
    invalidated->ms = static_cast<double>(NowNs() - t0) / 1e6;
  };
  const int64_t t0 = NowNs();
  auto opened = [&] {
    ScopedSpan span(tracer, "net.swap.open");
    return QueryEngine::Open(next.path, options);
  }();
  if (!opened.ok()) {
    std::fprintf(stderr, "swap open: %s\n",
                 opened.status().ToString().c_str());
    record.end_ns = NowNs();
    return record;
  }
  record.dropped = invalidated->dropped;
  record.invalidate_ms = invalidated->ms;
  record.open_ms =
      static_cast<double>(NowNs() - t0) / 1e6 - record.invalidate_ms;
  auto engine = std::make_shared<const QueryEngine>(std::move(opened).value());
  std::shared_ptr<const QueryService> service = MakeQueryService(engine);
  const int64_t t1 = NowNs();
  {
    ScopedSpan span(tracer, "net.swap.swap");
    served->swappable->Swap(std::move(service));
  }
  record.swap_us = static_cast<double>(NowNs() - t1) / 1e3;
  served->engine = std::move(engine);
  record.end_ns = NowNs();
  record.ok = true;
  return record;
}

}  // namespace wcsd::perfbench
