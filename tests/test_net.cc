// Network front-end tests: the WcServer must answer bit-identically to the
// in-process engines for every QueryImpl, survive concurrent pipelined
// load from many connections (the soak/hammer configuration the sanitizer
// CI jobs run), and never crash on the malformed-frame corpus — framing
// errors close cleanly after one error frame, frame-local errors leave the
// connection serving.
//
// The wire-golden tests mirror test_golden_format.cc: checked-in request
// and reply byte dumps in tests/data pin the on-wire encoding. Regenerate
// ONLY on a deliberate protocol change (bump net::kWireVersion first) by
// running this binary with WCSD_REGEN_WIRE_GOLDEN=1 in the environment.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/path_index.h"
#include "core/wc_index.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "paper_fixtures.h"
#include "util/random.h"

namespace wcsd {
namespace {

using net::MsgType;
using net::WireError;
using net::WireHeader;

std::string GoldenPath(const std::string& name) {
  return std::string(WCSD_TEST_DATA_DIR) + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

struct NetFixture {
  std::shared_ptr<const WcIndex> index;
  std::vector<BatchQueryInput> workload;
  std::vector<Distance> expected;
};

NetFixture MakeNetFixture(size_t n, size_t m, size_t num_queries,
                          uint64_t seed) {
  NetFixture f;
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(n, m, quality, seed);
  WcIndex built = WcIndex::Build(g, WcIndexOptions::Plus());
  built.Finalize();
  f.index = std::make_shared<const WcIndex>(std::move(built));
  Rng rng(seed ^ 0xfeed);
  f.workload.reserve(num_queries);
  f.expected.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    BatchQueryInput q{static_cast<Vertex>(rng.NextBounded(n)),
                      static_cast<Vertex>(rng.NextBounded(n)),
                      static_cast<Quality>(rng.NextInRange(1, 5))};
    f.workload.push_back(q);
    f.expected.push_back(f.index->Query(q.s, q.t, q.w));
  }
  return f;
}

WcServer StartServer(std::shared_ptr<const QueryService> service,
                     uint32_t max_payload = net::kMaxPayloadBytes) {
  WcServerOptions options;
  options.max_payload_bytes = max_payload;
  auto server = WcServer::Start(std::move(service), options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).value();
}

WcClient ConnectTo(const WcServer& server) {
  auto client = WcClient::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

// A cache-enabled engine behind the server: answers stay bit-identical,
// and the kStatsReply cache counters travel the wire.
TEST(WcServer, ReportsCacheCountersOverTheWire) {
  NetFixture f = MakeNetFixture(100, 260, 250, 229);
  QueryEngineOptions options;
  options.num_threads = 1;
  options.cache_bytes = 64 << 10;
  auto engine = std::make_shared<const QueryEngine>(f.index, options);
  WcServer server = StartServer(MakeQueryService(engine));
  WcClient client = ConnectTo(server);

  // Twice: the second pass is mostly interval hits.
  for (int pass = 0; pass < 2; ++pass) {
    auto batch = client.Batch(f.workload);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch.value(), f.expected) << "pass=" << pass;
  }

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats.value().cache_hits, 0u);
  EXPECT_GT(stats.value().cache_misses, 0u);
  EXPECT_GT(stats.value().cache_inserts, 0u);
  EXPECT_EQ(stats.value().cache_hits + stats.value().cache_misses,
            engine->stats().cache_hits + engine->stats().cache_misses);
}

// Every QueryImpl, every call shape: the networked answers must equal the
// in-process index bit-for-bit.
TEST(WcServer, BitIdenticalToInProcessForEveryImpl) {
  NetFixture f = MakeNetFixture(120, 320, 400, 211);
  for (QueryImpl impl : {QueryImpl::kScan, QueryImpl::kHubGrouped,
                         QueryImpl::kBinary, QueryImpl::kMerge}) {
    QueryEngineOptions options;
    options.num_threads = 2;
    auto engine = std::make_shared<const QueryEngine>(f.index, options);
    WcServer server = StartServer(MakeQueryService(engine));
    WcClient client = ConnectTo(server);

    std::vector<Distance> expected;
    expected.reserve(f.workload.size());
    for (const BatchQueryInput& q : f.workload) {
      expected.push_back(f.index->Query(q.s, q.t, q.w, impl));
    }
    for (size_t i = 0; i < 100; ++i) {
      const BatchQueryInput& q = f.workload[i];
      auto d = client.Query(q.s, q.t, q.w);
      ASSERT_TRUE(d.ok()) << d.status().ToString();
      ASSERT_EQ(d.value(), expected[i]) << "impl=" << static_cast<int>(impl);
    }
    auto batch = client.Batch(f.workload);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch.value(), expected);
    auto pipelined = client.QueryPipelined(f.workload, /*window=*/32);
    ASSERT_TRUE(pipelined.ok()) << pipelined.status().ToString();
    EXPECT_EQ(pipelined.value(), expected);
  }
}

TEST(WcServer, ServesShardedBackendIdentically) {
  NetFixture f = MakeNetFixture(110, 280, 300, 223);
  const uint64_t n = f.index->NumVertices();
  std::vector<std::string> paths;
  for (int k = 0; k < 3; ++k) {
    std::string path =
        testing::TempDir() + "/net_shard" + std::to_string(k);
    ASSERT_TRUE(WriteSnapshotShard(path, f.index->flat_labels(), n * k / 3,
                                   n * (k + 1) / 3, n)
                    .ok());
    paths.push_back(path);
  }
  QueryEngineOptions options;
  options.num_threads = 2;
  auto sharded = QueryEngine::OpenMmap(paths, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  WcServer server = StartServer(MakeQueryService(
      std::make_shared<const QueryEngine>(std::move(sharded).value())));
  WcClient client = ConnectTo(server);

  auto health = client.Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value(), n);
  auto batch = client.Batch(f.workload);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch.value(), f.expected);

  // The Stats frame reports per-shard balance for a sharded service: three
  // records tiling [0, n), with entry counts adding up to the index.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats.value().shards.size(), 3u);
  uint64_t cursor = 0;
  uint64_t entries = 0;
  for (const net::ShardBalancePayload& shard : stats.value().shards) {
    EXPECT_EQ(shard.vertex_begin, cursor);
    cursor = shard.vertex_end;
    entries += shard.entry_count;
    EXPECT_GT(shard.label_bytes, 0u);
  }
  EXPECT_EQ(cursor, n);
  EXPECT_EQ(entries, f.index->TotalEntries());
  for (const std::string& p : paths) std::remove(p.c_str());
}

TEST(WcServer, HealthAndStatsReportTheEngine) {
  NetFixture f = MakeNetFixture(80, 200, 50, 227);
  QueryEngineOptions options;
  options.num_threads = 1;
  auto engine = std::make_shared<const QueryEngine>(f.index, options);
  WcServer server = StartServer(MakeQueryService(engine));
  WcClient client = ConnectTo(server);

  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value(), f.index->NumVertices());

  for (size_t i = 0; i < 10; ++i) {
    const BatchQueryInput& q = f.workload[i];
    ASSERT_TRUE(client.Query(q.s, q.t, q.w).ok());
  }
  ASSERT_TRUE(client.Batch(f.workload).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().num_vertices, f.index->NumVertices());
  EXPECT_EQ(stats.value().queries, 10 + f.workload.size());
  EXPECT_EQ(stats.value().batches, 1u);
  EXPECT_GT(stats.value().reachable, 0u);
  // Unsharded engines report an empty balance section.
  EXPECT_TRUE(stats.value().shards.empty());

  WcServerStats server_stats = server.stats();
  EXPECT_EQ(server_stats.connections_accepted, 1u);
  // health + 10 queries + batch + stats.
  EXPECT_EQ(server_stats.frames_served, 13u);
  EXPECT_EQ(server_stats.protocol_errors, 0u);
}

TEST(WcServer, OutOfRangeVerticesAnswerInf) {
  NetFixture f = MakeNetFixture(60, 150, 10, 229);
  auto engine = std::make_shared<const QueryEngine>(f.index);
  WcServer server = StartServer(MakeQueryService(engine));
  WcClient client = ConnectTo(server);
  auto d = client.Query(1u << 30, 2, 1.0f);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), kInfDistance);
}

// The soak/hammer configuration: many connections, each pipelining windows
// of single-query frames and interleaving batch frames, all against
// precomputed expected answers. This is the test the TSan and ASan CI jobs
// run — the server's event loop, the engine pool, and N client threads all
// overlap here.
TEST(WcServer, SoakManyConcurrentPipelinedConnections) {
  NetFixture f = MakeNetFixture(120, 320, 600, 233);
  QueryEngineOptions options;
  options.num_threads = 3;
  options.min_chunk = 16;
  auto engine = std::make_shared<const QueryEngine>(f.index, options);
  WcServer server = StartServer(MakeQueryService(engine));

  constexpr size_t kConnections = 8;
  constexpr size_t kRounds = 5;
  constexpr size_t kSlice = 300;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> callers;
  callers.reserve(kConnections);
  for (size_t c = 0; c < kConnections; ++c) {
    callers.emplace_back([&, c] {
      auto client = WcClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (size_t round = 0; round < kRounds; ++round) {
        size_t shift = (c * 131 + round * 17) % f.workload.size();
        std::vector<BatchQueryInput> slice;
        std::vector<Distance> expected;
        slice.reserve(kSlice);
        for (size_t i = 0; i < kSlice; ++i) {
          size_t j = (shift + i) % f.workload.size();
          slice.push_back(f.workload[j]);
          expected.push_back(f.expected[j]);
        }
        auto pipelined = client.value().QueryPipelined(slice, 24);
        if (!pipelined.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (pipelined.value() != expected) mismatches.fetch_add(1);
        auto batch = client.value().Batch(slice);
        if (!batch.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (batch.value() != expected) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);

  QueryEngineStats engine_stats = engine->stats();
  EXPECT_EQ(engine_stats.queries, kConnections * kRounds * kSlice * 2);
  EXPECT_EQ(engine_stats.batches, kConnections * kRounds);
  WcServerStats stats = server.stats();
  EXPECT_EQ(stats.frames_served,
            kConnections * kRounds * (kSlice + 1));
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// The three v6 query families served over the wire must be bit-identical
// to their in-process core counterparts, and the path replies must be real
// routes: valid under the constraint, with exactly d(s,t,w) hops.
TEST(WcServer, ServesQueryFamiliesBitIdentically) {
  const size_t n = 100;
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(n, 260, quality, 263);
  WcIndex built = WcIndex::Build(g, WcIndexOptions::Plus());
  built.Finalize();
  auto index = std::make_shared<const WcIndex>(std::move(built));
  QueryEngineOptions options;
  options.num_threads = 1;
  options.graph = std::make_shared<const QualityGraph>(g);
  auto engine = std::make_shared<const QueryEngine>(index, options);
  WcServer server = StartServer(MakeQueryService(engine));
  WcClient client = ConnectTo(server);

  Rng rng(771);
  const std::vector<Quality> thresholds = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  for (int round = 0; round < 20; ++round) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 5));
    std::vector<Vertex> candidates;
    for (int i = 0; i < 12; ++i) {
      candidates.push_back(static_cast<Vertex>(rng.NextBounded(n)));
    }

    auto remote_topk = client.TopK(s, candidates, w, 5);
    ASSERT_TRUE(remote_topk.ok()) << remote_topk.status().ToString();
    auto local_topk = TopKClosest(*index, s, candidates, w, 5);
    ASSERT_EQ(remote_topk.value().size(), local_topk.size());
    for (size_t i = 0; i < local_topk.size(); ++i) {
      EXPECT_EQ(remote_topk.value()[i].vertex, local_topk[i].vertex);
      EXPECT_EQ(remote_topk.value()[i].dist, local_topk[i].dist);
    }

    auto remote_profile = client.Profile(s, t, thresholds);
    ASSERT_TRUE(remote_profile.ok()) << remote_profile.status().ToString();
    auto local_profile = QualityProfile(*index, s, t, thresholds);
    ASSERT_EQ(remote_profile.value().size(), local_profile.size());
    for (size_t i = 0; i < local_profile.size(); ++i) {
      EXPECT_EQ(remote_profile.value()[i].quality, local_profile[i].quality);
      EXPECT_EQ(remote_profile.value()[i].dist, local_profile[i].dist);
    }

    auto remote_path = client.Path(s, t, w);
    ASSERT_TRUE(remote_path.ok()) << remote_path.status().ToString();
    const Distance d = index->Query(s, t, w);
    if (d == kInfDistance) {
      EXPECT_TRUE(remote_path.value().empty());
    } else {
      ASSERT_EQ(remote_path.value().size(), static_cast<size_t>(d) + 1);
      EXPECT_EQ(remote_path.value().front(), s);
      EXPECT_EQ(remote_path.value().back(), t);
      EXPECT_TRUE(IsValidWPath(g, remote_path.value(), w));
    }
  }
}

// A server started without the graph cannot reconstruct routes: kPath is
// refused with kNotSupported (an Unimplemented status client-side), the
// connection keeps serving, and the label-only families still work.
TEST(WcServer, PathWithoutGraphIsUnimplemented) {
  NetFixture f = MakeNetFixture(60, 150, 5, 269);
  auto engine = std::make_shared<const QueryEngine>(f.index);
  WcServer server = StartServer(MakeQueryService(engine));
  WcClient client = ConnectTo(server);

  auto path = client.Path(0, 1, 1.0f);
  EXPECT_FALSE(path.ok());
  EXPECT_EQ(path.status().code(), StatusCode::kUnimplemented);

  auto topk = client.TopK(0, {1, 2, 3}, 1.0f, 2);
  EXPECT_TRUE(topk.ok()) << topk.status().ToString();
  auto profile = client.Profile(0, 1, {1.0f, 2.0f});
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  const BatchQueryInput& q = f.workload[0];
  auto d = client.Query(q.s, q.t, q.w);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), f.expected[0]);
  // kNotSupported is a clean refusal, not a protocol error.
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

// A batch bigger than one frame can carry must fail the CALL, not the
// connection (server-side it would be a stream-poisoning framing error).
TEST(WcClient, OversizedBatchRejectedClientSide) {
  NetFixture f = MakeNetFixture(60, 150, 10, 257);
  auto engine = std::make_shared<const QueryEngine>(f.index);
  WcServer server = StartServer(MakeQueryService(engine));
  WcClient client = ConnectTo(server);

  std::vector<BatchQueryInput> big(net::kMaxBatchQueries + 1,
                                   BatchQueryInput{0, 1, 1.0f});
  auto result = client.Batch(big);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // Nothing hit the wire; the connection is still healthy.
  auto d = client.Query(f.workload[0].s, f.workload[0].t, f.workload[0].w);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), f.expected[0]);
}

// A client may half-close after its last request and still read every
// buffered reply (the reply here is ~480 KB — far past the socket send
// buffer — so the server must keep draining after seeing EOF).
TEST(WcServer, HalfCloseStillDeliversLargeBufferedReply) {
  NetFixture f = MakeNetFixture(80, 200, 100, 251);
  auto engine = std::make_shared<const QueryEngine>(f.index);
  WcServer server = StartServer(MakeQueryService(engine));
  WcClient client = ConnectTo(server);

  std::vector<BatchQueryInput> big;
  big.reserve(120000);
  for (size_t i = 0; i < 120000; ++i) {
    big.push_back(f.workload[i % f.workload.size()]);
  }
  std::vector<uint8_t> out;
  net::AppendBatchRequest(&out, 21, big);
  ASSERT_TRUE(client.SendBytes(out.data(), out.size()).ok());
  ASSERT_TRUE(client.ShutdownSend().ok());

  auto frame = client.ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().header.type,
            static_cast<uint8_t>(MsgType::kBatchQueryReply));
  ASSERT_EQ(frame.value().payload.size(),
            sizeof(uint32_t) + sizeof(uint32_t) * big.size());
  for (size_t i : {size_t{0}, big.size() / 2, big.size() - 1}) {
    uint32_t dist;
    std::memcpy(&dist,
                frame.value().payload.data() + sizeof(uint32_t) +
                    i * sizeof(uint32_t),
                sizeof(dist));
    EXPECT_EQ(dist, f.expected[i % f.workload.size()]) << "query " << i;
  }
  EXPECT_FALSE(client.ReadRawFrame().ok());  // clean EOF after the drain
}

// ------------------------------------------------------------ malformed

struct MalformedFixture {
  MalformedFixture()
      : f(MakeNetFixture(60, 150, 20, 241)),
        engine(std::make_shared<const QueryEngine>(f.index)) {}

  /// A known-good query the corpus re-issues to prove the server (or the
  /// surviving connection) still works.
  void ExpectServes(WcClient& client) {
    const BatchQueryInput& q = f.workload[0];
    auto d = client.Query(q.s, q.t, q.w);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_EQ(d.value(), f.expected[0]);
  }

  NetFixture f;
  std::shared_ptr<const QueryEngine> engine;
};

TEST(WcServerMalformed, BadMagicGetsErrorFrameThenClose) {
  MalformedFixture fx;
  WcServer server = StartServer(MakeQueryService(fx.engine));
  WcClient client = ConnectTo(server);

  WireHeader bad = {};
  bad.magic = 0xdeadbeef;
  bad.version = net::kWireVersion;
  bad.type = static_cast<uint8_t>(MsgType::kQuery);
  bad.request_id = 7;
  ASSERT_TRUE(client.SendBytes(&bad, sizeof(bad)).ok());
  auto frame = client.ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().header.type, static_cast<uint8_t>(MsgType::kError));
  EXPECT_EQ(frame.value().header.status,
            static_cast<uint8_t>(WireError::kBadMagic));
  // The stream is poisoned; the server closes after the error frame.
  EXPECT_FALSE(client.ReadRawFrame().ok());

  WcClient fresh = ConnectTo(server);
  fx.ExpectServes(fresh);
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

TEST(WcServerMalformed, BadVersionGetsErrorFrameThenClose) {
  MalformedFixture fx;
  WcServer server = StartServer(MakeQueryService(fx.engine));
  WcClient client = ConnectTo(server);

  std::vector<uint8_t> out;
  net::AppendQueryRequest(&out, 9, 0, 1, 1.0f);
  out[4] = 0x7F;  // clobber the version field (offset 4, u16 LE)
  ASSERT_TRUE(client.SendBytes(out.data(), out.size()).ok());
  auto frame = client.ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().header.status,
            static_cast<uint8_t>(WireError::kBadVersion));
  EXPECT_FALSE(client.ReadRawFrame().ok());

  WcClient fresh = ConnectTo(server);
  fx.ExpectServes(fresh);
}

TEST(WcServerMalformed, OversizedLengthRejectedBeforeAllocation) {
  MalformedFixture fx;
  // Tiny payload cap so the probe does not need a real 16 MiB frame.
  WcServer server =
      StartServer(MakeQueryService(fx.engine), /*max_payload=*/4096);
  WcClient client = ConnectTo(server);

  WireHeader bad = {};
  bad.magic = net::kWireMagic;
  bad.version = net::kWireVersion;
  bad.type = static_cast<uint8_t>(MsgType::kBatchQuery);
  bad.request_id = 42;
  bad.payload_bytes = 0xFFFFFF00;  // never arrives; header alone rejects
  ASSERT_TRUE(client.SendBytes(&bad, sizeof(bad)).ok());
  auto frame = client.ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().header.status,
            static_cast<uint8_t>(WireError::kOversizedFrame));
  // Oversized frames keep a trustworthy header, so the id is echoed.
  EXPECT_EQ(frame.value().header.request_id, 42u);
  EXPECT_FALSE(client.ReadRawFrame().ok());

  WcClient fresh = ConnectTo(server);
  fx.ExpectServes(fresh);
}

TEST(WcServerMalformed, TruncatedFrameClosesQuietly) {
  MalformedFixture fx;
  WcServer server = StartServer(MakeQueryService(fx.engine));
  {
    WcClient client = ConnectTo(server);
    std::vector<uint8_t> out;
    net::AppendQueryRequest(&out, 5, 0, 1, 1.0f);
    // Half a header, then EOF: no reply owed, no crash allowed.
    ASSERT_TRUE(client.SendBytes(out.data(), 10).ok());
    ASSERT_TRUE(client.ShutdownSend().ok());
    EXPECT_FALSE(client.ReadRawFrame().ok());
  }
  {
    WcClient client = ConnectTo(server);
    std::vector<uint8_t> out;
    net::AppendQueryRequest(&out, 6, 0, 1, 1.0f);
    // A full header whose payload never arrives.
    ASSERT_TRUE(client.SendBytes(out.data(), sizeof(WireHeader) + 4).ok());
    ASSERT_TRUE(client.ShutdownSend().ok());
    EXPECT_FALSE(client.ReadRawFrame().ok());
  }
  WcClient fresh = ConnectTo(server);
  fx.ExpectServes(fresh);
}

TEST(WcServerMalformed, BadPayloadSizeKeepsConnectionServing) {
  MalformedFixture fx;
  WcServer server = StartServer(MakeQueryService(fx.engine));
  WcClient client = ConnectTo(server);

  uint8_t stub[5] = {1, 2, 3, 4, 5};
  std::vector<uint8_t> out;
  net::AppendFrame(&out, MsgType::kQuery, WireError::kOk, 11, stub,
                   sizeof(stub));
  ASSERT_TRUE(client.SendBytes(out.data(), out.size()).ok());
  auto frame = client.ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().header.status,
            static_cast<uint8_t>(WireError::kBadPayload));
  EXPECT_EQ(frame.value().header.request_id, 11u);
  // Frame-local error: the SAME connection keeps serving.
  fx.ExpectServes(client);
}

TEST(WcServerMalformed, BatchCountMismatchKeepsConnectionServing) {
  MalformedFixture fx;
  WcServer server = StartServer(MakeQueryService(fx.engine));
  WcClient client = ConnectTo(server);

  // Announces 10 queries but carries 2.
  std::vector<uint8_t> payload(4 + 2 * sizeof(net::QueryPayload), 0);
  uint32_t count = 10;
  std::memcpy(payload.data(), &count, sizeof(count));
  std::vector<uint8_t> out;
  net::AppendFrame(&out, MsgType::kBatchQuery, WireError::kOk, 13,
                   payload.data(), payload.size());
  ASSERT_TRUE(client.SendBytes(out.data(), out.size()).ok());
  auto frame = client.ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().header.status,
            static_cast<uint8_t>(WireError::kBadPayload));
  fx.ExpectServes(client);
}

TEST(WcServerMalformed, UnknownTypeKeepsConnectionServing) {
  MalformedFixture fx;
  WcServer server = StartServer(MakeQueryService(fx.engine));
  WcClient client = ConnectTo(server);

  std::vector<uint8_t> out;
  net::AppendFrame(&out, static_cast<MsgType>(99), WireError::kOk, 17,
                   nullptr, 0);
  ASSERT_TRUE(client.SendBytes(out.data(), out.size()).ok());
  auto frame = client.ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().header.status,
            static_cast<uint8_t>(WireError::kUnknownType));
  EXPECT_EQ(frame.value().header.request_id, 17u);
  fx.ExpectServes(client);
}

TEST(WcServerMalformed, RandomGarbageNeverCrashesTheServer) {
  MalformedFixture fx;
  WcServer server =
      StartServer(MakeQueryService(fx.engine), /*max_payload=*/1 << 16);
  Rng rng(991);
  for (size_t round = 0; round < 40; ++round) {
    auto client = WcClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    size_t len = 1 + static_cast<size_t>(rng.NextBounded(200));
    std::vector<uint8_t> garbage(len);
    for (uint8_t& b : garbage) {
      b = static_cast<uint8_t>(rng.NextBounded(256));
    }
    ASSERT_TRUE(client.value().SendBytes(garbage.data(), garbage.size()).ok());
    client.value().ShutdownSend().ok();
    // Drain whatever the server says (error frame or clean close);
    // the only requirement is that it keeps serving afterwards.
    while (client.value().ReadRawFrame().ok()) {
    }
  }
  WcClient fresh = ConnectTo(server);
  fx.ExpectServes(fresh);
}

// --------------------------------------------------------- wire goldens

/// The fixed request script the goldens pin: health, one Figure 3 query,
/// a three-query batch, stats, then the v6 families — top-k closest,
/// quality profile, and path reconstruction. Ids are deliberately explicit
/// — they are part of the pinned bytes.
std::vector<uint8_t> GoldenRequestBytes() {
  std::vector<uint8_t> out;
  net::AppendHealthRequest(&out, 1);
  net::AppendQueryRequest(&out, 2, 2, 5, 2.0f);
  const std::vector<BatchQueryInput> batch = {
      {0, 6, 1.0f}, {2, 5, 2.0f}, {1, 4, 3.0f}};
  net::AppendBatchRequest(&out, 3, batch);
  net::AppendStatsRequest(&out, 4);
  const std::vector<Vertex> candidates = {1, 2, 3, 4, 5};
  net::AppendTopKRequest(&out, 5, 0, candidates, 1.0f, 3);
  const std::vector<Quality> thresholds = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  net::AppendProfileRequest(&out, 6, 0, 4, thresholds);
  net::AppendPathRequest(&out, 7, 2, 5, 2.0f);
  return out;
}

/// Runs the golden request script against a deterministic server over the
/// checked-in Figure 3 snapshot and returns the reply stream, re-encoded
/// frame by frame (AppendFrame is byte-faithful, which this also proves).
std::vector<uint8_t> GoldenReplyBytesFromLiveServer() {
  auto index = WcIndex::LoadMmap(GoldenPath("fig3_golden.wcsnap"));
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  QueryEngineOptions options;
  options.num_threads = 1;  // deterministic stats aggregation
  // The Figure 3 edges let the golden server answer the kPath frame; the
  // snapshot itself is a v1 file with no parent quads, so the pinned stats
  // reply also locks the degraded has_parents=0 flag.
  options.graph = std::make_shared<const QualityGraph>(MakeFigure3Graph());
  auto engine = std::make_shared<const QueryEngine>(
      std::make_shared<const WcIndex>(std::move(index).value()), options);
  WcServer server = StartServer(MakeQueryService(engine));
  WcClient client = ConnectTo(server);

  std::vector<uint8_t> requests = GoldenRequestBytes();
  EXPECT_TRUE(client.SendBytes(requests.data(), requests.size()).ok());
  std::vector<uint8_t> replies;
  for (int i = 0; i < 7; ++i) {
    auto frame = client.ReadRawFrame();
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    if (!frame.ok()) break;
    net::AppendFrame(&replies,
                     static_cast<MsgType>(frame.value().header.type),
                     static_cast<WireError>(frame.value().header.status),
                     frame.value().header.request_id,
                     frame.value().payload.data(),
                     frame.value().payload.size());
  }
  return replies;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

bool RegenRequested() {
  const char* regen = std::getenv("WCSD_REGEN_WIRE_GOLDEN");
  return regen != nullptr && regen[0] == '1';
}

TEST(WireGolden, RequestEncodingIsByteStable) {
  std::vector<uint8_t> requests = GoldenRequestBytes();
  if (RegenRequested()) {
    WriteFileBytes(GoldenPath("wire_requests.bin"), requests);
  }
  std::string golden = ReadFileBytes(GoldenPath("wire_requests.bin"));
  EXPECT_EQ(std::string(requests.begin(), requests.end()), golden)
      << "the wire encoder no longer produces the golden request bytes — "
         "if the protocol changed deliberately, bump net::kWireVersion and "
         "regenerate with WCSD_REGEN_WIRE_GOLDEN=1";
}

TEST(WireGolden, ServerRepliesAreByteStable) {
  std::vector<uint8_t> replies = GoldenReplyBytesFromLiveServer();
  if (RegenRequested()) {
    WriteFileBytes(GoldenPath("wire_replies.bin"), replies);
  }
  std::string golden = ReadFileBytes(GoldenPath("wire_replies.bin"));
  EXPECT_EQ(std::string(replies.begin(), replies.end()), golden)
      << "the server no longer produces the golden reply bytes for the "
         "golden request script — if the protocol or the reply payloads "
         "changed deliberately, bump net::kWireVersion and regenerate with "
         "WCSD_REGEN_WIRE_GOLDEN=1";
}

// Decoding the pinned reply stream must yield the paper's answers — the
// semantic half of the golden contract (the byte compare is the format
// half).
TEST(WireGolden, GoldenRepliesDecodeToPaperAnswers) {
  std::string golden = ReadFileBytes(GoldenPath("wire_replies.bin"));
  const uint8_t* data = reinterpret_cast<const uint8_t*>(golden.data());
  size_t at = 0;
  auto next = [&](MsgType expected_type) -> const uint8_t* {
    WireHeader header;
    const uint8_t* payload = nullptr;
    EXPECT_EQ(net::ParseFrame(data + at, golden.size() - at,
                              net::kMaxPayloadBytes, &header, &payload),
              net::FrameStatus::kOk);
    if (payload == nullptr) return nullptr;  // stale golden: stop decoding
    EXPECT_EQ(header.type, static_cast<uint8_t>(expected_type));
    at += sizeof(WireHeader) + header.payload_bytes;
    return payload;
  };

  const uint8_t* health_payload = next(MsgType::kHealthReply);
  ASSERT_NE(health_payload, nullptr);
  net::HealthReplyPayload health;
  std::memcpy(&health, health_payload, sizeof(health));
  QualityGraph g = MakeFigure3Graph();
  EXPECT_EQ(health.num_vertices, g.NumVertices());

  const uint8_t* query_payload = next(MsgType::kQueryReply);
  ASSERT_NE(query_payload, nullptr);
  net::QueryReplyPayload query;
  std::memcpy(&query, query_payload, sizeof(query));
  EXPECT_EQ(query.dist, 2u);  // the paper's dist(2, 5 | w >= 2) spot check

  const uint8_t* batch = next(MsgType::kBatchQueryReply);
  ASSERT_NE(batch, nullptr);
  uint32_t count;
  std::memcpy(&count, batch, sizeof(count));
  EXPECT_EQ(count, 3u);

  const uint8_t* stats_payload = next(MsgType::kStatsReply);
  ASSERT_NE(stats_payload, nullptr);
  net::StatsReplyPayload stats;
  std::memcpy(&stats, stats_payload, sizeof(stats));
  EXPECT_EQ(stats.num_vertices, g.NumVertices());
  uint32_t shard_count;
  std::memcpy(&shard_count, stats_payload + sizeof(stats),
              sizeof(shard_count));
  EXPECT_EQ(shard_count, 0u);  // the golden server is unsharded
  EXPECT_EQ(stats.queries, 4u);   // 1 single + 3 batched
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);  // the golden server serves uncached
  EXPECT_EQ(stats.cache_misses, 0u);
  // v4 robustness counters: a healthy, unloaded server reports all-quiet.
  EXPECT_EQ(stats.overload_rejections, 0u);
  EXPECT_EQ(stats.deadline_rejections, 0u);
  EXPECT_EQ(stats.shard_unavailable, 0u);
  // v5: the golden server is not swappable, so its generation is 0.
  EXPECT_EQ(stats.generation, 0u);
  EXPECT_EQ(stats.draining, 0u);
  EXPECT_EQ(health.draining, 0u);
  // v6: fig3_golden.wcsnap is a v1 snapshot without parent quads, so the
  // server must report the degraded parent-less mode explicitly. The stats
  // frame precedes the kPath frame in the script, so fallbacks are 0 here.
  EXPECT_EQ(stats.has_parents, 0u);
  EXPECT_EQ(stats.path_fallbacks, 0u);

  // v6 top-k: distances from v0 at w=1 are v1:1, v3:1, v2:2 (ties break by
  // vertex id).
  const uint8_t* topk_payload = next(MsgType::kTopKReply);
  ASSERT_NE(topk_payload, nullptr);
  std::memcpy(&count, topk_payload, sizeof(count));
  ASSERT_EQ(count, 3u);
  const uint32_t expected_topk[3][2] = {{1, 1}, {3, 1}, {2, 2}};
  for (size_t i = 0; i < 3; ++i) {
    net::RankedCandidatePayload ranked;
    std::memcpy(&ranked,
                topk_payload + sizeof(count) + i * sizeof(ranked),
                sizeof(ranked));
    EXPECT_EQ(ranked.vertex, expected_topk[i][0]) << "rank " << i;
    EXPECT_EQ(ranked.dist, expected_topk[i][1]) << "rank " << i;
  }

  // v6 profile: the paper's (v0, v4) trade-off curve — d = 2/3/4 at
  // w = 1/2/3, unreachable past w = 3.
  const uint8_t* profile_payload = next(MsgType::kProfileReply);
  ASSERT_NE(profile_payload, nullptr);
  std::memcpy(&count, profile_payload, sizeof(count));
  ASSERT_EQ(count, 5u);
  const uint32_t expected_profile[5] = {2, 3, 4, kInfDistance,
                                        kInfDistance};
  for (size_t i = 0; i < 5; ++i) {
    net::ProfilePointPayload point;
    std::memcpy(&point,
                profile_payload + sizeof(count) + i * sizeof(point),
                sizeof(point));
    EXPECT_EQ(point.w, static_cast<float>(i + 1)) << "threshold " << i;
    EXPECT_EQ(point.dist, expected_profile[i]) << "threshold " << i;
  }

  // v6 path: a valid w>=2 route for the paper's dist(2, 5 | w >= 2) = 2
  // spot check — exactly dist+1 vertices, endpoints included.
  const uint8_t* path_payload = next(MsgType::kPathReply);
  ASSERT_NE(path_payload, nullptr);
  std::memcpy(&count, path_payload, sizeof(count));
  ASSERT_EQ(count, 3u);
  std::vector<Vertex> path(count);
  std::memcpy(path.data(), path_payload + sizeof(count),
              count * sizeof(Vertex));
  EXPECT_EQ(path.front(), 2u);
  EXPECT_EQ(path.back(), 5u);
  EXPECT_TRUE(IsValidWPath(g, path, 2.0f));

  EXPECT_EQ(at, golden.size());
}

// An old reader's view of the kStatsReply payload must survive every
// extension: new fields append strictly after the old layout, so decoding
// only the first 104 (v5) or 120 (v6) bytes with the old field offsets
// yields the same counters. (wire.h pins this with static_asserts; this
// test proves it against the actual pinned bytes.)
TEST(WireGolden, StatsReplyKeepsV5PrefixLayout) {
  static_assert(offsetof(net::StatsReplyPayload, has_parents) == 104,
                "v6 stats fields must append after the v5 layout");
  static_assert(offsetof(net::StatsReplyPayload, compressed) == 120,
                "v7 stats fields must append after the v6 layout");
  static_assert(sizeof(net::StatsReplyPayload) == 168,
                "v7 stats payload is the 120-byte v6 layout + 6 u64");
  std::string golden = ReadFileBytes(GoldenPath("wire_replies.bin"));
  const uint8_t* data = reinterpret_cast<const uint8_t*>(golden.data());
  // Walk to the kStatsReply frame (4th in the golden script).
  size_t at = 0;
  const uint8_t* stats_payload = nullptr;
  for (int i = 0; i < 4; ++i) {
    WireHeader header;
    const uint8_t* payload = nullptr;
    ASSERT_EQ(net::ParseFrame(data + at, golden.size() - at,
                              net::kMaxPayloadBytes, &header, &payload),
              net::FrameStatus::kOk);
    stats_payload = payload;
    at += sizeof(WireHeader) + header.payload_bytes;
  }
  ASSERT_NE(stats_payload, nullptr);
  // Decode with hand-written v5 offsets, no struct: what a v5-era reader
  // that ignores trailing bytes would compute.
  auto u64_at = [&](size_t offset) {
    uint64_t v;
    std::memcpy(&v, stats_payload + offset, sizeof(v));
    return v;
  };
  EXPECT_EQ(u64_at(0), MakeFigure3Graph().NumVertices());  // num_vertices
  EXPECT_EQ(u64_at(8), 4u);                                // queries
  EXPECT_EQ(u64_at(24), 1u);                               // batches
  EXPECT_EQ(u64_at(88), 0u);                               // generation
  EXPECT_EQ(u64_at(96), 0u);                               // draining
}

}  // namespace
}  // namespace wcsd
