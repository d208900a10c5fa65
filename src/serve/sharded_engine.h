// ShardedQueryEngine: another name for QueryEngine (serve/query_engine.h),
// which serves shard sets and whole snapshots alike (a whole snapshot is
// the one-shard tiling). Kept for code that spells the engine this way,
// such as the benchmark harness in perfbench/.

#ifndef WCSD_SERVE_SHARDED_ENGINE_H_
#define WCSD_SERVE_SHARDED_ENGINE_H_

#include "serve/query_engine.h"

namespace wcsd {

using ShardedQueryEngine = QueryEngine;

}  // namespace wcsd

#endif  // WCSD_SERVE_SHARDED_ENGINE_H_
