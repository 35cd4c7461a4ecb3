#pragma once
// Online RAG query serving: the offline pipeline's stores answering
// batches of requests on a pool.
//
// QueryEngine::serve splits the requests by condition, keeping request
// order within each condition, cuts each condition's list into tiles of
// index::kernels::kTileQ requests and runs the tiles with
// parallel::parallel_for.  A tile is one ShardedStore::query_batch (the
// shards scan the tile's queries together) followed by one
// RagPipeline::prepare_from_hits per member, written into the member's
// own result slot.  Tiled scatter-gather is bit-identical to the
// per-query scan and slots are disjoint, so every task equals
// RagPipeline::prepare for the same (record, condition, spec) at any
// pool width.  The one timing a result carries is the steady-clock
// time of its tile.

#include <array>
#include <cstdint>
#include <vector>

#include "llm/model_spec.hpp"
#include "qgen/mcq_record.hpp"
#include "rag/rag_pipeline.hpp"
#include "serve/sharded_store.hpp"

namespace mcqa::parallel {
class ThreadPool;
}

namespace mcqa::serve {

struct QueryRequest {
  std::size_t record = 0;  ///< index into the served record set
  rag::Condition condition = rag::Condition::kChunks;
};

struct QueryResult {
  llm::McqTask task;
  /// Steady-clock milliseconds the request's tile took (retrieval plus
  /// assembly of every member).
  double tile_ms = 0.0;
};

struct WorkloadConfig {
  std::size_t requests = 512;
  /// Condition mix, indexed by rag::Condition.
  std::array<double, rag::kConditionCount> condition_weights{
      0.10, 0.40, 0.20, 0.15, 0.15};
  /// Fraction of requests redirected to record 0 (a hot key).  Drawn
  /// from an independent stream; 0.0 leaves the record picks untouched.
  double hot_fraction = 0.0;
  std::uint64_t seed = 0x10ad5ULL;
};

/// Deterministic synthetic request list: record and condition picked
/// per request index from forked Rng streams.  `records` is the size of
/// the served record set.
std::vector<QueryRequest> synth_workload(const WorkloadConfig& config,
                                         std::size_t records);

class QueryEngine {
 public:
  /// `stores` must outlive the engine (shards reference their base
  /// stores); `rag` assembles tasks from the sharded hits.
  QueryEngine(const rag::RagPipeline& rag, const rag::RetrievalStores& stores,
              const llm::ModelSpec& spec, std::size_t shards);

  /// Serve `requests` against `records` on `pool`.  Result i belongs to
  /// requests[i]; its task equals RagPipeline::prepare for the same
  /// (record, condition, spec) at any pool width.
  std::vector<QueryResult> serve(const std::vector<qgen::McqRecord>& records,
                                 const std::vector<QueryRequest>& requests,
                                 parallel::ThreadPool& pool) const;

 private:
  const rag::RagPipeline* rag_;
  llm::ModelSpec spec_;
  QueryRouter router_;
};

}  // namespace mcqa::serve
