#include "serve/engine.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "index/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace mcqa::serve {

// --- workload ----------------------------------------------------------------

std::vector<QueryRequest> synth_workload(const WorkloadConfig& config,
                                         std::size_t records) {
  std::vector<QueryRequest> out;
  out.reserve(config.requests);
  const util::Rng base(config.seed);
  const std::vector<double> weights(config.condition_weights.begin(),
                                    config.condition_weights.end());
  for (std::size_t i = 0; i < config.requests; ++i) {
    util::Rng rng = base.fork(i);
    // The first draw is discarded: it keeps every (record, condition)
    // pair on the sequence WorkloadTest.RequestSequenceIsPinned pins.
    (void)rng.uniform();
    QueryRequest r;
    r.record = records == 0
                   ? 0
                   : rng.bounded(static_cast<std::uint32_t>(
                         std::min<std::size_t>(records, 0xffffffffu)));
    std::size_t pick = rng.weighted_pick(weights);
    if (pick >= static_cast<std::size_t>(rag::kConditionCount)) {
      pick = static_cast<std::size_t>(rag::Condition::kChunks);
    }
    r.condition = static_cast<rag::Condition>(pick);
    if (config.hot_fraction > 0.0 && records > 0) {
      util::Rng hrng(util::hash_combine(config.seed, 0x407ULL), i);
      if (hrng.uniform() < config.hot_fraction) r.record = 0;
    }
    out.push_back(r);
  }
  return out;
}

// --- engine ------------------------------------------------------------------

QueryEngine::QueryEngine(const rag::RagPipeline& rag,
                         const rag::RetrievalStores& stores,
                         const llm::ModelSpec& spec, std::size_t shards)
    : rag_(&rag), spec_(spec), router_(stores, shards) {}

std::vector<QueryResult> QueryEngine::serve(
    const std::vector<qgen::McqRecord>& records,
    const std::vector<QueryRequest>& requests,
    parallel::ThreadPool& pool) const {
  std::array<std::vector<std::size_t>, rag::kConditionCount> by_condition;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].record >= records.size()) {
      throw std::out_of_range("QueryEngine::serve: record index");
    }
    by_condition[static_cast<std::size_t>(requests[i].condition)].push_back(i);
  }
  struct Tile {
    rag::Condition condition;
    std::span<const std::size_t> members;  ///< request indexes
  };
  std::vector<Tile> tiles;
  for (int c = 0; c < rag::kConditionCount; ++c) {
    const std::vector<std::size_t>& members =
        by_condition[static_cast<std::size_t>(c)];
    for (std::size_t lo = 0; lo < members.size();
         lo += index::kernels::kTileQ) {
      tiles.push_back(Tile{
          static_cast<rag::Condition>(c),
          std::span(members).subspan(
              lo, std::min(index::kernels::kTileQ, members.size() - lo))});
    }
  }

  std::vector<QueryResult> results(requests.size());
  const auto run_tile = [&](std::size_t t) {
    const util::Stopwatch watch;
    const Tile& tile = tiles[t];
    const ShardedStore* store = router_.store_for(tile.condition);
    if (store == nullptr || store->rows() == 0) {
      // RagPipeline::prepare's baseline / empty-store path.
      for (const std::size_t i : tile.members) {
        results[i].task = records[requests[i].record].to_task();
      }
    } else {
      std::vector<std::string> texts;
      texts.reserve(tile.members.size());
      for (const std::size_t i : tile.members) {
        texts.push_back(
            rag_->query_for(records[requests[i].record], tile.condition));
      }
      const auto hits =
          store->query_batch(texts, rag_->config().top_k_for(tile.condition));
      for (std::size_t j = 0; j < tile.members.size(); ++j) {
        const std::size_t i = tile.members[j];
        results[i].task = rag_->prepare_from_hits(
            records[requests[i].record], tile.condition, spec_, hits[j]);
      }
    }
    const double ms = watch.millis();
    for (const std::size_t i : tile.members) results[i].tile_ms = ms;
  };
  parallel::parallel_for(pool, 0, tiles.size(), run_tile, 1);
  return results;
}

}  // namespace mcqa::serve
