#pragma once
// Deterministic sharding of a VectorStore for the serving engine.
//
// A ShardedStore hash-partitions the rows of an existing store across S
// flat shards (shard = fnv1a64(row id) % S — a stable function of the
// payload id, so the partition is identical across runs, machines and
// shard-build order).  A query fans out to every shard, takes each
// shard's exact top-k, and merges on (score desc, global row asc) — the
// same comparator FlatIndex::search uses — so the merged result is
// bit-identical (ids, texts, scores) to querying the unsharded flat
// store.  Exactness argument: any member of the global top-k is at
// worst the k-th best row of its own shard, so it survives the
// per-shard cut; scores are per-row kernel evaluations (dot_fp16 over
// the same fp16 row bits and the same query vector), independent of
// which shard holds the row.
//
// Shards take each row from VectorStore::row_vector — a flat base's
// widened fp16 row, otherwise the text re-embedded through the base
// store's embedder — so the fp16 rows at rest are the same bits the
// base index holds, whatever the base's index kind.
//
// QueryRouter bundles one ShardedStore per retrieval condition (chunk
// store + the three trace stores); the engine and callers that serve
// requests themselves resolve a condition's store through store_for.

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "index/vector_index.hpp"
#include "index/vector_store.hpp"
#include "rag/rag_pipeline.hpp"

namespace mcqa::serve {

class ShardedStore {
 public:
  /// Partition `base` into `shards` flat shards (>= 1; 0 is clamped).
  ShardedStore(const index::VectorStore& base, std::size_t shards);

  /// Exact scatter-gather top-k: bit-identical to the unsharded flat
  /// store's query(text, k).
  std::vector<index::Hit> query(std::string_view text, std::size_t k) const;
  std::vector<index::Hit> query_vector(const embed::Vector& v,
                                       std::size_t k) const;

  /// Tiled scatter-gather: each shard scans the whole batch in kTileQ
  /// query tiles (search_tiled), then results merge per query.  Entry
  /// i is bit-identical to query(texts[i], k) / query_vector(vs[i], k).
  std::vector<std::vector<index::Hit>> query_batch(
      const std::vector<std::string>& texts, std::size_t k) const;
  std::vector<std::vector<index::Hit>> query_vectors(
      const std::vector<embed::Vector>& vs, std::size_t k) const;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_size(std::size_t shard) const {
    return shards_.at(shard).global_rows.size();
  }
  std::size_t rows() const { return base_->size(); }
  const index::VectorStore& base() const { return *base_; }

  /// The partition function: shard owning payload id.
  static std::size_t shard_of(std::string_view id, std::size_t shards);

 private:
  struct Shard {
    index::FlatIndex index;
    /// Local row -> row in the base store (ascending by construction,
    /// which makes per-shard local-row tie-breaks match global ones).
    std::vector<std::size_t> global_rows;
  };

  const index::VectorStore* base_;
  std::vector<Shard> shards_;
};

class QueryRouter {
 public:
  QueryRouter(const rag::RetrievalStores& stores, std::size_t shards);

  std::size_t shard_count() const { return shard_count_; }

  /// Sharded store backing `condition`; nullptr for Baseline or when
  /// the bundle carries no store for it.
  const ShardedStore* store_for(rag::Condition condition) const;

 private:
  std::size_t shard_count_;
  std::unique_ptr<ShardedStore> chunks_;
  std::array<std::unique_ptr<ShardedStore>, trace::kTraceModeCount> traces_;
};

}  // namespace mcqa::serve
