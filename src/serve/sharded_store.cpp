#include "serve/sharded_store.hpp"

#include <algorithm>

#include "util/hash.hpp"

namespace mcqa::serve {

std::size_t ShardedStore::shard_of(std::string_view id, std::size_t shards) {
  return shards <= 1 ? 0 : util::fnv1a64(id) % shards;
}

ShardedStore::ShardedStore(const index::VectorStore& base, std::size_t shards)
    : base_(&base) {
  const std::size_t count = std::max<std::size_t>(1, shards);
  shards_.assign(count, Shard{index::FlatIndex(base.embedder().dim()), {}});
  // Rows visit shards in ascending global order, so each shard's local
  // row order is the global order restricted to its rows — per-shard
  // tie-breaks (score desc, local row asc) agree with global ones.
  for (std::size_t row = 0; row < base.size(); ++row) {
    Shard& shard = shards_[shard_of(base.id_of(row), count)];
    shard.index.add(base.row_vector(row));
    shard.global_rows.push_back(row);
  }
}

std::vector<index::Hit> ShardedStore::query(std::string_view text,
                                            std::size_t k) const {
  return query_vector(base_->embedder().embed(text), k);
}

namespace {

/// Exact merge: the comparator FlatIndex::search applies globally.
void sort_and_trim_merged(std::vector<index::SearchResult>& merged,
                          std::size_t k) {
  std::sort(merged.begin(), merged.end(),
            [](const index::SearchResult& a, const index::SearchResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.row < b.row;
            });
  if (merged.size() > k) merged.resize(k);
}

}  // namespace

std::vector<index::Hit> ShardedStore::query_vector(const embed::Vector& v,
                                                   std::size_t k) const {
  // Gather each shard's exact top-k with rows mapped back to global ids.
  std::vector<index::SearchResult> merged;
  merged.reserve(shards_.size() * k);
  for (const Shard& shard : shards_) {
    for (const auto& r : shard.index.search(v, k)) {
      merged.push_back(
          index::SearchResult{shard.global_rows[r.row], r.score});
    }
  }
  sort_and_trim_merged(merged, k);

  std::vector<index::Hit> hits;
  hits.reserve(merged.size());
  for (const auto& r : merged) {
    hits.push_back(index::Hit{base_->id_of(r.row), base_->text_of(r.row),
                              r.score});
  }
  return hits;
}

std::vector<std::vector<index::Hit>> ShardedStore::query_batch(
    const std::vector<std::string>& texts, std::size_t k) const {
  std::vector<embed::Vector> vs;
  vs.reserve(texts.size());
  for (const auto& text : texts) vs.push_back(base_->embedder().embed(text));
  return query_vectors(vs, k);
}

std::vector<std::vector<index::Hit>> ShardedStore::query_vectors(
    const std::vector<embed::Vector>& vs, std::size_t k) const {
  // Scatter: every shard scans the whole batch through its tiled path
  // (per-shard results are bit-identical to per-query search — the
  // tile-kernel contract), then each query merges exactly as in
  // query_vector.
  std::vector<std::vector<std::vector<index::SearchResult>>> per_shard;
  per_shard.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    per_shard.push_back(shard.index.search_tiled(vs, k));
  }

  std::vector<std::vector<index::Hit>> out(vs.size());
  std::vector<index::SearchResult> merged;
  for (std::size_t i = 0; i < vs.size(); ++i) {
    merged.clear();
    merged.reserve(shards_.size() * k);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      for (const auto& r : per_shard[s][i]) {
        merged.push_back(
            index::SearchResult{shards_[s].global_rows[r.row], r.score});
      }
    }
    sort_and_trim_merged(merged, k);
    out[i].reserve(merged.size());
    for (const auto& r : merged) {
      out[i].push_back(index::Hit{base_->id_of(r.row), base_->text_of(r.row),
                                  r.score});
    }
  }
  return out;
}

QueryRouter::QueryRouter(const rag::RetrievalStores& stores,
                         std::size_t shards)
    : shard_count_(std::max<std::size_t>(1, shards)) {
  if (stores.chunks != nullptr) {
    chunks_ = std::make_unique<ShardedStore>(*stores.chunks, shard_count_);
  }
  for (int m = 0; m < trace::kTraceModeCount; ++m) {
    if (stores.traces[static_cast<std::size_t>(m)] != nullptr) {
      traces_[static_cast<std::size_t>(m)] = std::make_unique<ShardedStore>(
          *stores.traces[static_cast<std::size_t>(m)], shard_count_);
    }
  }
}

const ShardedStore* QueryRouter::store_for(rag::Condition condition) const {
  switch (condition) {
    case rag::Condition::kBaseline: return nullptr;
    case rag::Condition::kChunks: return chunks_.get();
    case rag::Condition::kTraceDetailed:
      return traces_[static_cast<std::size_t>(trace::TraceMode::kDetailed)]
          .get();
    case rag::Condition::kTraceFocused:
      return traces_[static_cast<std::size_t>(trace::TraceMode::kFocused)]
          .get();
    case rag::Condition::kTraceEfficient:
      return traces_[static_cast<std::size_t>(trace::TraceMode::kEfficient)]
          .get();
  }
  return nullptr;
}

}  // namespace mcqa::serve
