#pragma once
// Vector store: ids + payload text + a similarity index.
//
// The paper's retrieval databases — one store of paper-derived chunks,
// and one store per reasoning-trace mode — are FAISS indexes keyed back
// to JSON records.  VectorStore is that binding: add(id, text) embeds
// and indexes; query(text, k) returns the payloads RAG will paste into
// the prompt.  query_batch scans a question block on the calling
// thread through VectorIndex::search_tiled — the evaluation grid fills
// each block of its retrieval plans that way.

#include <memory>
#include <string>
#include <vector>

#include "embed/embedder.hpp"
#include "index/vector_index.hpp"

namespace mcqa::parallel {
class ThreadPool;
}

namespace mcqa::index {

struct Hit {
  std::string id;
  std::string text;
  float score = 0.0f;
};

class VectorStore {
 public:
  VectorStore(const embed::Embedder& embedder, IndexKind kind = IndexKind::kFlat);

  /// Embed and stage one payload.
  void add(std::string id, std::string text);

  /// Bulk construction: embeds all texts across `pool` (embedding is
  /// thread-safe by contract), then inserts rows sequentially in input
  /// order — the resulting store is bit-identical to calling
  /// add(ids[i], texts[i]) in a loop, at any thread count.
  void add_batch(std::vector<std::string> ids, std::vector<std::string> texts,
                 parallel::ThreadPool& pool);

  /// Bulk construction from embeddings computed elsewhere (the overlapped
  /// executor embeds chunk-by-chunk as upstream stages produce them).
  /// `vectors[i]` must equal `embedder().embed(texts[i])` — the store is
  /// then bit-identical to the add_batch path; dimension is checked.
  void add_precomputed(std::vector<std::string> ids,
                       std::vector<std::string> texts,
                       const std::vector<embed::Vector>& vectors);

  /// Finalize the underlying index (required before any query) on one
  /// worker of the store's own, never on a pool the caller may be
  /// running in.  Pipeline builds use build_delta on their pool.
  void build();

  /// Delta-aware finalization for incremental rebuilds, on `pool`.  For
  /// an IVF-PQ store whose row set changed by at most
  /// `retrain_threshold` (fraction of rows) relative to `donor` — an
  /// older built store of the same kind and dimension — the quantizers
  /// are NOT retrained: rows are re-assigned and re-encoded against the
  /// donor's frozen coarse centroids and PQ codebooks
  /// (IvfPqIndex::build_frozen).  Query results stay exact either way
  /// (the fp16 rerank contract does not care how codes were trained),
  /// but the saved bytes of a frozen-codebook store may differ from a
  /// cold retrain's.  Every other index kind — and any unusable donor —
  /// falls through to a plain build, whose output is byte-identical to
  /// build()'s.  Call it from outside `pool`: training waits on it.
  void build_delta(const VectorStore* donor, double changed_fraction,
                   double retrain_threshold, parallel::ThreadPool& pool);

  /// Serialize the built store: ids, payload texts and the index blob
  /// (index_io formats).  Deterministic bytes for a deterministic store.
  std::string save() const;

  /// Rebuild a store from save() output.  `embedder` must be the same
  /// encoder the store was built with (queries re-embed through it).
  static VectorStore load(const embed::Embedder& embedder,
                          std::string_view blob);

  /// Open a saved store straight from disk with the index payload
  /// memory-mapped: ids and texts are materialized, but the index's
  /// row/code blocks stay views over the mapping — O(1) in the vector
  /// payload size, so stores larger than RAM open instantly.  The store
  /// owns the mapping; queries are identical to a load()ed store.
  static VectorStore open_mmap(const embed::Embedder& embedder,
                               const std::string& path);

  IndexKind kind() const { return kind_; }

  /// True when the index payload views an mmap'd file (open_mmap path).
  bool mmap_backed() const { return index_ && index_->mmap_backed(); }

  std::vector<Hit> query(std::string_view text, std::size_t k) const;

  /// Query with a precomputed embedding.
  std::vector<Hit> query_vector(const embed::Vector& v, std::size_t k) const;

  /// Batched query on the calling thread: embeds every text, then one
  /// VectorIndex::search_tiled reads each row once per kTileQ queries.
  /// Result i is identical to query(texts[i], k).
  std::vector<std::vector<Hit>> query_batch(
      const std::vector<std::string>& texts, std::size_t k) const;

  std::size_t size() const { return ids_.size(); }
  const std::string& text_of(std::size_t row) const { return texts_.at(row); }
  const std::string& id_of(std::size_t row) const { return ids_.at(row); }

  /// The embedder queries go through.  Sharded and live serving embed
  /// queries through the same embedder so their scores stay
  /// bit-identical to this store's.
  const embed::Embedder& embedder() const { return embedder_; }

  /// A vector that re-indexes `row` exactly: every index kind stores
  /// fp16 at add, and this vector narrows to the row's fp16 bits.  A
  /// flat index widens its stored row; other kinds re-embed the text.
  /// Sharded and live serving seed their indexes from it.
  embed::Vector row_vector(std::size_t row) const;

  /// FP16-equivalent storage footprint of the embedded vectors.
  std::size_t embedding_bytes() const {
    return ids_.size() * embedder_.dim() * 2;
  }

 private:
  static VectorStore load_parsed(const embed::Embedder& embedder,
                                 std::string_view blob, bool view);

  std::vector<Hit> hits_for(const std::vector<SearchResult>& results) const;

  const embed::Embedder& embedder_;
  IndexKind kind_ = IndexKind::kFlat;
  std::unique_ptr<VectorIndex> index_;
  std::shared_ptr<MappedFile> backing_;  ///< keeps mmap views alive
  std::vector<std::string> ids_;
  std::vector<std::string> texts_;
  bool built_ = false;
};

}  // namespace mcqa::index
