#pragma once
// Content-hash embedding cache.
//
// Query workloads embed the same byte strings repeatedly: the
// evaluation grid embeds each question's query text once per retrieval
// condition, and served requests repeat hot questions.  CachingEmbedder
// wraps any Embedder and memoizes vectors keyed by the FNV-1a content
// hash of the text.  PipelineContext::query_embedder() puts one in
// front of the stores' text queries; the build embeds every text once,
// so it uses the encoder directly.
//
// Determinism: a hit returns a vector computed by the wrapped embedder
// for the *same bytes* (entries store their text; a 64-bit hash
// collision falls back to recomputing without caching), so results are
// identical to the uncached embedder at every thread count and for any
// hit/miss interleaving.  The cache only changes *when* a vector is
// computed, never *what* is returned.

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "embed/embedder.hpp"

namespace mcqa::embed {

struct EmbeddingCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t entries = 0;
  double hit_rate() const {
    const std::size_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class CachingEmbedder final : public Embedder {
 public:
  /// `max_entries` bounds memory: once full, new texts are computed but
  /// no longer inserted (a deterministic, order-independent policy for
  /// results — only timing changes).  0 means unbounded.
  explicit CachingEmbedder(const Embedder& base, std::size_t max_entries = 0)
      : base_(base), max_entries_(max_entries) {}

  std::size_t dim() const override { return base_.dim(); }
  Vector embed(std::string_view text) const override;

  const Embedder& base() const { return base_; }
  EmbeddingCacheStats stats() const;
  void clear();

 private:
  struct Entry {
    std::string text;  ///< collision guard: hit only on byte equality
    Vector vec;
  };

  const Embedder& base_;
  std::size_t max_entries_;
  mutable std::shared_mutex mutex_;
  mutable std::unordered_map<std::uint64_t, Entry> map_;
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
};

}  // namespace mcqa::embed
