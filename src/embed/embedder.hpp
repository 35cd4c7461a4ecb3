#pragma once
// Text embedding interface.
//
// Stand-in for PubMedBERT (330M parameters in the paper): any
// implementation maps text to a unit-norm float vector whose cosine
// similarity tracks topical relatedness.  Retrieval, semantic chunking
// and the vector indexes are all written against this interface.

#include <string>
#include <string_view>
#include <vector>

namespace mcqa::parallel {
class ThreadPool;
}

namespace mcqa::embed {

using Vector = std::vector<float>;

class Embedder {
 public:
  virtual ~Embedder() = default;

  virtual std::size_t dim() const = 0;

  /// Embed one text span.  Returns an L2-normalized vector of dim().
  /// Must be thread-safe: pipeline stages embed in parallel.
  virtual Vector embed(std::string_view text) const = 0;

  /// Embed a batch across `pool` workers.  Result i is identical to
  /// embed(texts[i]) at any thread count (embedding is pure, so the
  /// fan-out only changes when work runs, never what it computes).
  std::vector<Vector> embed_batch(const std::vector<std::string_view>& texts,
                                  parallel::ThreadPool& pool) const;
  std::vector<Vector> embed_batch(const std::vector<std::string>& texts,
                                  parallel::ThreadPool& pool) const;
};

/// Dot product (== cosine for unit vectors).  Defined in the similarity
/// kernel TU (index/kernels.cpp) — one blocked implementation serves
/// the indexes, the chunker and exact search alike.
float dot(const Vector& a, const Vector& b);

/// Squared Euclidean distance.  Defined in the kernel TU as well.
float l2_sq(const Vector& a, const Vector& b);

/// In-place L2 normalization; zero vectors are left untouched.
void normalize(Vector& v);

}  // namespace mcqa::embed
