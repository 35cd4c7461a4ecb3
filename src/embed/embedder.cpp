#include "embed/embedder.hpp"

#include <cmath>

#include "parallel/thread_pool.hpp"

namespace mcqa::embed {

std::vector<Vector> Embedder::embed_batch(
    const std::vector<std::string_view>& texts,
    parallel::ThreadPool& pool) const {
  std::vector<Vector> out(texts.size());
  parallel::parallel_for(pool, 0, texts.size(),
                         [&](std::size_t i) { out[i] = embed(texts[i]); });
  return out;
}

std::vector<Vector> Embedder::embed_batch(const std::vector<std::string>& texts,
                                          parallel::ThreadPool& pool) const {
  std::vector<std::string_view> views(texts.begin(), texts.end());
  return embed_batch(views, pool);
}

void normalize(Vector& v) {
  double norm_sq = 0.0;
  for (const float x : v) norm_sq += static_cast<double>(x) * x;
  if (norm_sq <= 0.0) return;
  const auto inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
  for (float& x : v) x *= inv;
}

}  // namespace mcqa::embed
