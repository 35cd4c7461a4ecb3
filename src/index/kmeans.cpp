#include "index/kmeans.hpp"

#include <algorithm>

// vector_index.hpp (not kernels.hpp directly): completes SearchResult,
// which the inline TopK members in kernels.hpp need by end of TU.
#include "index/vector_index.hpp"
#include "parallel/thread_pool.hpp"

namespace mcqa::index {

namespace {

/// parallel_for grain for a per-row pass of `row_work` multiply-adds a
/// row: a pass under 2^15 of them runs inline as one block, since the
/// pool's dispatch would cost more than it saves (a PQ subspace seeds
/// 255 centroids, and a refresh over fewer than 2,048 16-dim rows is
/// such a pass); larger passes take parallel_for's automatic grain.
std::size_t grain_for(std::size_t n, std::size_t row_work) {
  constexpr std::size_t kInlineWork = std::size_t{1} << 15;
  return n * row_work < kInlineWork ? std::max<std::size_t>(n, 1) : 0;
}

/// k-means++ style seeding: first centroid uniform, then
/// distance-biased.  Each point's best squared distance is cached and
/// refreshed against only the newest centroid (O(n*k) total, not
/// O(n*k^2)); min over the same distances in any order is exact, so the
/// picks are unchanged.  Refreshes run across the pool, one slot per
/// row; the draws stay serial.
RowStorage seed_centroids(const StridedRows& data, std::size_t k,
                          util::Rng& rng, parallel::ThreadPool& pool) {
  const std::size_t n = data.rows;
  RowStorage centroids(data.dim);
  centroids.add_row(data.row(rng.bounded(static_cast<std::uint32_t>(n))));
  std::vector<double> d2(n, 0.0);
  const std::size_t grain = grain_for(n, data.dim);
  parallel::parallel_for(
      pool, 0, n,
      [&](std::size_t i) {
        d2[i] = kernels::l2_sq(data.row(i), centroids.row(0), data.dim);
      },
      grain);
  while (centroids.size() < k) {
    double total = 0.0;
    for (const double d : d2) total += d;
    if (total <= 0.0) break;
    const std::size_t pick = rng.weighted_pick(d2);
    if (pick >= n) break;
    centroids.add_row(data.row(pick));
    const float* newest = centroids.row(centroids.size() - 1);
    parallel::parallel_for(
        pool, 0, n,
        [&](std::size_t i) {
          d2[i] = std::min(d2[i], static_cast<double>(kernels::l2_sq(
                                      data.row(i), newest, data.dim)));
        },
        grain);
  }
  return centroids;
}

enum class Metric { kDot, kL2 };

std::size_t assign(const RowStorage& centroids, const float* v, Metric metric) {
  if (metric == Metric::kDot) {
    float best = -2.0f;
    std::size_t best_c = 0;
    for (std::size_t c = 0; c < centroids.size(); ++c) {
      const float s = kernels::dot(v, centroids.row(c), centroids.dim());
      if (s > best) {
        best = s;
        best_c = c;
      }
    }
    return best_c;
  }
  float best = -1.0f;
  std::size_t best_c = 0;
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    const float d = kernels::l2_sq(v, centroids.row(c), centroids.dim());
    if (best < 0.0f || d < best) {
      best = d;
      best_c = c;
    }
  }
  return best_c;
}

RowStorage lloyd(const StridedRows& data, std::size_t k, std::size_t iters,
                 util::Rng rng, Metric metric, parallel::ThreadPool& pool) {
  const std::size_t n = data.rows;
  if (n == 0) return RowStorage(data.dim);
  RowStorage centroids = seed_centroids(data, std::min(k, n), rng, pool);

  std::vector<std::size_t> assignment(n, 0);
  std::vector<std::size_t> nearest(n, 0);
  const std::size_t grain = grain_for(n, centroids.size() * data.dim);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    // Assignment across the pool, each row into its own slot.
    parallel::parallel_for(
        pool, 0, n,
        [&](std::size_t i) {
          nearest[i] = assign(centroids, data.row(i), metric);
        },
        grain);
    const bool changed = nearest != assignment;
    assignment.swap(nearest);
    // Recompute centroids serially in row order (mean; renormalized to
    // the unit sphere for the spherical metric), so the float sums and
    // the centroid bytes do not depend on the pool width.
    std::vector<embed::Vector> sums(centroids.size(),
                                    embed::Vector(data.dim, 0.0f));
    std::vector<std::size_t> counts(centroids.size(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const float* row = data.row(i);
      for (std::size_t d = 0; d < data.dim; ++d) {
        sums[assignment[i]][d] += row[d];
      }
      ++counts[assignment[i]];
    }
    for (std::size_t c = 0; c < centroids.size(); ++c) {
      if (counts[c] == 0) continue;  // keep the stale centroid
      if (metric == Metric::kDot) {
        embed::normalize(sums[c]);
      } else {
        const float inv = 1.0f / static_cast<float>(counts[c]);
        for (float& x : sums[c]) x *= inv;
      }
      centroids.set_row(c, sums[c]);
    }
    if (!changed) break;
  }
  return centroids;
}

}  // namespace

RowStorage kmeans_spherical(const StridedRows& data, std::size_t k,
                            std::size_t iters, util::Rng rng,
                            parallel::ThreadPool& pool) {
  return lloyd(data, k, iters, rng, Metric::kDot, pool);
}

RowStorage kmeans_l2(const StridedRows& data, std::size_t k,
                     std::size_t iters, util::Rng rng,
                     parallel::ThreadPool& pool) {
  return lloyd(data, k, iters, rng, Metric::kL2, pool);
}

std::size_t nearest_dot(const RowStorage& centroids, const float* v) {
  float best = -2.0f;
  std::size_t best_c = 0;
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    const float s = kernels::dot(v, centroids.row(c), centroids.dim());
    if (s > best) {
      best = s;
      best_c = c;
    }
  }
  return best_c;
}

}  // namespace mcqa::index
