#pragma once
// Seeded k-means for IvfPqIndex: the coarse quantizer and the product
// quantizer's per-subspace codebooks.
//
// Seeded k-means++: distance-biased seeding over squared L2, then Lloyd
// iterations.  Two metric flavours:
//   * spherical — assignment by max inner product, centroid update =
//     renormalized mean (unit-norm embedding rows; the coarse
//     quantizer), and
//   * l2 — assignment by min squared Euclidean distance, centroid
//     update = plain mean (PQ sub-vectors are not unit-norm).
//
// Determinism: all stochastic choices come from the caller's Rng
// (streams keyed by stable ids upstream).  The per-row distance and
// assignment passes run across the caller's pool, each row writing its
// own slot (a pass under 2^15 multiply-adds runs inline); the seeding
// draws and the centroid sums stay serial in row order, and nothing
// reads wall-clock or global state, so codebooks are byte-stable across
// runs, pool widths, and add/add_batch construction order.

#include <cstddef>
#include <vector>

#include "index/row_storage.hpp"
#include "util/rng.hpp"

namespace mcqa::parallel {
class ThreadPool;
}

namespace mcqa::index {

/// Row accessor over strided caller memory: row i starts at
/// base + i * stride and spans `dim` floats.  Lets PQ train on the m-th
/// sub-vector of each sample row without materializing sub-matrices.
struct StridedRows {
  const float* base = nullptr;
  std::size_t rows = 0;
  std::size_t dim = 0;
  std::size_t stride = 0;  ///< floats between consecutive rows

  const float* row(std::size_t i) const { return base + i * stride; }
};

/// Spherical k-means (k-means++ seeding, Lloyd with inner-product
/// assignment and renormalized means).  Returns min(k, data.rows)
/// centroids, or fewer when seeding exhausts distinct points.
RowStorage kmeans_spherical(const StridedRows& data, std::size_t k,
                            std::size_t iters, util::Rng rng,
                            parallel::ThreadPool& pool);

/// Euclidean k-means (same seeding, Lloyd with L2 assignment and plain
/// means) — the PQ codebook trainer.
RowStorage kmeans_l2(const StridedRows& data, std::size_t k,
                     std::size_t iters, util::Rng rng,
                     parallel::ThreadPool& pool);

/// Nearest centroid of `v` by max inner product (ties -> lowest index);
/// the assignment rule of the spherical trainer and the IVF-PQ lists.
std::size_t nearest_dot(const RowStorage& centroids, const float* v);

}  // namespace mcqa::index
