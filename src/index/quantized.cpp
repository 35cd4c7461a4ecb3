#include "index/quantized.hpp"

#include <algorithm>
#include <stdexcept>

#include "index/kmeans.hpp"
#include "parallel/thread_pool.hpp"

namespace mcqa::index {

namespace {

/// Candidate-set size of the rerank contract.
std::size_t candidate_count(std::size_t k, std::size_t oversample,
                            std::size_t min_candidates, std::size_t n) {
  return std::min(n, std::max(min_candidates, k * oversample));
}

/// Widen one fp16 row into a float scratch row.
void widen_row(const util::fp16_t* src, float* dst, std::size_t dim) {
  for (std::size_t d = 0; d < dim; ++d) dst[d] = util::fp16_to_float(src[d]);
}

/// Per-thread float scratch (query weight vectors, ADC tables): batched
/// searches run allocation-free after warm-up.
std::vector<float>& float_scratch() {
  static thread_local std::vector<float> scratch;
  return scratch;
}

/// Tiled exact rerank over a query tile: drains each member's approx
/// candidate TopK, regroups the union by row, and scores each row ONCE
/// per querying member via dot_fp16_tile.  Bit-identical to the
/// per-query rerank loop: the tile kernel reproduces dot_fp16 exactly
/// and TopK's kept set is push-order invariant, so regrouping rows
/// across the tile cannot change any member's results.  Writes
/// out[out_base + qi] for qi in [0, qn).
void rerank_tile(const Fp16Rows& rows, std::size_t dim,
                 const float* const* qs, std::size_t qn,
                 std::vector<TopK>& approx, std::size_t kk,
                 std::vector<std::vector<SearchResult>>& out,
                 std::size_t out_base) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;  // (row, member)
  for (std::size_t qi = 0; qi < qn; ++qi) {
    for (const auto& cand : approx[qi].take_sorted()) {
      pairs.emplace_back(cand.row, qi);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  std::vector<TopK> exact(qn, TopK(kk));
  const float* sub_qs[kernels::kTileQ];
  std::size_t sub_member[kernels::kTileQ];
  float scores[kernels::kTileQ];
  std::size_t i = 0;
  while (i < pairs.size()) {
    const std::size_t row = pairs[i].first;
    std::size_t sn = 0;  // <= qn: a row appears once per member's set
    for (; i < pairs.size() && pairs[i].first == row; ++i) {
      sub_qs[sn] = qs[pairs[i].second];
      sub_member[sn] = pairs[i].second;
      ++sn;
    }
    kernels::dot_fp16_tile(rows.row(row), sub_qs, sn, dim, scores);
    for (std::size_t s = 0; s < sn; ++s) {
      exact[sub_member[s]].push(row, scores[s]);
    }
  }
  for (std::size_t qi = 0; qi < qn; ++qi) {
    out[out_base + qi] = exact[qi].take_sorted();
  }
}

}  // namespace

// --- IvfPqIndex --------------------------------------------------------------

IvfPqIndex::IvfPqIndex(std::size_t dim, IvfPqConfig config)
    : dim_(dim), config_(config), rows_(dim), codes_(0), centroids_(dim),
      codebooks_(0) {}

void IvfPqIndex::add(const embed::Vector& v) {
  if (v.size() != dim_) throw std::invalid_argument("IvfPqIndex::add: dim");
  for (const float x : v) rows_.push_value(util::float_to_fp16(x));
  built_ = false;
}

void IvfPqIndex::add_batch(const std::vector<embed::Vector>& vs) {
  rows_.reserve(rows_.size() + vs.size());
  for (const auto& v : vs) add(v);
}

void IvfPqIndex::build(parallel::ThreadPool& pool) {
  const std::size_t n = rows_.size();
  // Effective subquantizer count: largest divisor of dim <= config.m.
  m_ = std::max<std::size_t>(std::min(config_.m, dim_), 1);
  while (m_ > 1 && dim_ % m_ != 0) --m_;
  const std::size_t dsub = dim_ > 0 ? dim_ / m_ : 0;
  codebooks_ = RowStorage(dsub);
  codes_ = CodeRows(m_);
  centroids_ = RowStorage(dim_);
  lists_.clear();
  ksub_ = 0;
  if (n == 0) {
    built_ = true;
    return;
  }

  // Transient fp16->float widening: training and encoding read float
  // rows; the buffer is dropped before build returns.
  RowStorage floats(dim_);
  floats.resize_rows(n);
  float* fbase = floats.mutable_raw();
  parallel::parallel_for(pool, 0, n, [&](std::size_t i) {
    widen_row(rows_.row(i), fbase + i * dim_, dim_);
  });

  util::Rng root(config_.seed);

  // Coarse quantizer + inverted lists: spherical k-means, then each row
  // joins its max-dot centroid's list (the trainer's assignment rule).
  centroids_ = kmeans_spherical({floats.raw(), n, dim_, dim_},
                                std::min(config_.nlist, n),
                                config_.coarse_iters, root.fork(1), pool);
  std::vector<std::uint32_t> cell(n, 0);
  parallel::parallel_for(pool, 0, n, [&](std::size_t i) {
    cell[i] = static_cast<std::uint32_t>(
        nearest_dot(centroids_, floats.row(i)));
  });
  lists_.assign(centroids_.size(), {});
  for (std::size_t i = 0; i < n; ++i) {
    lists_[cell[i]].push_back(static_cast<std::uint32_t>(i));
  }

  // PQ codebooks: train each subspace on a (sorted, seeded) row sample.
  const std::size_t sample_n =
      std::min(n, std::max<std::size_t>(config_.train_sample, 1));
  RowStorage sample(dim_);
  const float* train_base = floats.raw();
  std::size_t train_stride = dim_;
  if (sample_n < n) {
    auto picks = root.fork(2).sample_indices(n, sample_n);
    std::sort(picks.begin(), picks.end());
    sample.reserve(sample_n);
    for (const std::size_t i : picks) sample.add_row(floats.row(i));
    train_base = sample.raw();
    train_stride = dim_;
  }
  ksub_ = std::min<std::size_t>({config_.ksub, sample_n, 256});
  ksub_ = std::max<std::size_t>(ksub_, 1);
  for (std::size_t j = 0; j < m_; ++j) {
    RowStorage cb = kmeans_l2({train_base + j * dsub, sample_n, dsub,
                               train_stride},
                              ksub_, config_.train_iters, root.fork(16 + j),
                              pool);
    // Seeding can exhaust distinct points early; pad to a uniform ksub_
    // by repeating centroid 0 (nearest-assignment ties break to the
    // lowest index, so padding never changes an encoding).
    for (std::size_t r = 0; r < cb.size(); ++r) codebooks_.add_row(cb.row(r));
    for (std::size_t r = cb.size(); r < ksub_; ++r) {
      codebooks_.add_row(cb.row(0));
    }
  }

  // Encode rows in parallel (disjoint pre-sized slots).
  encode_rows(pool, floats);
  built_ = true;
}

void IvfPqIndex::encode_rows(parallel::ThreadPool& pool,
                             const RowStorage& floats) {
  const std::size_t n = rows_.size();
  const std::size_t dsub = dim_ / m_;
  codes_.resize_rows(n);
  std::uint8_t* cbase = n > 0 ? codes_.mutable_raw() : nullptr;
  parallel::parallel_for(pool, 0, n, [&](std::size_t i) {
    const float* row = floats.row(i);
    std::uint8_t* dst = cbase + i * m_;
    for (std::size_t j = 0; j < m_; ++j) {
      const float* sub = row + j * dsub;
      float best = -1.0f;
      std::size_t best_c = 0;
      for (std::size_t c = 0; c < ksub_; ++c) {
        const float d =
            kernels::l2_sq(sub, codebooks_.row(j * ksub_ + c), dsub);
        if (best < 0.0f || d < best) {
          best = d;
          best_c = c;
        }
      }
      dst[j] = static_cast<std::uint8_t>(best_c);
    }
  });
}

void IvfPqIndex::build_frozen(const IvfPqIndex& donor,
                              parallel::ThreadPool& pool) {
  if (donor.dim_ != dim_ || !donor.built_ || donor.m_ == 0 ||
      donor.ksub_ == 0 || donor.centroids_.size() == 0 ||
      donor.codebooks_.size() == 0) {
    build(pool);
    return;
  }
  m_ = donor.m_;
  ksub_ = donor.ksub_;
  const std::size_t dsub = dim_ / m_;

  // Copy the trained quantizers out of the donor (it may be a view over
  // an mmap'd blob with a shorter lifetime than this index).
  centroids_ = RowStorage(dim_);
  centroids_.reserve(donor.centroids_.size());
  for (std::size_t r = 0; r < donor.centroids_.size(); ++r) {
    centroids_.add_row(donor.centroids_.row(r));
  }
  codebooks_ = RowStorage(dsub);
  codebooks_.reserve(donor.codebooks_.size());
  for (std::size_t r = 0; r < donor.codebooks_.size(); ++r) {
    codebooks_.add_row(donor.codebooks_.row(r));
  }

  codes_ = CodeRows(m_);
  lists_.clear();
  const std::size_t n = rows_.size();
  if (n == 0) {
    built_ = true;
    return;
  }

  RowStorage floats(dim_);
  floats.resize_rows(n);
  float* fbase = floats.mutable_raw();
  parallel::parallel_for(pool, 0, n, [&](std::size_t i) {
    widen_row(rows_.row(i), fbase + i * dim_, dim_);
  });

  std::vector<std::uint32_t> cell(n, 0);
  parallel::parallel_for(pool, 0, n, [&](std::size_t i) {
    cell[i] = static_cast<std::uint32_t>(
        nearest_dot(centroids_, floats.row(i)));
  });
  lists_.assign(centroids_.size(), {});
  for (std::size_t i = 0; i < n; ++i) {
    lists_[cell[i]].push_back(static_cast<std::uint32_t>(i));
  }

  encode_rows(pool, floats);
  built_ = true;
}

std::vector<SearchResult> IvfPqIndex::approx_candidates(
    const embed::Vector& query, std::size_t count) const {
  if (!built_) {
    throw std::logic_error("IvfPqIndex::search called before build()");
  }
  const std::size_t n = size();
  if (n == 0 || centroids_.size() == 0) return {};
  const std::size_t dsub = dim_ / m_;

  // Rank cells by centroid similarity; probe the top nprobe.
  TopK cell_top(std::min(config_.nprobe, centroids_.size()));
  for (std::size_t c = 0; c < centroids_.size(); ++c) {
    cell_top.push(c, kernels::dot(query.data(), centroids_.row(c), dim_));
  }
  const auto cells = cell_top.take_sorted();

  // ADC table: tab[j][c] = dot(q_sub_j, codebook[j][c]); each row then
  // scores as m table lookups (kernels::pq_lookup).
  auto& tab = float_scratch();
  tab.resize(m_ * ksub_);
  for (std::size_t j = 0; j < m_; ++j) {
    for (std::size_t c = 0; c < ksub_; ++c) {
      tab[j * ksub_ + c] = kernels::dot(query.data() + j * dsub,
                                        codebooks_.row(j * ksub_ + c), dsub);
    }
  }

  TopK top(std::min(count, n));
  for (const auto& cellr : cells) {
    for (const std::uint32_t row : lists_[cellr.row]) {
      top.push(row, kernels::pq_lookup(codes_.row(row), tab.data(), m_,
                                       ksub_));
    }
  }
  return top.take_sorted();
}

std::vector<SearchResult> IvfPqIndex::search(const embed::Vector& query,
                                             std::size_t k) const {
  const std::size_t n = size();
  const auto cands = approx_candidates(
      query,
      candidate_count(k, config_.oversample, config_.min_candidates, n));
  TopK exact(std::min(k, n));
  for (const auto& cand : cands) {
    exact.push(cand.row,
               kernels::dot_fp16(rows_.row(cand.row), query.data(), dim_));
  }
  return exact.take_sorted();
}

void IvfPqIndex::search_block(
    const std::vector<embed::Vector>& queries, std::size_t begin,
    std::size_t end, std::size_t k,
    std::vector<std::vector<SearchResult>>& out) const {
  if (!built_) {
    throw std::logic_error("IvfPqIndex::search called before build()");
  }
  const std::size_t n = size();
  if (n == 0 || centroids_.size() == 0) {
    for (std::size_t i = begin; i < end; ++i) out[i] = {};
    return;
  }
  constexpr std::size_t kQ = kernels::kTileQ;
  const std::size_t dsub = dim_ / m_;
  const std::size_t ncells = centroids_.size();
  const std::size_t nprobe = std::min(config_.nprobe, ncells);
  const std::size_t count =
      candidate_count(k, config_.oversample, config_.min_candidates, n);
  std::vector<float> tabs(kQ * m_ * ksub_);
  std::vector<TopK> cell_top(kQ, TopK(0));
  std::vector<TopK> approx(kQ, TopK(0));
  std::vector<std::pair<std::size_t, std::size_t>> probes;  // (cell, member)
  const float* qs[kQ];
  const float* tabp[kQ];
  float scores[kQ];
  for (std::size_t t = begin; t < end; t += kQ) {
    const std::size_t qn = std::min(kQ, end - t);
    for (std::size_t qi = 0; qi < qn; ++qi) {
      qs[qi] = queries[t + qi].data();
      cell_top[qi].reset(nprobe);
      approx[qi].reset(std::min(count, n));
    }

    // Rank cells: each centroid row is loaded once per tile.
    for (std::size_t c = 0; c < ncells; ++c) {
      kernels::dot_tile(centroids_.row(c), qs, qn, dim_, scores);
      for (std::size_t qi = 0; qi < qn; ++qi) {
        cell_top[qi].push(c, scores[qi]);
      }
    }

    // Per-member ADC tables (identical math to the per-query path).
    for (std::size_t qi = 0; qi < qn; ++qi) {
      float* tab = tabs.data() + qi * m_ * ksub_;
      for (std::size_t j = 0; j < m_; ++j) {
        for (std::size_t c = 0; c < ksub_; ++c) {
          tab[j * ksub_ + c] = kernels::dot(
              qs[qi] + j * dsub, codebooks_.row(j * ksub_ + c), dsub);
        }
      }
      tabp[qi] = tab;
    }

    // Scan each cell probed by ANY member once, scoring only the
    // sub-tile of members that probe it: every member scores exactly
    // the rows of its own probed cells, so candidate sets match the
    // per-query path (TopK makes the visiting order irrelevant).
    probes.clear();
    for (std::size_t qi = 0; qi < qn; ++qi) {
      for (const auto& cell : cell_top[qi].take_sorted()) {
        probes.emplace_back(cell.row, qi);
      }
    }
    std::sort(probes.begin(), probes.end());
    const float* sub_tabs[kQ];
    std::size_t sub_member[kQ];
    std::size_t i = 0;
    while (i < probes.size()) {
      const std::size_t cell = probes[i].first;
      std::size_t sn = 0;  // <= qn: nprobe distinct cells per member
      for (; i < probes.size() && probes[i].first == cell; ++i) {
        sub_tabs[sn] = tabp[probes[i].second];
        sub_member[sn] = probes[i].second;
        ++sn;
      }
      for (const std::uint32_t row : lists_[cell]) {
        kernels::pq_lookup_tile(codes_.row(row), sub_tabs, sn, m_, ksub_,
                                scores);
        for (std::size_t s = 0; s < sn; ++s) {
          approx[sub_member[s]].push(row, scores[s]);
        }
      }
    }

    rerank_tile(rows_, dim_, qs, qn, approx, std::min(k, n), out, t);
  }
}

}  // namespace mcqa::index
