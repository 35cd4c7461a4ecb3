#include "index/vector_index.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "parallel/thread_pool.hpp"

namespace mcqa::index {

std::string_view index_kind_name(IndexKind kind) {
  switch (kind) {
    case IndexKind::kFlat:
      return "flat";
    case IndexKind::kSq8:
      return "sq8";
    case IndexKind::kIvfPq:
      return "ivfpq";
  }
  return "unknown";
}

// --- build -------------------------------------------------------------------

void VectorIndex::build(parallel::ThreadPool& pool) {
  (void)pool;
  build();
}

// --- batched search ----------------------------------------------------------

std::vector<std::vector<SearchResult>> VectorIndex::search_tiled(
    const std::vector<embed::Vector>& queries, std::size_t k) const {
  std::vector<std::vector<SearchResult>> out(queries.size());
  search_block(queries, 0, queries.size(), k, out);
  return out;
}

namespace {

/// Deterministic tile-aligned block size for search_batch: a pure
/// function of (batch size, store rows, pool width) — never of timing.
/// Tasks own whole kTileQ query tiles and at least ~2^15 row-score
/// operations, so pool dispatch overhead cannot dominate small
/// (--smoke) corpora; the ceil(n / (threads * 4)) term stops blocks
/// shrinking below ~4 tasks per worker on big batches.
std::size_t batch_block_queries(std::size_t n, std::size_t rows,
                                std::size_t threads) {
  constexpr std::size_t kMinRowScores = std::size_t{1} << 15;
  const std::size_t per_query = std::max<std::size_t>(rows, 1);
  std::size_t block = (kMinRowScores + per_query - 1) / per_query;
  const std::size_t tasks = std::max<std::size_t>(threads, 1) * 4;
  block = std::max(block, (n + tasks - 1) / tasks);
  const std::size_t tile = kernels::kTileQ;
  block = (block + tile - 1) / tile * tile;
  return std::min(block, std::max<std::size_t>(n, 1));
}

}  // namespace

std::vector<std::vector<SearchResult>> VectorIndex::search_batch(
    const std::vector<embed::Vector>& queries, std::size_t k,
    parallel::ThreadPool& pool) const {
  const std::size_t n = queries.size();
  std::vector<std::vector<SearchResult>> out(n);
  if (n == 0) return out;
  const std::size_t block = batch_block_queries(n, size(), pool.thread_count());
  const std::size_t blocks = (n + block - 1) / block;
  // Each task scans a contiguous query block and writes only its own
  // result slots, so output never depends on completion order.
  parallel::parallel_for(
      pool, 0, blocks,
      [&](std::size_t b) {
        const std::size_t lo = b * block;
        search_block(queries, lo, std::min(n, lo + block), k, out);
      },
      /*grain=*/1);
  return out;
}

std::vector<std::vector<SearchResult>> VectorIndex::search_batch(
    const std::vector<embed::Vector>& queries, std::size_t k) const {
  return search_batch(queries, k, parallel::ThreadPool::global());
}

// --- FlatIndex ---------------------------------------------------------------

void FlatIndex::add(const embed::Vector& v) {
  if (v.size() != dim_) throw std::invalid_argument("FlatIndex::add: dim");
  // No per-add reserve: an exact-fit reserve on every call forces a
  // full reallocate-and-copy per row (quadratic build); push_back's
  // geometric growth amortizes to linear.
  for (const float x : v) data_.push_value(util::float_to_fp16(x));
}

void FlatIndex::add_batch(const std::vector<embed::Vector>& vs) {
  data_.reserve(data_.size() + vs.size());
  for (const auto& v : vs) add(v);
}

float FlatIndex::score_row(std::size_t row, const embed::Vector& q) const {
  return kernels::dot_fp16(data_.row(row), q.data(), dim_);
}

std::vector<SearchResult> FlatIndex::search(const embed::Vector& query,
                                            std::size_t k) const {
  const std::size_t rows = data_.size();
  TopK top(std::min(k, rows));
  const util::fp16_t* base = data_.raw();
  for (std::size_t row = 0; row < rows; ++row) {
    top.push(row, kernels::dot_fp16(base + row * dim_, query.data(), dim_));
  }
  return top.take_sorted();
}

void FlatIndex::search_block(
    const std::vector<embed::Vector>& queries, std::size_t begin,
    std::size_t end, std::size_t k,
    std::vector<std::vector<SearchResult>>& out) const {
  const std::size_t rows = data_.size();
  const std::size_t kk = std::min(k, rows);
  const util::fp16_t* base = data_.raw();
  constexpr std::size_t kQ = kernels::kTileQ;
  std::vector<TopK> tops(kQ, TopK(kk));
  const float* qs[kQ];
  float scores[kQ];
  for (std::size_t t = begin; t < end; t += kQ) {
    const std::size_t qn = std::min(kQ, end - t);
    for (std::size_t qi = 0; qi < qn; ++qi) {
      qs[qi] = queries[t + qi].data();
      tops[qi].reset(kk);
    }
    // One pass over the rows: each fp16 row is widened once and scored
    // against the whole tile; dot_fp16_tile keeps every per-query score
    // bit-identical to the single-query kernel search() uses.
    for (std::size_t row = 0; row < rows; ++row) {
      kernels::dot_fp16_tile(base + row * dim_, qs, qn, dim_, scores);
      for (std::size_t qi = 0; qi < qn; ++qi) tops[qi].push(row, scores[qi]);
    }
    for (std::size_t qi = 0; qi < qn; ++qi) {
      out[t + qi] = tops[qi].take_sorted();
    }
  }
}

embed::Vector FlatIndex::vector(std::size_t row) const {
  embed::Vector out(dim_);
  const util::fp16_t* src = data_.row(row);
  for (std::size_t i = 0; i < dim_; ++i) out[i] = util::fp16_to_float(src[i]);
  return out;
}

// --- Ground truth helpers ------------------------------------------------------

std::vector<SearchResult> exact_search(const std::vector<embed::Vector>& data,
                                       const embed::Vector& query,
                                       std::size_t k) {
  TopK top(std::min(k, data.size()));
  for (std::size_t i = 0; i < data.size(); ++i) {
    top.push(i, embed::dot(data[i], query));
  }
  return top.take_sorted();
}

double recall_at_k(const std::vector<SearchResult>& got,
                   const std::vector<SearchResult>& want) {
  if (want.empty()) return 1.0;
  std::unordered_set<std::size_t> want_rows;
  for (const auto& r : want) want_rows.insert(r.row);
  std::size_t hits = 0;
  for (const auto& r : got) hits += want_rows.contains(r.row) ? 1 : 0;
  return static_cast<double>(hits) / static_cast<double>(want.size());
}

}  // namespace mcqa::index
