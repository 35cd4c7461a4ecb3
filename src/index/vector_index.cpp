#include "index/vector_index.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "parallel/thread_pool.hpp"

namespace mcqa::index {

std::string_view index_kind_name(IndexKind kind) {
  switch (kind) {
    case IndexKind::kFlat:
      return "flat";
    case IndexKind::kIvfPq:
      return "ivfpq";
  }
  return "unknown";
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

// --- FlatIndex: certified scan (DESIGN.md §10) ------------------------------
//
// For a row x and a query q with int8 codes c, d and scales s_r, s_q:
//
//   x.q = s_r s_q (c.d) + (s_r c).(q - s_q d) + (x - s_r c).q
//      <= s_r s_q (c.d) + |s_r c| tau_q + rho_r |q|
//
// and dot_fp16's blocked fp32 sum lies within gamma |x| |q| of x.q,
// where gamma covers the roundings on one term's path (its product, the
// lane's adds, the combine tree).  So
//
//   U = s_r s_q (c.d) + |s_r c| tau' + slack_r |q|
//
// bounds the score dot_fp16 returns, once tau' and slack_r also absorb
// the float arithmetic that computes U (the 5u and 4u terms below).
// L = s_r s_q (c.d) - (|s_r c| tau' + slack_r |q|) bounds it from
// below.  c.d is an exact int32 sum, so U and L are the same numbers on
// every kernel table.
//
// A row is skipped only when U is strictly below a proven lower bound of
// the final k-th score: the k-th largest L seen so far (first pass), or
// the k-th exact score among rows already pushed (rerank).  Its score is
// then strictly below the final k-th score, so it cannot be among the
// (score desc, row asc) top k: the hits are the fp16 scan's, bit for bit.

namespace {

constexpr double kU = 0x1p-24;  ///< unit roundoff of float

/// Above this dim the int32 first pass could overflow (255 * 127 * n).
constexpr std::size_t kMaxCodedDim = 65536;

/// gamma_m = m u / (1 - m u): relative error bound of a float sum whose
/// every term passes through at most m roundings.
double gamma(std::size_t m) {
  const double mu = static_cast<double>(m) * kU;
  return mu / (1.0 - mu);
}

/// Roundings on one term's path through an n-element blocked sum: its
/// product, the other ceil(n / kLanes) - 1 adds of its lane, and the
/// three levels of the combine tree.
std::size_t blocked_path(std::size_t n) {
  return (n + kernels::kLanes - 1) / kernels::kLanes + 3;
}

/// Smallest float >= v, after a relative margin that covers the double
/// arithmetic that produced v (at most ~n * 2^-53 for these sums).
float round_up(double v) {
  v *= 1.0 + 0x1p-30;
  float f = static_cast<float>(v);
  if (static_cast<double>(f) < v) {
    f = std::nextafter(f, std::numeric_limits<float>::infinity());
  }
  return f;
}

/// One query's codes (written by encode_query) and bound coefficients.
struct QueryBound {
  float scale = 0.0f;        ///< s_q
  float tau = 0.0f;          ///< tau' >= (tau_q + 5u (|q| + tau_q)) (1 + 4u)
  float norm = 0.0f;         ///< >= |q|
  std::int32_t offset = 0;   ///< 128 * sum_i d_i (offset-binary rows)
  bool certified = false;    ///< false: every row is reranked
};

/// Codes d_i = round(q_i / s_q) with s_q = max|q| / 127, and the bound's
/// query terms.  A query is certified only when no score can leave the
/// finite normal range: every value finite, every nonzero |q_i| >=
/// 2^-60 (so no product of dot_fp16 or of U underflows, since nonzero
/// fp16 values are >= 2^-24), and |q| max|x| < 2^100 (so none
/// overflows).
QueryBound encode_query(const float* q, std::size_t n, float row_max_norm,
                        std::int8_t* d) {
  QueryBound out;
  if (n > kMaxCodedDim) return out;
  double m = 0.0;
  double ss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(q[i])) return out;
    const double a = std::fabs(static_cast<double>(q[i]));
    if (a != 0.0 && a < 0x1p-60) return out;
    m = std::max(m, a);
    ss += a * a;
  }
  const double norm = std::sqrt(ss);
  if (!(norm * static_cast<double>(row_max_norm) < 0x1p100)) return out;
  out.scale = static_cast<float>(m / 127.0);
  const double s = out.scale;
  double tt = 0.0;
  std::int32_t dsum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double c =
        s > 0.0 ? std::clamp(std::nearbyint(q[i] / s), -127.0, 127.0) : 0.0;
    d[i] = static_cast<std::int8_t>(c);
    dsum += static_cast<std::int32_t>(c);
    // q_i has 24 significant bits and s * c at most 31, with exponents
    // within 2^8 of each other, so the difference is exact in double.
    const double e = static_cast<double>(q[i]) - s * c;
    tt += e * e;
  }
  const double tau = std::sqrt(tt);
  out.norm = round_up(norm);
  out.tau = round_up((tau + 5.0 * kU * (norm + tau)) * (1.0 + 4.0 * kU));
  out.offset = 128 * dsum;
  out.certified = true;
  return out;
}

/// U and L of rows [0, count) of a block against one query.  Called with
/// a constant count for whole blocks, so the loop vectorizes at -O2.
template <std::size_t kCount>
void block_bounds(const std::int32_t* dots, const float* scale,
                  const float* alpha, const float* slack, const QueryBound& b,
                  std::size_t count, float* upper, float* lower) {
  const std::size_t n = kCount != 0 ? kCount : count;
  for (std::size_t r = 0; r < n; ++r) {
    const float t1 = (scale[r] * b.scale) * static_cast<float>(dots[r] - b.offset);
    const float delta = alpha[r] * b.tau + slack[r] * b.norm;
    upper[r] = t1 + delta;
    lower[r] = t1 - delta;
  }
}

struct Candidate {
  float upper;  ///< U
  std::size_t row;
};

/// Per-thread scratch of the scan, reused across calls.
struct ScanScratch {
  std::vector<std::int8_t> qcodes;
  std::vector<Candidate> cands[kernels::kTileQ];
  std::vector<float> lows[kernels::kTileQ];  ///< min-heap of the k largest L
};

ScanScratch& scan_scratch() {
  thread_local ScanScratch scratch;
  return scratch;
}

std::atomic<std::uint64_t> g_scan_queries{0};
std::atomic<std::uint64_t> g_scan_rows{0};
std::atomic<std::uint64_t> g_scan_reranked{0};

}  // namespace

FlatScanCounts flat_scan_counts() {
  return FlatScanCounts{g_scan_queries.load(std::memory_order_relaxed),
                        g_scan_rows.load(std::memory_order_relaxed),
                        g_scan_reranked.load(std::memory_order_relaxed)};
}

void FlatIndex::Codes::append(const util::fp16_t* row, std::size_t dim) {
  const std::size_t at = bytes.size();
  bytes.resize(at + dim);
  const kernels::I8RowSums sums = kernels::encode_i8(row, dim, bytes.data() + at);
  scale.push_back(sums.scale);
  if (!std::isfinite(sums.sum_x2)) {
    finite = false;
    alpha.push_back(0.0f);
    slack.push_back(0.0f);
    return;
  }
  // The float sums carry at most gamma relative error (same path as
  // dot_fp16), and e~_i = fl(x_i - fl(s c_i)) is within
  // (1 + 2u)|e~_i| + u s |c_i| of e_i.
  const double g = gamma(blocked_path(dim));
  const double norm = std::sqrt(static_cast<double>(sums.sum_x2) / (1.0 - g));
  const double code_norm = static_cast<double>(sums.scale) *
                           std::sqrt(static_cast<double>(sums.sum_c2));
  const double rho =
      (1.0 + 2.0 * kU) *
          std::sqrt(static_cast<double>(sums.sum_e2) / (1.0 - g)) +
      kU * code_norm;
  alpha.push_back(round_up(code_norm));
  slack.push_back(round_up((rho + g * norm) * (1.0 + 4.0 * kU)));
  max_norm = std::max(max_norm, round_up(norm));
}

void FlatIndex::Codes::reserve(std::size_t rows, std::size_t dim) {
  bytes.reserve(rows * dim);
  scale.reserve(rows);
  alpha.reserve(rows);
  slack.reserve(rows);
}

FlatIndex::Codes FlatIndex::Codes::of(const Fp16Rows& rows) {
  Codes out;
  out.reserve(rows.size(), rows.dim());
  for (std::size_t row = 0; row < rows.size(); ++row) {
    out.append(rows.row(row), rows.dim());
  }
  return out;
}

void FlatIndex::derive_codes() {
  if (data_.is_view()) {
    view_codes_ = std::make_shared<ViewCodes>();
  } else {
    codes_ = Codes::of(data_);
  }
}

const FlatIndex::Codes& FlatIndex::codes() const {
  if (view_codes_ == nullptr) return codes_;
  // An mmap view derives its codes on the first scan, so opening stays
  // O(1); concurrent first scans wait for one derivation.
  std::call_once(view_codes_->once,
                 [this] { view_codes_->codes = Codes::of(data_); });
  return view_codes_->codes;
}

void FlatIndex::add(const embed::Vector& v) {
  if (v.size() != dim_) throw std::invalid_argument("FlatIndex::add: dim");
  // No per-add reserve: an exact-fit reserve on every call forces a
  // full reallocate-and-copy per row (quadratic build); push_back's
  // geometric growth amortizes to linear.
  for (const float x : v) data_.push_value(util::float_to_fp16(x));
  codes_.append(data_.row(data_.size() - 1), dim_);
}

void FlatIndex::add_batch(const std::vector<embed::Vector>& vs) {
  data_.reserve(data_.size() + vs.size());
  codes_.reserve(data_.size() + vs.size(), dim_);
  for (const auto& v : vs) add(v);
}

void FlatIndex::scan(const float* const* qs, std::size_t qn, std::size_t k,
                     std::vector<SearchResult>* out) const {
  const std::size_t rows = data_.size();
  const std::size_t kk = std::min(k, rows);
  if (kk == 0) {
    for (std::size_t q = 0; q < qn; ++q) out[q].clear();
    return;
  }
  const util::fp16_t* base = data_.raw();
  ScanScratch& scratch = scan_scratch();

  // Bounds are only worth computing when some row can be left out.
  const Codes* rc = kk < rows ? &codes() : nullptr;
  QueryBound bound[kernels::kTileQ];
  const std::int8_t* dq[kernels::kTileQ];
  std::size_t slot[kernels::kTileQ];  ///< query -> first-pass column
  std::size_t cn = 0;
  scratch.qcodes.resize(qn * dim_);
  for (std::size_t q = 0; q < qn; ++q) {
    std::int8_t* d = scratch.qcodes.data() + q * dim_;
    if (rc != nullptr && rc->finite) {
      bound[q] = encode_query(qs[q], dim_, rc->max_norm, d);
    }
    if (bound[q].certified) {
      slot[q] = cn;
      dq[cn++] = d;
    }
  }

  // First pass: exact int8 dots of row blocks against the certified
  // queries, their bounds, and each query's candidates — rows whose U
  // reaches the k-th largest L seen so far.
  float floor[kernels::kTileQ];
  for (std::size_t j = 0; j < cn; ++j) {
    scratch.cands[j].clear();
    scratch.lows[j].clear();
    floor[j] = -std::numeric_limits<float>::infinity();
  }
  constexpr std::size_t kBlock = 128;
  std::int32_t dots[kernels::kTileQ * kBlock];
  float upper[kBlock];
  float lower[kBlock];
  for (std::size_t r0 = 0; cn > 0 && r0 < rows; r0 += kBlock) {
    const std::size_t nb = std::min(kBlock, rows - r0);
    kernels::dot_i8_rows(rc->bytes.data() + r0 * dim_, nb, dim_, dq, cn, dots);
    const float* sr = rc->scale.data() + r0;
    const float* ar = rc->alpha.data() + r0;
    const float* wr = rc->slack.data() + r0;
    for (std::size_t q = 0; q < qn; ++q) {
      if (!bound[q].certified) continue;
      const QueryBound& b = bound[q];
      const std::size_t j = slot[q];
      const std::int32_t* dj = dots + j * nb;
      if (nb == kBlock) {
        block_bounds<kBlock>(dj, sr, ar, wr, b, nb, upper, lower);
      } else {
        block_bounds<0>(dj, sr, ar, wr, b, nb, upper, lower);
      }
      std::vector<Candidate>& cands = scratch.cands[j];
      std::vector<float>& lows = scratch.lows[j];
      for (std::size_t r = 0; r < nb; ++r) {
        if (upper[r] < floor[j]) continue;
        cands.push_back(Candidate{upper[r], r0 + r});
        if (lows.size() < kk) {
          lows.push_back(lower[r]);
          std::push_heap(lows.begin(), lows.end(), std::greater<>());
        } else if (lower[r] > floor[j]) {
          std::pop_heap(lows.begin(), lows.end(), std::greater<>());
          lows.back() = lower[r];
          std::push_heap(lows.begin(), lows.end(), std::greater<>());
        }
        if (lows.size() == kk) floor[j] = lows.front();
      }
    }
  }

  // Rerank: dot_fp16 on each query's candidates, seeded with the kk of
  // largest U so the k-th exact score starts high.
  std::uint64_t reranked = 0;
  for (std::size_t q = 0; q < qn; ++q) {
    const float* query = qs[q];
    TopK top(kk);
    const auto push_exact = [&](std::size_t row) {
      top.push(row, kernels::dot_fp16(base + row * dim_, query, dim_));
      ++reranked;
    };
    if (!bound[q].certified) {
      // No usable bound (k covers every row, a non-finite value, or a
      // score that could overflow): every row is reranked in row order,
      // the order a NaN score needs to rank as the fp16 scan ranks it.
      for (std::size_t row = 0; row < rows; ++row) push_exact(row);
    } else {
      const std::size_t j = slot[q];
      std::vector<Candidate>& cands = scratch.cands[j];
      const float lo = floor[j];
      std::erase_if(cands, [lo](const Candidate& c) { return c.upper < lo; });
      const auto by_upper = [](const Candidate& a, const Candidate& b) {
        return a.upper > b.upper;
      };
      const std::size_t seeds = std::min(kk, cands.size());
      std::nth_element(cands.begin(),
                       cands.begin() + static_cast<std::ptrdiff_t>(seeds - 1),
                       cands.end(), by_upper);
      for (std::size_t i = 0; i < seeds; ++i) push_exact(cands[i].row);
      for (std::size_t i = seeds; i < cands.size(); ++i) {
        if (cands[i].upper < std::max(lo, top.threshold())) continue;
        push_exact(cands[i].row);
      }
    }
    out[q] = top.take_sorted();
  }
  g_scan_queries.fetch_add(qn, std::memory_order_relaxed);
  g_scan_rows.fetch_add(qn * rows, std::memory_order_relaxed);
  g_scan_reranked.fetch_add(reranked, std::memory_order_relaxed);
}

std::vector<SearchResult> FlatIndex::search(const embed::Vector& query,
                                            std::size_t k) const {
  const float* q = query.data();
  std::vector<SearchResult> out;
  scan(&q, 1, k, &out);
  return out;
}

void FlatIndex::search_block(
    const std::vector<embed::Vector>& queries, std::size_t begin,
    std::size_t end, std::size_t k,
    std::vector<std::vector<SearchResult>>& out) const {
  constexpr std::size_t kQ = kernels::kTileQ;
  const float* qs[kQ];
  for (std::size_t t = begin; t < end; t += kQ) {
    const std::size_t qn = std::min(kQ, end - t);
    for (std::size_t qi = 0; qi < qn; ++qi) qs[qi] = queries[t + qi].data();
    scan(qs, qn, k, out.data() + t);
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
