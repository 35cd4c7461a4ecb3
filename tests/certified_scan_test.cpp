// The certified flat scan (DESIGN.md §10): FlatIndex::search and
// search_block bound every row with an exact int8 first pass and score
// only the rows whose bound reaches the current k-th score.  Its top-k
// must be the full fp16 scan's, id for id and bit for bit.
//
// The reference is the full scan as FlatIndex ran it before the first
// pass existed, kept here: every row's dot_fp16 pushed into a TopK in
// row order.  Two layers check the certified scan against it:
//
//  * a table of adversarial stores, one named case each (rows at the
//    largest quantization error, queries at it, exact ties and rows one
//    ulp apart at the k-th score, a lane sum whose every add rounds up,
//    subnormal and largest-magnitude fp16 values, NaN and inf rows, zero
//    rows and queries, k = 0 and k beyond the row count, ragged dims);
//  * a property test over random stores, k, tile widths 1-8,
//    search_batch at 1/2/8 threads, resident and mmap indexes, and every
//    compiled integer body.
//
// The kernel layer is checked too: encode_i8 and dot_i8_rows agree
// across every usable table and with a plain integer sum.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <unistd.h>

#include "embed/embedder.hpp"
#include "index/kernels.hpp"
#include "index/vector_index.hpp"
#include "parallel/thread_pool.hpp"
#include "util/fp16.hpp"
#include "util/rng.hpp"

namespace mcqa::index {
namespace {

using Rows = std::vector<std::vector<float>>;

/// The full fp16 scan: every row's dot_fp16 pushed in row order.
std::vector<SearchResult> reference_search(const FlatIndex& idx,
                                           const float* q, std::size_t k) {
  TopK top(std::min(k, idx.size()));
  for (std::size_t row = 0; row < idx.size(); ++row) {
    top.push(row, kernels::dot_fp16(idx.rows().row(row), q, idx.dim()));
  }
  return top.take_sorted();
}

void expect_same(const std::vector<SearchResult>& got,
                 const std::vector<SearchResult>& want,
                 const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].row, want[i].row) << what << " rank " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i].score),
              std::bit_cast<std::uint32_t>(want[i].score))
        << what << " rank " << i << " got=" << got[i].score
        << " want=" << want[i].score;
  }
}

std::vector<std::size_t> rows_of(const std::vector<SearchResult>& hits) {
  std::vector<std::size_t> out;
  for (const auto& h : hits) out.push_back(h.row);
  return out;
}

FlatIndex make_index(std::size_t dim, const Rows& rows) {
  FlatIndex idx(dim);
  for (const auto& r : rows) idx.add(r);
  return idx;
}

/// Runs `fn` once per usable kernel table, restoring dispatch after.
template <typename Fn>
void for_each_table(Fn&& fn) {
  const kernels::KernelIsa before = kernels::dispatched_isa();
  for (const kernels::KernelOps* table : kernels::usable_ops()) {
    ASSERT_TRUE(kernels::set_dispatch_for_testing(table));
    fn(std::string(kernels::isa_name(table->isa)) + "/" +
       std::string(kernels::int8_body_name(table->int8)));
  }
  ASSERT_TRUE(kernels::set_dispatch_for_testing(before));
}

// --- the adversarial table ---------------------------------------------------

struct AdversarialCase {
  std::string name;
  std::size_t dim = 0;
  Rows rows;
  Rows queries;
  std::vector<std::size_t> ks;
  /// The fp16 scan's hits for queries[0] at ks[0], pinned so the case
  /// says what it is about (the reference comparison covers the rest).
  std::vector<std::size_t> want;
};

std::vector<float> zeros(std::size_t dim) { return std::vector<float>(dim); }

/// Rows whose every small value sits exactly half a code step off the
/// int8 grid (round-half-even keeps code 0), so the residual rho_r is
/// as large as the grid allows and parallel to the query.  Row 0's bound
/// needs its rho_r |q| term to reach row 1's on-grid score.
AdversarialCase max_quantization_error_rows() {
  constexpr std::size_t kDim = 256;
  AdversarialCase c{"MaxQuantizationErrorRows", kDim, {}, {}, {1, 2}, {0}};
  std::vector<float> a(kDim, 0x1p-8f);  // half of the 2^-7 step
  a[0] = 127 * 0x1p-7f;                 // fixes s_r = 2^-7
  std::vector<float> b = zeros(kDim);   // on the grid, a hair below a
  b[0] = 127 * 0x1p-7f;
  for (std::size_t i = 1; i <= 127; ++i) b[i] = 0x1p-7f;
  c.rows = {a, b};
  for (std::size_t f = 0; f < 6; ++f) {  // fillers well below both
    std::vector<float> neg = b;
    for (auto& x : neg) x = -x;
    neg[f + 1] = 0.0f;
    c.rows.push_back(neg);
  }
  c.queries = {std::vector<float>(kDim, 1.0f / 16)};
  return c;
}

/// A query whose every small value sits half a code step off its grid,
/// with the residual parallel to row 0: row 0's bound needs the
/// |s_r c| tau_q term to reach row 1's score.
AdversarialCase max_quantization_error_query() {
  constexpr std::size_t kDim = 256;
  AdversarialCase c{"MaxQuantizationErrorQuery", kDim, {}, {}, {1, 3}, {0}};
  std::vector<float> q(kDim, 0.5f / 127);
  q[0] = 1.0f;  // s_q = 1 / 127; every other d_i rounds 0.5 to 0
  const std::vector<float> a(kDim, 1.0f);  // on its grid, c = 127
  std::vector<float> b = zeros(kDim);      // scores 2 against a's ~2.004
  b[0] = 2.0f;
  c.rows = {a, b};
  for (std::size_t f = 0; f < 5; ++f) {
    std::vector<float> neg(kDim, -1.0f);
    neg[f] = 0.0f;
    c.rows.push_back(neg);
  }
  c.queries = {q};
  return c;
}

/// Row 0 is on the int8 grid and so is the query, so its bound is
/// s_r s_q (c.d) plus epsilon alone.  Its lane-0 sum is built so that
/// nearly every add rounds up: dot_fp16 exceeds the exact x.q by about
/// 31.7 u |x||q|, close to the 35 u the blocked path allows.  Row 1
/// scores just below row 0 with a loose bound, so it is reranked first;
/// row 0 then survives only if epsilon covers its rounding in full.
AdversarialCase rounding_at_the_kernel_bound() {
  constexpr std::size_t kDim = 256;
  constexpr double kScale = 67008.0 / 65536.0;  // 17 bits: s_q * d exact
  AdversarialCase c{"RoundingAtTheKernelBound", kDim, {}, {}, {1}, {0}};
  std::vector<float> a = zeros(kDim);
  std::vector<float> q = zeros(kDim);
  a[0] = 127.0f;
  q[0] = static_cast<float>(127 * kScale);
  q[1] = static_cast<float>(kScale);  // row 1's fine-tuning lane
  // Greedy: each lane-0 term (x = q / s_q = c, c <= 4) maximizes the
  // fp32 sum's excess over the exact one relative to |x||q|.
  float acc = a[0] * q[0];
  double exact = 127.0 * 127.0 * kScale;
  double norm2 = 127.0 * 127.0;
  for (std::size_t i = kernels::kLanes; i < kDim; i += kernels::kLanes) {
    int best = 1;
    double best_ratio = -1.0;
    for (int v = 1; v <= 4; ++v) {
      const float p = static_cast<float>(v) * static_cast<float>(v * kScale);
      const double e = exact + v * v * kScale;
      const double ratio =
          (static_cast<double>(acc + p) - e) / ((norm2 + v * v) * kScale);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = v;
      }
    }
    a[i] = static_cast<float>(best);
    q[i] = static_cast<float>(best * kScale);
    acc = acc + a[i] * q[i];
    exact += best * best * kScale;
    norm2 += best * best;
  }
  // Row 1: two values whose score lands as close below row 0's as the
  // fp16 grid allows.
  std::vector<util::fp16_t> a16(kDim);
  for (std::size_t i = 0; i < kDim; ++i) a16[i] = util::float_to_fp16(a[i]);
  const float top = kernels::dot_fp16(a16.data(), q.data(), kDim);
  std::vector<float> b = zeros(kDim);
  float best_score = -1.0f;
  for (util::fp16_t h0 = util::float_to_fp16(120.0f);
       util::fp16_to_float(h0) <= 129.0f; ++h0) {
    const float x0 = util::fp16_to_float(h0);
    for (util::fp16_t h1 = util::float_to_fp16(0.0f);
         util::fp16_to_float(h1) <= 256.0f; ++h1) {
      const float x1 = util::fp16_to_float(h1);
      const float s = (x0 * q[0]) + (x1 * q[1]);
      if (s < top && s > best_score) {
        best_score = s;
        b[0] = x0;
        b[1] = x1;
      }
    }
  }
  c.rows = {a, b};
  for (std::size_t f = 0; f < 4; ++f) {
    std::vector<float> neg = a;
    for (auto& x : neg) x = -x;
    neg[8 * (f + 1)] = 0.0f;
    c.rows.push_back(neg);
  }
  c.queries = {q};
  return c;
}

/// Identical rows straddling the k-th place (the row id breaks the tie),
/// and rows whose scores are one float ulp above and below theirs.
AdversarialCase ties_and_ulp_neighbours() {
  constexpr std::size_t kDim = 64;
  constexpr std::size_t kLast = kDim - 1;
  AdversarialCase c{"TiesAndUlpNeighbours", kDim, {}, {}, {3, 1, 2, 4, 6}, {}};
  util::Rng rng(71);
  std::vector<float> q(kDim);
  for (auto& x : q) x = static_cast<float>(rng.normal());
  embed::normalize(q);
  q[kLast] = 0.25f;  // the lane the neighbours are tuned in
  const auto narrow = [](std::vector<float> v) {
    for (auto& x : v) x = util::fp16_to_float(util::float_to_fp16(x));
    return v;
  };
  const auto score = [&](const std::vector<float>& v) {
    std::vector<util::fp16_t> h(kDim);
    for (std::size_t i = 0; i < kDim; ++i) h[i] = util::float_to_fp16(v[i]);
    return kernels::dot_fp16(h.data(), q.data(), kDim);
  };
  // `base` scores about 1.6, far above the background rows; in [1, 2)
  // the sum's last rounding is coarser than its partials', so a small
  // nudge can move it by exactly one ulp.
  std::vector<float> base(kDim);
  for (std::size_t i = 0; i < kDim; ++i) {
    base[i] = 1.6f * q[i] + static_cast<float>(rng.normal()) * 0.02f;
  }
  base[kLast] = 0.0f;
  base = narrow(base);
  for (std::size_t r = 0; r < 20; ++r) {
    if (r == 12 || r == 14 || r == 17) {
      c.rows.push_back(base);
      continue;
    }
    std::vector<float> v(kDim);
    for (auto& x : v) x = static_cast<float>(rng.normal()) * 0.05f;
    c.rows.push_back(v);
  }
  // Rows 20 and 21: base with its last value set to the fp16 subnormal
  // m * 2^-24 (or its negative) whose product moves the fp32 score by
  // exactly one ulp up (down).
  const float s0 = score(base);
  for (const float dir : {1.0f, -1.0f}) {
    const float target =
        std::nextafter(s0, dir * std::numeric_limits<float>::infinity());
    bool found = false;
    for (int m = 1; m < 1024 && !found; ++m) {
      std::vector<float> v = base;
      v[kLast] = dir * static_cast<float>(m) * 0x1p-24f;
      if (score(v) == target) {
        c.rows.push_back(v);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "no one-ulp neighbour in direction " << dir;
  }
  c.queries = {q};
  c.want = {20, 12, 14};  // the ulp-above row, then the tie by row id
  return c;
}

/// fp16 subnormals (down to 2^-24) beside 65504, the largest finite
/// fp16, in rows and a query scaled so no score overflows.
AdversarialCase subnormal_and_largest_fp16() {
  constexpr std::size_t kDim = 48;
  AdversarialCase c{"SubnormalAndLargestFp16", kDim, {}, {}, {2, 1, 5}, {}};
  util::Rng rng(72);
  for (std::size_t r = 0; r < 14; ++r) {
    std::vector<float> v(kDim);
    for (std::size_t i = 0; i < kDim; ++i) {
      switch (rng.bounded(4)) {
        case 0: v[i] = static_cast<float>(1 + rng.bounded(1023)) * 0x1p-24f; break;
        case 1: v[i] = rng.bounded(2) ? 65504.0f : -65504.0f; break;
        case 2: v[i] = static_cast<float>(rng.normal()) * 1000.0f; break;
        default: v[i] = 0x1p-24f; break;
      }
    }
    c.rows.push_back(v);
  }
  c.rows.push_back(std::vector<float>(kDim, 0x1p-24f));  // all subnormal
  c.rows.push_back(std::vector<float>(kDim, 65504.0f));  // all largest
  std::vector<float> q(kDim);
  for (auto& x : q) x = static_cast<float>(rng.normal());
  embed::normalize(q);
  std::vector<float> tiny(kDim, 1e-3f);
  tiny[3] = 1.0f;
  c.queries = {q, tiny};
  return c;
}

/// NaN, +inf and -inf values in a few rows: scores may be NaN, which
/// TopK's comparator does not order, so only the fp16 scan's own push
/// order reproduces its hits.
AdversarialCase nan_and_inf_rows() {
  constexpr std::size_t kDim = 40;
  AdversarialCase c{"NanAndInfRows", kDim, {}, {}, {3, 1, 7, 30}, {}};
  util::Rng rng(73);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t r = 0; r < 20; ++r) {
    std::vector<float> v(kDim);
    for (auto& x : v) x = static_cast<float>(rng.normal());
    if (r == 2) v[5] = nan;
    if (r == 6) v[0] = inf;
    if (r == 9) v[11] = -inf;
    if (r == 13) std::fill(v.begin(), v.end(), nan);
    c.rows.push_back(v);
  }
  std::vector<float> q(kDim);
  for (auto& x : q) x = static_cast<float>(rng.normal());
  std::vector<float> q_inf = q;
  q_inf[7] = inf;
  c.queries = {q, q_inf};
  // Pin what the fp16 scan returns for the first query at k 3.
  const FlatIndex idx = make_index(kDim, c.rows);
  c.want = rows_of(reference_search(idx, q.data(), 3));
  return c;
}

/// Zero rows tie at score 0 with a nonzero row orthogonal to the query;
/// the zero rows' bounds are exactly 0, so a scan that skipped at
/// U <= threshold would drop the lower-id zero row.  A zero query ties
/// every row at 0.
AdversarialCase zero_rows_and_zero_query() {
  constexpr std::size_t kDim = 32;
  AdversarialCase c{"ZeroRowsAndZeroQuery", kDim, {}, {}, {1, 2, 5}, {0}};
  std::vector<float> ortho = zeros(kDim);
  ortho[0] = 1.0f;
  c.rows = {zeros(kDim), ortho, zeros(kDim)};
  for (std::size_t f = 0; f < 6; ++f) {
    std::vector<float> neg = zeros(kDim);
    neg[1] = -1.0f;
    neg[2 + f] = 0.25f;
    c.rows.push_back(neg);
  }
  std::vector<float> q = zeros(kDim);
  q[1] = 1.0f;
  c.queries = {q, zeros(kDim)};
  return c;
}

/// k = 0 returns nothing; k beyond the row count returns every row.
AdversarialCase k_zero_and_beyond_rows() {
  constexpr std::size_t kDim = 16;
  AdversarialCase c{"KZeroAndBeyondRows", kDim, {}, {}, {0, 9, 40}, {}};
  util::Rng rng(74);
  for (std::size_t r = 0; r < 9; ++r) {
    std::vector<float> v(kDim);
    for (auto& x : v) x = static_cast<float>(rng.normal());
    c.rows.push_back(v);
  }
  std::vector<float> q(kDim);
  for (auto& x : q) x = static_cast<float>(rng.normal());
  c.queries = {q};
  return c;
}

/// Dims off every multiple of 32 (the int8 chunk) and of 8 (the lanes).
std::vector<AdversarialCase> ragged_dims() {
  std::vector<AdversarialCase> out;
  for (const std::size_t dim : {1u, 7u, 33u, 100u, 255u, 257u}) {
    AdversarialCase c{"RaggedDim" + std::to_string(dim), dim, {}, {}, {1, 4, 11}, {}};
    util::Rng rng(75 + dim);
    for (std::size_t r = 0; r < 70; ++r) {
      std::vector<float> v(dim);
      for (auto& x : v) x = static_cast<float>(rng.normal());
      embed::normalize(v);
      c.rows.push_back(v);
    }
    for (std::size_t i = 0; i < 9; ++i) {
      std::vector<float> q(dim);
      for (auto& x : q) x = static_cast<float>(rng.normal());
      embed::normalize(q);
      c.queries.push_back(q);
    }
    out.push_back(std::move(c));
  }
  return out;
}

const std::vector<AdversarialCase>& adversarial_cases() {
  static const std::vector<AdversarialCase> cases = [] {
    std::vector<AdversarialCase> out{
        max_quantization_error_rows(), max_quantization_error_query(),
        rounding_at_the_kernel_bound(), ties_and_ulp_neighbours(),
        subnormal_and_largest_fp16(), nan_and_inf_rows(),
        zero_rows_and_zero_query(), k_zero_and_beyond_rows()};
    for (auto& c : ragged_dims()) out.push_back(std::move(c));
    return out;
  }();
  return cases;
}

class CertifiedScanTable : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CertifiedScanTable, HitsAreTheFp16Scans) {
  const AdversarialCase& c = adversarial_cases()[GetParam()];
  const FlatIndex idx = make_index(c.dim, c.rows);
  if (!c.want.empty()) {
    EXPECT_EQ(rows_of(reference_search(idx, c.queries[0].data(), c.ks[0])),
              c.want)
        << "the case no longer builds what it is about";
  }
  for_each_table([&](const std::string& table) {
    for (const std::size_t k : c.ks) {
      std::vector<embed::Vector> qs;
      for (const auto& q : c.queries) qs.push_back(q);
      const auto tiled = idx.search_tiled(qs, k);
      for (std::size_t qi = 0; qi < qs.size(); ++qi) {
        const std::string what = c.name + " table=" + table +
                                 " k=" + std::to_string(k) +
                                 " q=" + std::to_string(qi);
        const auto want = reference_search(idx, qs[qi].data(), k);
        expect_same(idx.search(qs[qi], k), want, what + " search");
        expect_same(tiled[qi], want, what + " tiled");
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CertifiedScanTable,
    ::testing::Range<std::size_t>(0, adversarial_cases().size()),
    [](const auto& info) { return adversarial_cases()[info.param].name; });

TEST(CertifiedScanTable, KernelBoundCaseIsSharp) {
  // The rounding case only guards epsilon if its rounding really is
  // most of what epsilon allows; keep the construction honest.
  const AdversarialCase c = rounding_at_the_kernel_bound();
  const FlatIndex idx = make_index(c.dim, c.rows);
  const float got = kernels::dot_fp16(idx.rows().row(0), c.queries[0].data(), c.dim);
  double exact = 0.0;
  double xx = 0.0;
  double qq = 0.0;
  for (std::size_t i = 0; i < c.dim; ++i) {
    exact += static_cast<double>(c.rows[0][i]) * c.queries[0][i];
    xx += static_cast<double>(c.rows[0][i]) * c.rows[0][i];
    qq += static_cast<double>(c.queries[0][i]) * c.queries[0][i];
  }
  const double excess = (got - exact) / (std::sqrt(xx * qq) * 0x1p-24);
  EXPECT_GT(excess, 30.0) << "fp32 excess over x.q, in u |x||q|";
  EXPECT_LT(kernels::dot_fp16(idx.rows().row(1), c.queries[0].data(), c.dim), got);
}

// --- property test -------------------------------------------------------------

struct TempFile {
  std::filesystem::path path;
  TempFile() {
    static int counter = 0;
    path = std::filesystem::temp_directory_path() /
           ("mcqa-certified-scan-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++) + ".idx");
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

MappedIndex map_copy(const FlatIndex& idx, const TempFile& file) {
  {
    std::ofstream out(file.path, std::ios::binary);
    const std::string blob = idx.save();
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  return open_index_mmap(file.path.string());
}

/// A random store: clustered rows (many near ties), some exact
/// duplicates, values narrowed through fp16 at add.
Rows random_rows(std::size_t n, std::size_t dim, util::Rng& rng) {
  Rows centers;
  for (std::size_t c = 0; c < 1 + n / 40; ++c) {
    std::vector<float> v(dim);
    for (auto& x : v) x = static_cast<float>(rng.normal());
    embed::normalize(v);
    centers.push_back(v);
  }
  Rows out;
  for (std::size_t r = 0; r < n; ++r) {
    if (r > 0 && rng.bounded(10) == 0) {
      out.push_back(out[rng.bounded(r)]);
      continue;
    }
    std::vector<float> v = centers[rng.bounded(centers.size())];
    for (auto& x : v) x += static_cast<float>(rng.normal()) * 0.05f;
    embed::normalize(v);
    out.push_back(v);
  }
  return out;
}

TEST(CertifiedScanProperty, EqualsTheFp16ScanEverywhere) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t dims[] = {9, 32, 64, 100, 256};
    const std::size_t dim = dims[rng.bounded(5)];
    const std::size_t n = 1 + rng.bounded(700);
    const Rows data = random_rows(n, dim, rng);
    const FlatIndex idx = make_index(dim, data);
    const TempFile file;
    const MappedIndex mapped = map_copy(idx, file);
    ASSERT_TRUE(mapped.index->mmap_backed());
    std::vector<embed::Vector> queries;
    for (std::size_t i = 0; i < 21; ++i) {
      embed::Vector q = i % 3 == 0 ? embed::Vector(data[rng.bounded(n)])
                                   : embed::Vector(dim);
      if (i % 3 != 0) {
        for (auto& x : q) x = static_cast<float>(rng.normal());
        embed::normalize(q);
      }
      queries.push_back(q);
    }
    const std::size_t k = rng.bounded(2) == 0 ? 1 + rng.bounded(12)
                                              : rng.bounded(n + 4);
    std::vector<std::vector<SearchResult>> want;
    for (const auto& q : queries) want.push_back(reference_search(idx, q.data(), k));
    const std::string base = "trial=" + std::to_string(trial) +
                             " n=" + std::to_string(n) +
                             " dim=" + std::to_string(dim) +
                             " k=" + std::to_string(k);
    for_each_table([&](const std::string& table) {
      const std::vector<const VectorIndex*> indexes{&idx, mapped.index.get()};
      for (const VectorIndex* index : indexes) {
        const std::string what = base + " table=" + table +
                                 (index->mmap_backed() ? " mmap" : " resident");
        for (std::size_t i = 0; i < queries.size(); ++i) {
          expect_same(index->search(queries[i], k), want[i],
                      what + " search q=" + std::to_string(i));
        }
        for (std::size_t width = 1; width <= kernels::kTileQ; ++width) {
          std::vector<std::vector<SearchResult>> got(queries.size());
          for (std::size_t b = 0; b < queries.size(); b += width) {
            index->search_block(queries, b, std::min(b + width, queries.size()),
                                k, got);
          }
          for (std::size_t i = 0; i < queries.size(); ++i) {
            expect_same(got[i], want[i],
                        what + " width=" + std::to_string(width) +
                            " q=" + std::to_string(i));
          }
        }
        for (const std::size_t threads : {1u, 2u, 8u}) {
          parallel::ThreadPool pool(threads);
          const auto got = index->search_batch(queries, k, pool);
          for (std::size_t i = 0; i < queries.size(); ++i) {
            expect_same(got[i], want[i],
                        what + " threads=" + std::to_string(threads) +
                            " q=" + std::to_string(i));
          }
        }
      }
    });
  }
}

TEST(CertifiedScanProperty, LoadAddBatchAndViewsGiveTheSameHits) {
  util::Rng rng(2025);
  const Rows data = random_rows(300, 64, rng);
  FlatIndex one_by_one(64);
  for (const auto& r : data) one_by_one.add(r);
  FlatIndex batched(64);
  batched.add_batch(std::vector<embed::Vector>(data.begin(), data.end()));
  const std::string blob = batched.save();
  const std::unique_ptr<VectorIndex> loaded = load_index(blob);
  const std::unique_ptr<VectorIndex> viewed = load_index_view(blob);
  for (int i = 0; i < 10; ++i) {
    embed::Vector q(64);
    for (auto& x : q) x = static_cast<float>(rng.normal());
    const auto want = reference_search(one_by_one, q.data(), 7);
    const std::vector<const VectorIndex*> indexes{&one_by_one, &batched,
                                                  loaded.get(), viewed.get()};
    for (const VectorIndex* idx : indexes) {
      expect_same(idx->search(q, 7), want, "q=" + std::to_string(i));
    }
  }
}

TEST(CertifiedScanProperty, CountsQueriesRowsAndReranks) {
  util::Rng rng(2026);
  const Rows data = random_rows(500, 32, rng);
  const FlatIndex idx = make_index(32, data);
  embed::Vector q(32);
  for (auto& x : q) x = static_cast<float>(rng.normal());
  const FlatScanCounts before = flat_scan_counts();
  idx.search(q, 5);
  const FlatScanCounts after = flat_scan_counts();
  EXPECT_EQ(after.queries - before.queries, 1u);
  EXPECT_EQ(after.rows - before.rows, 500u);
  EXPECT_GE(after.reranked - before.reranked, 5u);
  EXPECT_LT(after.reranked - before.reranked, 500u);
}

// --- concurrency ---------------------------------------------------------------

TEST(CertifiedScanConcurrency, FirstScansOfOneMmapViewAgree) {
  // A mapped index derives its codes on its first scan; racing first
  // scans must all wait for the one derivation and return the same hits.
  util::Rng rng(2027);
  const Rows data = random_rows(900, 64, rng);
  const FlatIndex idx = make_index(64, data);
  std::vector<embed::Vector> queries;
  for (int i = 0; i < 8; ++i) {
    embed::Vector q(64);
    for (auto& x : q) x = static_cast<float>(rng.normal());
    queries.push_back(q);
  }
  std::vector<std::vector<SearchResult>> want;
  for (const auto& q : queries) want.push_back(reference_search(idx, q.data(), 9));
  for (int round = 0; round < 3; ++round) {
    const TempFile file;
    const MappedIndex mapped = map_copy(idx, file);
    std::vector<std::vector<std::vector<SearchResult>>> got(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t) {
      threads.emplace_back([&, t] {
        if (t % 2 == 0) {
          got[t] = mapped.index->search_tiled(queries, 9);
          return;
        }
        for (const auto& q : queries) got[t].push_back(mapped.index->search(q, 9));
      });
    }
    for (auto& th : threads) th.join();
    for (std::size_t t = 0; t < got.size(); ++t) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        expect_same(got[t][i], want[i],
                    "round=" + std::to_string(round) + " thread=" +
                        std::to_string(t) + " q=" + std::to_string(i));
      }
    }
  }
}

// --- kernel layer --------------------------------------------------------------

TEST(CertifiedScanKernels, EncodeI8AgreesAcrossTables) {
  util::Rng rng(2028);
  const std::vector<const kernels::KernelOps*> tables = kernels::usable_ops();
  for (const std::size_t n : {1u, 7u, 8u, 9u, 31u, 32u, 33u, 100u, 256u, 257u}) {
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<util::fp16_t> row(n);
      for (auto& h : row) {
        switch (trial) {
          case 0: h = 0; break;
          case 1: h = static_cast<util::fp16_t>(rng.bounded(1u << 16)); break;
          case 2: h = static_cast<util::fp16_t>(1 + rng.bounded(1023)); break;
          default:
            h = util::float_to_fp16(static_cast<float>(rng.normal()) *
                                    (trial == 3 ? 1.0f : 4000.0f));
        }
      }
      std::vector<std::uint8_t> want_codes(n);
      const kernels::I8RowSums want =
          tables[0]->encode_i8(row.data(), n, want_codes.data());
      for (const kernels::KernelOps* t : tables) {
        std::vector<std::uint8_t> codes(n);
        const kernels::I8RowSums got = t->encode_i8(row.data(), n, codes.data());
        const std::string what = "n=" + std::to_string(n) + " trial=" +
                                 std::to_string(trial) + " body=" +
                                 std::string(kernels::int8_body_name(t->int8));
        EXPECT_EQ(codes, want_codes) << what;
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got.scale),
                  std::bit_cast<std::uint32_t>(want.scale)) << what;
        // A NaN's sign and payload follow operand order, which the
        // tables' instruction selection may swap; NaN-ness may not move.
        if (std::isnan(want.sum_x2)) {
          EXPECT_TRUE(std::isnan(got.sum_x2)) << what;
        } else {
          EXPECT_EQ(std::bit_cast<std::uint32_t>(got.sum_x2),
                    std::bit_cast<std::uint32_t>(want.sum_x2)) << what;
        }
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got.sum_e2),
                  std::bit_cast<std::uint32_t>(want.sum_e2)) << what;
        EXPECT_EQ(got.sum_c2, want.sum_c2) << what;
      }
      // The codes are the rounded row: |c| <= 127, 127 at the largest.
      if (std::isfinite(want.sum_x2) && want.scale > 0.0f) {
        int top = 0;
        for (const std::uint8_t b : want_codes) {
          const int c = static_cast<int>(b) - 128;
          EXPECT_LE(std::abs(c), 127);
          top = std::max(top, std::abs(c));
        }
        EXPECT_EQ(top, 127);
      }
    }
  }
}

TEST(CertifiedScanKernels, DotI8RowsIsTheExactIntegerSum) {
  util::Rng rng(2029);
  for (const std::size_t n : {1u, 5u, 32u, 33u, 64u, 100u, 256u, 300u}) {
    for (const std::size_t rows : {1u, 3u, 8u, 9u, 17u}) {
      std::vector<std::uint8_t> codes(rows * n);
      for (auto& b : codes) b = static_cast<std::uint8_t>(1 + rng.bounded(255));
      std::vector<std::vector<std::int8_t>> queries(kernels::kTileQ,
                                                    std::vector<std::int8_t>(n));
      const std::int8_t* qs[kernels::kTileQ];
      for (std::size_t q = 0; q < kernels::kTileQ; ++q) {
        for (auto& d : queries[q]) {
          d = static_cast<std::int8_t>(static_cast<int>(rng.bounded(255)) - 127);
        }
        qs[q] = queries[q].data();
      }
      for (std::size_t qn = 1; qn <= kernels::kTileQ; ++qn) {
        for (const kernels::KernelOps* t : kernels::usable_ops()) {
          std::vector<std::int32_t> out(qn * rows);
          t->dot_i8_rows(codes.data(), rows, n, qs, qn, out.data());
          for (std::size_t q = 0; q < qn; ++q) {
            for (std::size_t r = 0; r < rows; ++r) {
              std::int64_t want = 0;
              for (std::size_t i = 0; i < n; ++i) {
                want += static_cast<std::int64_t>(codes[r * n + i]) * qs[q][i];
              }
              EXPECT_EQ(out[q * rows + r], want)
                  << "n=" << n << " rows=" << rows << " qn=" << qn
                  << " body=" << kernels::int8_body_name(t->int8);
            }
          }
        }
      }
    }
  }
}

TEST(CertifiedScanKernels, DispatchNamesTheIntegerBody) {
  const std::vector<const kernels::KernelOps*> tables = kernels::usable_ops();
  ASSERT_FALSE(tables.empty());
  EXPECT_EQ(tables.front()->isa, kernels::KernelIsa::kScalar);
  EXPECT_EQ(tables.front()->int8, kernels::Int8Body::kScalar);
  EXPECT_EQ(kernels::int8_body_name(kernels::Int8Body::kScalar), "scalar");
  EXPECT_EQ(kernels::int8_body_name(kernels::Int8Body::kAvx2), "avx2");
  EXPECT_EQ(kernels::int8_body_name(kernels::Int8Body::kVnni), "vnni");
  const kernels::KernelIsa before = kernels::dispatched_isa();
  ASSERT_TRUE(kernels::set_dispatch_for_testing(kernels::KernelIsa::kScalar));
  EXPECT_EQ(kernels::dispatched_int8_body(), kernels::Int8Body::kScalar);
  if (const kernels::KernelOps* avx2 = kernels::ops_for(kernels::KernelIsa::kAvx2)) {
    // The AVX2 ISA dispatches the best integer body the CPU runs.
    ASSERT_TRUE(kernels::set_dispatch_for_testing(kernels::KernelIsa::kAvx2));
    EXPECT_EQ(kernels::dispatched_int8_body(), avx2->int8);
    EXPECT_EQ(avx2->int8, tables.back()->int8);
  }
  ASSERT_TRUE(kernels::set_dispatch_for_testing(before));
}

}  // namespace
}  // namespace mcqa::index
