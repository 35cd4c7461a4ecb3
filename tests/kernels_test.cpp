// Tests for the blocked similarity-kernel layer: bit-exact equivalence
// against a reference implementation of the fixed lane order, bounded
// top-k selection, contiguous row storage, and batched search identity
// across thread counts.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>

#include "embed/hashed_embedder.hpp"
#include "index/kernels.hpp"
#include "index/quantized.hpp"
#include "index/row_storage.hpp"
#include "index/vector_index.hpp"
#include "index/vector_store.hpp"
#include "parallel/thread_pool.hpp"
#include "util/fp16.hpp"
#include "util/rng.hpp"

namespace mcqa::index {
namespace {

// --- reference implementations of the determinism contract -------------------
// Written independently of kernels.cpp: 8 lanes, lane l takes elements
// l, l+8, ...; combined as ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).

float ref_dot(const float* a, const float* b, std::size_t n) {
  float lane[8] = {};
  for (std::size_t i = 0; i < n; ++i) lane[i % 8] += a[i] * b[i];
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

float ref_l2_sq(const float* a, const float* b, std::size_t n) {
  float lane[8] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const float d = a[i] - b[i];
    lane[i % 8] += d * d;
  }
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

std::vector<float> random_row(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

std::vector<embed::Vector> random_unit_vectors(std::size_t n, std::size_t dim,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<embed::Vector> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    embed::Vector v(dim);
    for (auto& x : v) x = static_cast<float>(rng.normal());
    embed::normalize(v);
    out.push_back(std::move(v));
  }
  return out;
}

void expect_bit_equal(float got, float want, std::size_t n) {
  EXPECT_EQ(std::bit_cast<std::uint32_t>(got),
            std::bit_cast<std::uint32_t>(want))
      << "n=" << n << " got=" << got << " want=" << want;
}

// Dims below, at, and off the 8-float lane width, odd dims, and a
// PubMedBERT-sized row.
const std::size_t kDims[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17,
                             31, 63, 255, 256, 768};

TEST(Kernels, DotBitIdenticalToReferenceLaneOrder) {
  util::Rng rng(11);
  for (const std::size_t n : kDims) {
    const auto a = random_row(n, rng);
    const auto b = random_row(n, rng);
    expect_bit_equal(kernels::dot(a.data(), b.data(), n),
                     ref_dot(a.data(), b.data(), n), n);
  }
}

TEST(Kernels, L2BitIdenticalToReferenceLaneOrder) {
  util::Rng rng(12);
  for (const std::size_t n : kDims) {
    const auto a = random_row(n, rng);
    const auto b = random_row(n, rng);
    expect_bit_equal(kernels::l2_sq(a.data(), b.data(), n),
                     ref_l2_sq(a.data(), b.data(), n), n);
  }
}

TEST(Kernels, DotFp16MatchesDequantizeThenDot) {
  util::Rng rng(13);
  for (const std::size_t n : kDims) {
    const auto raw = random_row(n, rng);
    const auto b = random_row(n, rng);
    std::vector<util::fp16_t> a(n);
    std::vector<float> widened(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = util::float_to_fp16(raw[i]);
      widened[i] = util::fp16_to_float(a[i]);
    }
    expect_bit_equal(kernels::dot_fp16(a.data(), b.data(), n),
                     ref_dot(widened.data(), b.data(), n), n);
  }
}

TEST(Kernels, Fp16TableCoversAllFinitePatterns) {
  // Every one of the 65536 codes, inf and NaN included: the dispatched
  // kernel widens code h exactly as util::fp16_to_float does (a
  // one-element row against 1.0f is 0 + widen(h) * 1), and
  // fp16_to_float itself widens as vcvtph2ps does — finite codes and
  // infinities round-trip through float_to_fp16, and a NaN keeps its
  // sign and payload and comes out quiet (float bit 22 set, as the
  // hardware sets it on a signalling NaN).
  const float one = 1.0f;
  for (std::uint32_t h = 0; h < (1u << 16); ++h) {
    const auto code = static_cast<util::fp16_t>(h);
    const float widened = util::fp16_to_float(code);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(kernels::dot_fp16(&code, &one, 1)),
              std::bit_cast<std::uint32_t>(ref_dot(&widened, &one, 1)))
        << "code " << h;
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(widened);
    if ((h & 0x7c00u) == 0x7c00u && (h & 0x3ffu) != 0) {
      EXPECT_EQ(bits, ((h & 0x8000u) << 16) | 0x7fc00000u |
                          ((h & 0x3ffu) << 13))
          << "code " << h;
    } else {
      EXPECT_EQ(util::float_to_fp16(widened), code) << "code " << h;
    }
  }
}

TEST(Kernels, ZeroVectorsAndZeroLength) {
  const std::vector<float> zeros(16, 0.0f);
  const std::vector<float> other{1.0f, -2.0f, 3.0f, -4.0f, 5.0f, -6.0f,
                                 7.0f, -8.0f, 9.0f, -1.0f, 2.0f, -3.0f,
                                 4.0f, -5.0f, 6.0f, -7.0f};
  EXPECT_EQ(kernels::dot(zeros.data(), other.data(), 16), 0.0f);
  EXPECT_EQ(kernels::dot(other.data(), other.data(), 0), 0.0f);
  EXPECT_EQ(kernels::l2_sq(zeros.data(), zeros.data(), 16), 0.0f);
  const std::vector<util::fp16_t> zero16(16, 0);
  EXPECT_EQ(kernels::dot_fp16(zero16.data(), other.data(), 16), 0.0f);
}

// --- TopK -------------------------------------------------------------------

std::vector<SearchResult> ref_sort_and_trim(std::vector<SearchResult> all,
                                            std::size_t k) {
  std::sort(all.begin(), all.end(),
            [](const SearchResult& a, const SearchResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.row < b.row;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(TopK, MatchesFullSortWithDuplicateScores) {
  util::Rng rng(21);
  for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                              std::size_t{10}, std::size_t{64}}) {
    std::vector<SearchResult> all;
    TopK top(k);
    for (std::size_t row = 0; row < 200; ++row) {
      // Coarse quantization forces score ties so the row tie-break runs.
      const float score =
          static_cast<float>(rng.bounded(16)) / 16.0f;
      all.push_back({row, score});
      top.push(row, score);
    }
    const auto want = ref_sort_and_trim(all, k);
    const auto got = top.take_sorted();
    ASSERT_EQ(got.size(), want.size()) << "k=" << k;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].row, want[i].row) << "k=" << k << " i=" << i;
      EXPECT_EQ(got[i].score, want[i].score);
    }
  }
}

TEST(TopK, BoundaryCapacities) {
  TopK zero(0);
  zero.push(1, 0.5f);
  EXPECT_TRUE(zero.take_sorted().empty());

  TopK bigger(10);
  bigger.push(3, 0.1f);
  bigger.push(1, 0.9f);
  const auto out = bigger.take_sorted();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].row, 1u);
  EXPECT_EQ(out[1].row, 3u);
}

TEST(TopK, ResetReusesSelector) {
  TopK top(2);
  top.push(0, 0.3f);
  top.push(1, 0.7f);
  top.push(2, 0.5f);
  EXPECT_EQ(top.take_sorted().size(), 2u);
  top.reset(1);
  top.push(5, 0.2f);
  top.push(6, 0.8f);
  const auto out = top.take_sorted();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row, 6u);
}

// --- RowStorage -------------------------------------------------------------

TEST(RowStorage, ContiguousLayoutAndAccessors) {
  RowStorage rows(3);
  const float a[] = {1.0f, 2.0f, 3.0f};
  const float b[] = {4.0f, 5.0f, 6.0f};
  rows.add_row(a);
  rows.add_row(b);
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows.row(1)[0], 4.0f);
  EXPECT_EQ(rows.row(1) - rows.row(0), 3);  // truly contiguous
  EXPECT_EQ(rows.row(0)[2], 3.0f);
  rows.set_row(0, {7.0f, 8.0f, 9.0f});
  EXPECT_EQ(rows.raw()[0], 7.0f);
  EXPECT_THROW(rows.set_row(1, embed::Vector(2, 0.0f)), std::invalid_argument);
}

// --- batched search ----------------------------------------------------------

std::unique_ptr<VectorIndex> make_index(IndexKind kind, std::size_t dim) {
  switch (kind) {
    case IndexKind::kFlat: return std::make_unique<FlatIndex>(dim);
    case IndexKind::kIvfPq: return std::make_unique<IvfPqIndex>(dim);
  }
  return nullptr;
}

class BatchedSearch : public ::testing::TestWithParam<IndexKind> {};

TEST_P(BatchedSearch, IdenticalToSequentialAtAnyThreadCount) {
  constexpr std::size_t kDim = 24;
  constexpr std::size_t kK = 7;
  const auto data = random_unit_vectors(600, kDim, 31);
  const auto queries = random_unit_vectors(40, kDim, 32);
  auto idx = make_index(GetParam(), kDim);
  for (const auto& v : data) idx->add(v);
  parallel::ThreadPool build_pool(2);
  idx->build(build_pool);

  std::vector<std::vector<SearchResult>> want;
  want.reserve(queries.size());
  for (const auto& q : queries) want.push_back(idx->search(q, kK));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    const auto got = idx->search_batch(queries, kK, pool);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].size(), want[i].size()) << "threads=" << threads;
      for (std::size_t j = 0; j < got[i].size(); ++j) {
        EXPECT_EQ(got[i][j].row, want[i][j].row)
            << "threads=" << threads << " q=" << i << " j=" << j;
        // Scores must match bit-for-bit, not approximately: the blocked
        // kernels are the only summation order.
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i][j].score),
                  std::bit_cast<std::uint32_t>(want[i][j].score));
      }
    }
  }
}

TEST_P(BatchedSearch, EmptyBatchAndDefaultPool) {
  parallel::ThreadPool pool;  // default-constructed: machine-sized
  auto idx = make_index(GetParam(), 8);
  idx->build(pool);
  EXPECT_TRUE(idx->search_batch({}, 3, pool).empty());
}

INSTANTIATE_TEST_SUITE_P(Kinds, BatchedSearch,
                         ::testing::Values(IndexKind::kFlat,
                                           IndexKind::kIvfPq),
                         [](const auto& info) {
                           return std::string(index_kind_name(info.param));
                         });

// --- store-level batched query -----------------------------------------------

TEST(VectorStoreBatch, QueryBatchMatchesSequentialQueries) {
  const embed::HashedNGramEmbedder emb;
  VectorStore store(emb, IndexKind::kFlat);
  store.add("c1", "TP53 activates apoptosis following irradiation.");
  store.add("c2", "Samples were processed within thirty minutes.");
  store.add("c3", "Cisplatin radiosensitizes HeLa cells strongly.");
  store.add("c4", "ATM phosphorylates CHK2 after radiation exposure.");
  store.build();

  const std::vector<std::string> queries{
      "what activates apoptosis?", "radiosensitization of HeLa",
      "checkpoint signaling kinase", "sample processing time"};
  std::vector<std::vector<Hit>> want;
  for (const auto& q : queries) want.push_back(store.query(q, 2));

  const auto got = store.query_batch(queries, 2);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size());
    for (std::size_t j = 0; j < got[i].size(); ++j) {
      EXPECT_EQ(got[i][j].id, want[i][j].id);
      EXPECT_EQ(got[i][j].score, want[i][j].score);
    }
  }
}

TEST(VectorStoreBatch, QueryBatchBeforeBuildThrows) {
  const embed::HashedNGramEmbedder emb;
  VectorStore store(emb);
  store.add("c1", "text");
  EXPECT_THROW(store.query_batch({"q"}, 1), std::logic_error);
}

}  // namespace
}  // namespace mcqa::index
