// Property tests for the tiled multi-query scan layer and the runtime
// kernel ISA dispatch (DESIGN.md §18): single-query vs tiled vs SIMD
// bit-identity for all three scoring kernels on every usable table
// (random dims off the kLanes/kTileQ multiples, ragged final tiles,
// every fp16 code through both fp16 kernels), TopK push-order
// invariance (the property that makes cross-tile row regrouping safe),
// tiled search_block == per-query search over flat/IVF-PQ and an
// mmap-opened blob, the grain-chunked search_batch at 1/2/8 threads,
// and the serve-tier batch paths (ShardedStore, StoreSnapshot).
//
// The tsan preset runs the whole suite, so the concurrency-facing
// cases here (search_batch, serve-tier batches) run under TSan too.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <unistd.h>

#include "embed/hashed_embedder.hpp"
#include "index/kernels.hpp"
#include "index/quantized.hpp"
#include "index/vector_index.hpp"
#include "index/vector_store.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/live_store.hpp"
#include "serve/sharded_store.hpp"
#include "util/fp16.hpp"
#include "util/rng.hpp"

namespace mcqa::index {
namespace {

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

/// Build `idx` on a two-worker pool of the test's own.
void build_index(VectorIndex& idx) {
  parallel::ThreadPool pool(2);
  idx.build(pool);
}

void expect_bit_equal(float got, float want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint32_t>(got),
            std::bit_cast<std::uint32_t>(want))
      << what << " got=" << got << " want=" << want;
}

void expect_same_results(const std::vector<SearchResult>& a,
                         const std::vector<SearchResult>& b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].row, b[i].row) << what << " rank " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a[i].score),
              std::bit_cast<std::uint32_t>(b[i].score))
        << what << " rank " << i;
  }
}

/// "isa/int8" of a table: usable_ops() holds the scalar table, the
/// plain AVX2 table and each VNNI variant of it the CPU runs.
std::string table_name(const kernels::KernelOps& ops) {
  return std::string(kernels::isa_name(ops.isa)) + "/" +
         std::string(kernels::int8_body_name(ops.int8));
}

// Dims off the kLanes multiples on purpose: ragged lane tails must
// rotate identically in the single-query and tiled loops.
const std::size_t kDims[] = {1, 3, 7, 8, 9, 16, 17, 31, 64, 96, 255, 256};

// --- kernel-level bit identity ----------------------------------------------

TEST(TiledScanKernels, DotTileMatchesSingleQueryEveryIsaAndRaggedWidth) {
  util::Rng rng(501);
  for (const kernels::KernelOps* table : kernels::usable_ops()) {
    const kernels::KernelOps& ops = *table;
    for (const std::size_t n : kDims) {
      const auto row = random_row(n, rng);
      std::vector<std::vector<float>> queries;
      const float* qs[kernels::kTileQ];
      for (std::size_t q = 0; q < kernels::kTileQ; ++q) {
        queries.push_back(random_row(n, rng));
      }
      for (std::size_t qn = 1; qn <= kernels::kTileQ; ++qn) {
        for (std::size_t q = 0; q < qn; ++q) qs[q] = queries[q].data();
        float out[kernels::kTileQ];
        ops.dot_tile(row.data(), qs, qn, n, out);
        for (std::size_t q = 0; q < qn; ++q) {
          expect_bit_equal(out[q], ops.dot(row.data(), qs[q], n),
                           "dot_tile isa=" +
                               table_name(ops) +
                               " n=" + std::to_string(n) +
                               " qn=" + std::to_string(qn));
        }
      }
    }
  }
}

TEST(TiledScanKernels, DotFp16TileMatchesSingleQuery) {
  util::Rng rng(502);
  for (const kernels::KernelOps* table : kernels::usable_ops()) {
    const kernels::KernelOps& ops = *table;
    for (const std::size_t n : kDims) {
      const auto raw = random_row(n, rng);
      std::vector<util::fp16_t> row(n);
      for (std::size_t i = 0; i < n; ++i) row[i] = util::float_to_fp16(raw[i]);
      std::vector<std::vector<float>> queries;
      const float* qs[kernels::kTileQ];
      for (std::size_t q = 0; q < kernels::kTileQ; ++q) {
        queries.push_back(random_row(n, rng));
      }
      for (std::size_t qn = 1; qn <= kernels::kTileQ; ++qn) {
        for (std::size_t q = 0; q < qn; ++q) qs[q] = queries[q].data();
        float out[kernels::kTileQ];
        ops.dot_fp16_tile(row.data(), qs, qn, n, out);
        for (std::size_t q = 0; q < qn; ++q) {
          expect_bit_equal(out[q], ops.dot_fp16(row.data(), qs[q], n),
                           "dot_fp16_tile isa=" +
                               table_name(ops) +
                               " n=" + std::to_string(n) +
                               " qn=" + std::to_string(qn));
        }
      }
    }
  }
}

// Every fp16 code, inf and NaN included, through both fp16 kernels on
// every compiled table.  A one-hot row (the code at one position, +0
// elsewhere) against a unit query must score what the float dot gives
// on the row widened by util::fp16_to_float.  The code sits once in the
// full 8-lane block and once in the ragged tail, so both widening paths
// of each table see every code.
TEST(TiledScanKernels, DotFp16EveryCodeEveryTable) {
  constexpr std::size_t kN = 11;  // one 8-lane block + a 3-element tail
  const kernels::KernelOps& scalar =
      *kernels::ops_for(kernels::KernelIsa::kScalar);
  for (const std::size_t pos : {std::size_t{5}, std::size_t{9}}) {
    std::vector<float> unit(kN, 0.0f);
    unit[pos] = 1.0f;
    const float* qs[kernels::kTileQ];
    std::fill(std::begin(qs), std::end(qs), unit.data());
    std::vector<util::fp16_t> row(kN, 0);
    std::vector<float> widened(kN, 0.0f);
    for (std::uint32_t h = 0; h < (1u << 16); ++h) {
      row[pos] = static_cast<util::fp16_t>(h);
      widened[pos] = util::fp16_to_float(row[pos]);
      const std::uint32_t want = std::bit_cast<std::uint32_t>(
          scalar.dot(widened.data(), unit.data(), kN));
      for (const kernels::KernelOps* table : kernels::usable_ops()) {
        const kernels::KernelOps& ops = *table;
        EXPECT_EQ(std::bit_cast<std::uint32_t>(
                      ops.dot_fp16(row.data(), unit.data(), kN)),
                  want)
            << "dot_fp16 isa=" << table_name(ops) << " code=" << h
            << " pos=" << pos;
        for (std::size_t qn = 1; qn <= kernels::kTileQ; ++qn) {
          float out[kernels::kTileQ];
          ops.dot_fp16_tile(row.data(), qs, qn, kN, out);
          for (std::size_t q = 0; q < qn; ++q) {
            EXPECT_EQ(std::bit_cast<std::uint32_t>(out[q]), want)
                << "dot_fp16_tile isa=" << table_name(ops)
                << " code=" << h << " pos=" << pos << " qn=" << qn;
          }
        }
      }
    }
  }
}

TEST(TiledScanKernels, PqLookupTileMatchesSingleQuery) {
  util::Rng rng(504);
  // Subquantizer counts off the lane multiples, small/odd ksub.
  const std::size_t kMs[] = {1, 3, 7, 8, 9, 16, 24};
  for (const kernels::KernelOps* table : kernels::usable_ops()) {
    const kernels::KernelOps& ops = *table;
    for (const std::size_t m : kMs) {
      for (const std::size_t ksub : {std::size_t{5}, std::size_t{256}}) {
        std::vector<std::uint8_t> codes(m);
        for (auto& c : codes) {
          c = static_cast<std::uint8_t>(
              rng.bounded(static_cast<std::uint32_t>(ksub)));
        }
        std::vector<std::vector<float>> tables;
        const float* tabs[kernels::kTileQ];
        for (std::size_t q = 0; q < kernels::kTileQ; ++q) {
          tables.push_back(random_row(m * ksub, rng));
        }
        for (std::size_t qn = 1; qn <= kernels::kTileQ; ++qn) {
          for (std::size_t q = 0; q < qn; ++q) tabs[q] = tables[q].data();
          float out[kernels::kTileQ];
          ops.pq_lookup_tile(codes.data(), tabs, qn, m, ksub, out);
          for (std::size_t q = 0; q < qn; ++q) {
            expect_bit_equal(out[q],
                             ops.pq_lookup(codes.data(), tabs[q], m, ksub),
                             "pq_lookup_tile isa=" +
                                 table_name(ops) +
                                 " m=" + std::to_string(m) +
                                 " qn=" + std::to_string(qn));
          }
        }
      }
    }
  }
}

// --- ISA dispatch ------------------------------------------------------------

TEST(TiledScanIsa, ScalarAndAvx2TablesBitIdentical) {
  if (kernels::ops_for(kernels::KernelIsa::kAvx2) == nullptr) {
    GTEST_SKIP() << "AVX2 table unavailable on this host";
  }
  const kernels::KernelOps& scalar =
      *kernels::ops_for(kernels::KernelIsa::kScalar);
  for (const kernels::KernelOps* avx2 : kernels::usable_ops()) {
    if (avx2->isa == kernels::KernelIsa::kScalar) continue;
    util::Rng rng(505);
    for (const std::size_t n : kDims) {
      const auto a = random_row(n, rng);
      const auto b = random_row(n, rng);
      std::vector<util::fp16_t> half(n);
      for (std::size_t i = 0; i < n; ++i) half[i] = util::float_to_fp16(a[i]);
      const std::string what =
          "scalar vs " + table_name(*avx2) + " n=" + std::to_string(n);
      expect_bit_equal(avx2->dot(a.data(), b.data(), n),
                       scalar.dot(a.data(), b.data(), n), what);
      expect_bit_equal(avx2->l2_sq(a.data(), b.data(), n),
                       scalar.l2_sq(a.data(), b.data(), n), what);
      expect_bit_equal(avx2->dot_fp16(half.data(), b.data(), n),
                       scalar.dot_fp16(half.data(), b.data(), n), what);
      // The fp16 tile at every width: the AVX2 table runs one body per
      // width, the scalar table one loop over qn.
      std::vector<std::vector<float>> queries;
      const float* qs[kernels::kTileQ];
      for (std::size_t q = 0; q < kernels::kTileQ; ++q) {
        queries.push_back(random_row(n, rng));
        qs[q] = queries[q].data();
      }
      for (std::size_t qn = 1; qn <= kernels::kTileQ; ++qn) {
        float got[kernels::kTileQ];
        float want[kernels::kTileQ];
        avx2->dot_fp16_tile(half.data(), qs, qn, n, got);
        scalar.dot_fp16_tile(half.data(), qs, qn, n, want);
        for (std::size_t q = 0; q < qn; ++q) {
          expect_bit_equal(got[q], want[q],
                           what + " dot_fp16_tile qn=" + std::to_string(qn) +
                               " q=" + std::to_string(q));
        }
      }
    }
  }
}

TEST(TiledScanIsa, ResolutionRuleAndNames) {
  using kernels::KernelIsa;
  EXPECT_EQ(kernels::resolve_isa(nullptr, true), KernelIsa::kAvx2);
  EXPECT_EQ(kernels::resolve_isa(nullptr, false), KernelIsa::kScalar);
  EXPECT_EQ(kernels::resolve_isa("scalar", true), KernelIsa::kScalar);
  EXPECT_EQ(kernels::resolve_isa("avx2", true), KernelIsa::kAvx2);
  // Requested-but-unavailable and unknown names fail soft.
  EXPECT_EQ(kernels::resolve_isa("avx2", false), KernelIsa::kScalar);
  EXPECT_EQ(kernels::resolve_isa("avx512", true), KernelIsa::kAvx2);
  EXPECT_EQ(kernels::isa_name(KernelIsa::kScalar), "scalar");
  EXPECT_EQ(kernels::isa_name(KernelIsa::kAvx2), "avx2");
  // The dispatched table is one of the usable ones.
  EXPECT_NE(kernels::ops_for(kernels::dispatched_isa()), nullptr);
}

TEST(TiledScanIsa, SetDispatchForTestingSwapsAndRestores) {
  const kernels::KernelIsa before = kernels::dispatched_isa();
  ASSERT_TRUE(kernels::set_dispatch_for_testing(kernels::KernelIsa::kScalar));
  EXPECT_EQ(kernels::dispatched_isa(), kernels::KernelIsa::kScalar);
  if (kernels::ops_for(kernels::KernelIsa::kAvx2) != nullptr) {
    ASSERT_TRUE(kernels::set_dispatch_for_testing(kernels::KernelIsa::kAvx2));
    EXPECT_EQ(kernels::dispatched_isa(), kernels::KernelIsa::kAvx2);
  } else {
    EXPECT_FALSE(kernels::set_dispatch_for_testing(kernels::KernelIsa::kAvx2));
    EXPECT_EQ(kernels::dispatched_isa(), kernels::KernelIsa::kScalar);
  }
  ASSERT_TRUE(kernels::set_dispatch_for_testing(before));
}

// --- TopK push-order invariance ---------------------------------------------

TEST(TiledScanTopK, OutcomeInvariantUnderPushOrder) {
  // The tiled paths regroup row visits across a query tile (rerank and
  // IVF-PQ cell scans push in row order instead of candidate-rank
  // order); the kept set must be a pure function of the pushed
  // multiset.
  util::Rng rng(506);
  for (const std::size_t k : {std::size_t{1}, std::size_t{8},
                              std::size_t{33}}) {
    std::vector<SearchResult> cands;
    for (std::size_t row = 0; row < 120; ++row) {
      // Coarse scores force ties so the row tie-break participates.
      cands.push_back(
          {row, static_cast<float>(rng.bounded(12)) / 12.0f});
    }
    TopK forward(k);
    for (const auto& c : cands) forward.push(c.row, c.score);
    const auto want = forward.take_sorted();
    for (int shuffle = 0; shuffle < 4; ++shuffle) {
      rng.shuffle(cands);
      TopK perm(k);
      for (const auto& c : cands) perm.push(c.row, c.score);
      expect_same_results(perm.take_sorted(), want,
                          "k=" + std::to_string(k) +
                              " shuffle=" + std::to_string(shuffle));
    }
  }
}

// --- index-level identity ----------------------------------------------------

struct TiledIndexCase {
  IndexKind kind;
  bool covering;  ///< quantized candidate set spans the whole store
};

std::unique_ptr<VectorIndex> make_case_index(const TiledIndexCase& c,
                                             std::size_t dim,
                                             std::size_t rows) {
  switch (c.kind) {
    case IndexKind::kFlat:
      return std::make_unique<FlatIndex>(dim);
    case IndexKind::kIvfPq: {
      // Non-covering case probes a strict subset of cells, so the
      // per-cell sub-tiling must reproduce each query's own candidate
      // set exactly.
      IvfPqConfig cfg;
      cfg.nlist = 12;
      cfg.nprobe = c.covering ? 12 : 3;
      cfg.m = 8;
      cfg.min_candidates = c.covering ? rows : 16;
      cfg.oversample = 2;
      return std::make_unique<IvfPqIndex>(dim, cfg);
    }
    default:
      return nullptr;
  }
}

class TiledScanIndex
    : public ::testing::TestWithParam<TiledIndexCase> {};

TEST_P(TiledScanIndex, SearchTiledMatchesPerQuerySearch) {
  constexpr std::size_t kDim = 36;
  constexpr std::size_t kRows = 500;
  const auto data = random_unit_vectors(kRows, kDim, 601);
  // 21 queries: two full tiles + a ragged 5-query tail.
  const auto queries = random_unit_vectors(21, kDim, 602);
  auto idx = make_case_index(GetParam(), kDim, kRows);
  idx->add_batch(data);
  build_index(*idx);

  for (const std::size_t k : {std::size_t{1}, std::size_t{9}}) {
    const auto got = idx->search_tiled(queries, k);
    ASSERT_EQ(got.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      expect_same_results(got[i], idx->search(queries[i], k),
                          "q=" + std::to_string(i) +
                              " k=" + std::to_string(k));
    }
  }
}

TEST_P(TiledScanIndex, SearchBatchMatchesSequentialAtAnyThreadCount) {
  constexpr std::size_t kDim = 36;
  constexpr std::size_t kRows = 400;
  constexpr std::size_t kK = 7;
  const auto data = random_unit_vectors(kRows, kDim, 603);
  const auto queries = random_unit_vectors(43, kDim, 604);
  auto idx = make_case_index(GetParam(), kDim, kRows);
  idx->add_batch(data);
  build_index(*idx);

  std::vector<std::vector<SearchResult>> want;
  want.reserve(queries.size());
  for (const auto& q : queries) want.push_back(idx->search(q, kK));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    const auto got = idx->search_batch(queries, kK, pool);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_same_results(got[i], want[i],
                          "threads=" + std::to_string(threads) +
                              " q=" + std::to_string(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, TiledScanIndex,
    ::testing::Values(TiledIndexCase{IndexKind::kFlat, true},
                      TiledIndexCase{IndexKind::kIvfPq, true},
                      TiledIndexCase{IndexKind::kIvfPq, false}),
    [](const auto& info) {
      return std::string(index_kind_name(info.param.kind)) +
             (info.param.covering ? "Covering" : "Subset");
    });

TEST(TiledScanIndex, EmptyStoreAndEmptyBatch) {
  FlatIndex flat(8);
  EXPECT_TRUE(flat.search_tiled({}, 3).empty());
  const auto queries = random_unit_vectors(5, 8, 605);
  for (const auto& out : flat.search_tiled(queries, 3)) {
    EXPECT_TRUE(out.empty());
  }
  IvfPqIndex pq(8);
  build_index(pq);
  for (const auto& out : pq.search_tiled(queries, 3)) {
    EXPECT_TRUE(out.empty());
  }
}

// --- mmap-backed stores ------------------------------------------------------

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    static int counter = 0;
    path = std::filesystem::temp_directory_path() /
           ("mcqa-tiled-scan-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

TEST(TiledScanMmap, TiledBatchOverMappedIndexesMatchesSequential) {
  constexpr std::size_t kDim = 32;
  constexpr std::size_t kK = 8;
  const auto data = random_unit_vectors(350, kDim, 608);
  const auto queries = random_unit_vectors(19, kDim, 609);
  const TempDir dir;

  for (const IndexKind kind : {IndexKind::kFlat, IndexKind::kIvfPq}) {
    std::unique_ptr<VectorIndex> built;
    if (kind == IndexKind::kFlat) {
      built = std::make_unique<FlatIndex>(kDim);
    } else {
      built = std::make_unique<IvfPqIndex>(kDim);
    }
    built->add_batch(data);
    build_index(*built);
    const auto path =
        dir.path / (std::string(index_kind_name(kind)) + ".idx");
    {
      std::ofstream out(path, std::ios::binary);
      const std::string blob = built->save();
      out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    }
    const MappedIndex mapped = open_index_mmap(path.string());
    ASSERT_TRUE(mapped.index->mmap_backed()) << index_kind_name(kind);

    std::vector<std::vector<SearchResult>> want;
    for (const auto& q : queries) want.push_back(mapped.index->search(q, kK));
    const auto tiled = mapped.index->search_tiled(queries, kK);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      expect_same_results(tiled[i], want[i],
                          std::string(index_kind_name(kind)) +
                              " tiled q=" + std::to_string(i));
    }
    for (const std::size_t threads : {2u, 8u}) {
      parallel::ThreadPool pool(threads);
      const auto got = mapped.index->search_batch(queries, kK, pool);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        expect_same_results(got[i], want[i],
                            std::string(index_kind_name(kind)) +
                                " threads=" + std::to_string(threads));
      }
    }
  }
}

}  // namespace
}  // namespace mcqa::index

// --- serve-tier batch paths --------------------------------------------------

namespace mcqa::serve {
namespace {

std::string doc_text(int i) {
  return "radiation oncology protocol note " + std::to_string(i * 13 % 97) +
         " marker " + std::to_string(i);
}

void expect_same_hits(const std::vector<index::Hit>& got,
                      const std::vector<index::Hit>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
    EXPECT_EQ(got[i].text, want[i].text) << what << " rank " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i].score),
              std::bit_cast<std::uint32_t>(want[i].score))
        << what << " rank " << i;
  }
}

TEST(TiledScanServe, ShardedStoreBatchMatchesPerQuery) {
  const embed::HashedNGramEmbedder embedder;
  index::VectorStore base(embedder, index::IndexKind::kFlat);
  for (int i = 0; i < 90; ++i) {
    base.add("doc-" + std::to_string(i), doc_text(i));
  }
  base.build();

  std::vector<std::string> queries;
  for (int i = 0; i < 11; ++i) {
    queries.push_back("protocol marker " + std::to_string(i * 7));
  }
  const ShardedStore store(base, 3);
  const auto got = store.query_batch(queries, 4);
  ASSERT_EQ(got.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_same_hits(got[i], store.query(queries[i], 4),
                     "q=" + std::to_string(i));
  }
}

TEST(TiledScanServe, SnapshotBatchMatchesPerQueryAcrossEpochs) {
  const embed::HashedNGramEmbedder embedder;
  LiveStoreConfig cfg;
  cfg.compact_threshold = 64;  // keep delta segments alive
  LiveStore live(embedder, cfg);

  std::vector<std::string> queries;
  for (int i = 0; i < 9; ++i) {
    queries.push_back("note marker " + std::to_string(i * 5));
  }
  int next = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 25; ++i, ++next) {
      live.append("row-" + std::to_string(next), doc_text(next));
    }
    if (round == 2) live.tombstone("row-3");
    live.publish();
    const auto snap = live.snapshot();
    const auto got = snap->query_batch(queries, 5);
    ASSERT_EQ(got.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      expect_same_hits(got[i], snap->query(queries[i], 5),
                       "epoch=" + std::to_string(snap->epoch()) +
                           " q=" + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace mcqa::serve
