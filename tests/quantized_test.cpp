// Property tests for the quantized index tier (IVF-PQ): codebook
// determinism, the exact-rerank contract, fail-soft IO and the
// mmap-backed read path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <unistd.h>

#include "corpus/vector_corpus.hpp"
#include "embed/hashed_embedder.hpp"
#include "index/kmeans.hpp"
#include "index/mmap_file.hpp"
#include "index/quantized.hpp"
#include "index/vector_index.hpp"
#include "index/vector_store.hpp"
#include "parallel/thread_pool.hpp"
#include "util/fp16.hpp"
#include "util/rng.hpp"

namespace mcqa::index {
namespace {

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

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    static int counter = 0;
    path = std::filesystem::temp_directory_path() /
           ("mcqa-quantized-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::string write_file(const std::filesystem::path& p,
                       std::string_view bytes) {
  std::ofstream out(p, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return p.string();
}

void expect_same_results(const std::vector<SearchResult>& a,
                         const std::vector<SearchResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].row, b[i].row);
    EXPECT_EQ(a[i].score, b[i].score);  // bit equality, not tolerance
  }
}

// --- determinism -------------------------------------------------------------

TEST(QuantizedDeterminism, BlobsIdenticalAcrossThreadCounts) {
  constexpr std::size_t kDim = 32;
  const auto vecs = random_unit_vectors(500, kDim, 31);

  std::string pq_blob;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    IvfPqIndex pq(kDim);
    pq.add_batch(vecs);
    pq.build(pool);
    if (pq_blob.empty()) {
      pq_blob = pq.save();
    } else {
      EXPECT_EQ(pq.save(), pq_blob) << threads << " threads";
    }
  }
}

// Both trainers split their distance and assignment passes over the
// pool and sum centroids serially, so the centroid bytes cannot depend
// on the pool width.
TEST(KMeans, CentroidBytesIdenticalAcrossPoolWidths) {
  constexpr std::size_t kDim = 24;
  const auto vecs = random_unit_vectors(3000, kDim, 53);
  std::vector<float> flat;
  for (const auto& v : vecs) flat.insert(flat.end(), v.begin(), v.end());
  const StridedRows rows{flat.data(), vecs.size(), kDim, kDim};
  // A PQ-style sub-vector view: dims 8..23 of every row.  Every pass
  // (3000 rows x 16 or 24 dims, and more for assignment) is above the
  // trainers' 2^15 multiply-add inline threshold, so widths 2 and 4
  // really split it across the pool.
  const StridedRows sub{flat.data() + 8, vecs.size(), 16, kDim};
  const auto bytes = [](const RowStorage& c) {
    return std::string(reinterpret_cast<const char*>(c.raw()),
                       c.value_count() * sizeof(float));
  };

  std::string spherical;
  std::string l2;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    parallel::ThreadPool pool(threads);
    const RowStorage s = kmeans_spherical(rows, 32, 10, util::Rng(7), pool);
    const RowStorage e = kmeans_l2(sub, 16, 10, util::Rng(9), pool);
    ASSERT_EQ(s.size(), 32u);
    ASSERT_EQ(e.size(), 16u);
    if (threads == 1) {
      spherical = bytes(s);
      l2 = bytes(e);
      continue;
    }
    EXPECT_EQ(bytes(s), spherical) << threads << " threads";
    EXPECT_EQ(bytes(e), l2) << threads << " threads";
  }
}

TEST(QuantizedDeterminism, PqCodebooksIdenticalAddVsAddBatch) {
  constexpr std::size_t kDim = 32;
  const auto vecs = random_unit_vectors(400, kDim, 41);

  IvfPqIndex seq(kDim);
  for (const auto& v : vecs) seq.add(v);
  build_index(seq);

  IvfPqIndex batch(kDim);
  batch.add_batch(vecs);
  parallel::ThreadPool pool(4);
  batch.build(pool);

  ASSERT_EQ(seq.subquantizers(), batch.subquantizers());
  ASSERT_EQ(seq.codebook_size(), batch.codebook_size());
  const auto& a = seq.codebooks();
  const auto& b = batch.codebooks();
  ASSERT_EQ(a.value_count(), b.value_count());
  EXPECT_EQ(0, std::memcmp(a.raw(), b.raw(),
                           a.value_count() * sizeof(float)));
  EXPECT_EQ(seq.save(), batch.save());
}

// --- the exact-rerank contract -----------------------------------------------

TEST(RerankContract, CoveringCandidatesBitIdenticalToFlat) {
  constexpr std::size_t kDim = 32;
  constexpr std::size_t kN = 600;
  const auto vecs = random_unit_vectors(kN, kDim, 51);
  const auto queries = random_unit_vectors(32, kDim, 52);

  FlatIndex flat(kDim);
  flat.add_batch(vecs);

  IvfPqConfig pq_cfg;
  pq_cfg.nprobe = kN;  // probe every cell
  pq_cfg.min_candidates = kN;
  IvfPqIndex pq(kDim, pq_cfg);
  pq.add_batch(vecs);
  build_index(pq);

  for (const auto& q : queries) {
    const auto want = flat.search(q, 10);
    expect_same_results(pq.search(q, 10), want);
  }
}

TEST(RerankContract, QuantizedRecallFloorOnClusteredCorpus) {
  // The regime the 1M ablation sweep measures, shrunk: clustered rows
  // where the candidate set covers the query's topic.
  corpus::VectorCorpusConfig cc;
  cc.rows = 1024;
  cc.dim = 64;
  cc.clusters = 32;
  const corpus::VectorCorpus vc(cc);
  parallel::ThreadPool pool(2);
  const auto rows = vc.block(0, cc.rows, pool);

  FlatIndex flat(cc.dim);
  flat.add_batch(rows);
  IvfPqConfig pq_cfg;
  pq_cfg.nprobe = 16;
  pq_cfg.ksub = 64;
  pq_cfg.oversample = 16;
  IvfPqIndex pq(cc.dim, pq_cfg);
  pq.add_batch(rows);
  build_index(pq);

  double pq_recall = 0.0;
  constexpr std::size_t kQueries = 16;
  for (std::size_t j = 0; j < kQueries; ++j) {
    const auto truth = flat.search(vc.query(j), 10);
    pq_recall += recall_at_k(pq.search(vc.query(j), 10), truth);
  }
  EXPECT_GE(pq_recall / kQueries, 0.95);
}

TEST(RerankContract, ApproxCandidatesAreTheRerankPool) {
  // search(k) results must all come from the approximate candidate set
  // of the size the config implies: max(min_candidates, k * oversample)
  // = 40, fewer than the rows of the 4 probed cells.
  constexpr std::size_t kDim = 24;
  const auto vecs = random_unit_vectors(300, kDim, 61);
  IvfPqConfig cfg;
  cfg.nlist = 8;
  cfg.nprobe = 4;
  cfg.oversample = 4;
  cfg.min_candidates = 32;
  IvfPqIndex pq(kDim, cfg);
  pq.add_batch(vecs);
  build_index(pq);
  const auto q = random_unit_vectors(1, kDim, 62)[0];
  const auto cands = pq.approx_candidates(q, 40);
  ASSERT_EQ(cands.size(), 40u);
  ASSERT_GT(pq.approx_candidates(q, vecs.size()).size(), cands.size());
  for (const auto& hit : pq.search(q, 10)) {
    const bool in_cands =
        std::any_of(cands.begin(), cands.end(),
                    [&](const SearchResult& c) { return c.row == hit.row; });
    EXPECT_TRUE(in_cands) << "row " << hit.row;
  }
}

// --- IO: round-trip, views, fail-soft ----------------------------------------

TEST(QuantizedIo, SaveLoadRoundTripSearchesIdentically) {
  constexpr std::size_t kDim = 40;
  const auto vecs = random_unit_vectors(250, kDim, 71);
  const auto queries = random_unit_vectors(8, kDim, 72);

  IvfPqIndex pq(kDim);
  pq.add_batch(vecs);
  build_index(pq);
  const std::string pq_blob = pq.save();
  const IvfPqIndex pq_loaded = IvfPqIndex::load(pq_blob);
  const IvfPqIndex pq_view = IvfPqIndex::load_view(pq_blob);
  EXPECT_EQ(pq_loaded.save(), pq_blob);

  for (const auto& q : queries) {
    expect_same_results(pq_loaded.search(q, 7), pq.search(q, 7));
    expect_same_results(pq_view.search(q, 7), pq.search(q, 7));
  }
}

TEST(QuantizedIo, SaveBeforeBuildThrows) {
  IvfPqIndex pq(8);
  pq.add(embed::Vector(8, 0.5f));
  EXPECT_THROW(pq.save(), std::logic_error);
}

TEST(QuantizedIo, DispatchLoadsByMagic) {
  constexpr std::size_t kDim = 16;
  const auto vecs = random_unit_vectors(60, kDim, 81);
  for (const IndexKind kind : {IndexKind::kFlat, IndexKind::kIvfPq}) {
    std::unique_ptr<VectorIndex> idx =
        kind == IndexKind::kFlat
            ? static_cast<std::unique_ptr<VectorIndex>>(
                  std::make_unique<FlatIndex>(kDim))
            : std::make_unique<IvfPqIndex>(kDim);
    idx->add_batch(vecs);
    build_index(*idx);
    const auto loaded = load_index(idx->save());
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->kind(), kind);
    EXPECT_EQ(loaded->size(), vecs.size());
    EXPECT_EQ(loaded->save(), idx->save());
  }
}

TEST(QuantizedIo, TruncatedBlobFailsSoft) {
  constexpr std::size_t kDim = 16;
  const auto vecs = random_unit_vectors(60, kDim, 91);
  FlatIndex flat(kDim);
  flat.add_batch(vecs);
  IvfPqIndex pq(kDim);
  pq.add_batch(vecs);
  build_index(pq);
  for (const std::string& blob : {flat.save(), pq.save()}) {
    // Cut inside the header, inside each payload region, and mid-pad.
    for (const std::size_t keep :
         {std::size_t{3}, std::size_t{9}, std::size_t{17}, blob.size() / 4,
          blob.size() / 2, blob.size() - 3, blob.size() - 1}) {
      EXPECT_EQ(try_load_index(blob.substr(0, keep)), nullptr)
          << "prefix of " << keep << " bytes";
    }
    EXPECT_NE(try_load_index(blob), nullptr);
  }
}

TEST(QuantizedIo, OutOfRangePqCodesFailSoft) {
  // Search reads tables[j * ksub + code], so a code >= ksub would read
  // past the ADC table; the loader rejects it in both load modes.
  constexpr std::size_t kDim = 16;
  IvfPqConfig cfg;
  cfg.nlist = 4;
  cfg.m = 4;
  cfg.ksub = 4;
  IvfPqIndex pq(kDim, cfg);
  pq.add_batch(random_unit_vectors(64, kDim, 95));
  build_index(pq);
  ASSERT_EQ(pq.codebook_size(), 4u);
  const std::string blob = pq.save();

  // ivfpqidx1 layout: magic, eight u64 header fields, then 8-aligned
  // centroid, codebook and code blocks.
  const auto align8 = [](std::size_t at) { return (at + 7) / 8 * 8; };
  std::size_t codes_at = align8(std::string_view("ivfpqidx1\n").size() + 64);
  codes_at = align8(codes_at + pq.nlist() * kDim * sizeof(float));
  codes_at = align8(codes_at + pq.codebooks().value_count() * sizeof(float));
  const std::size_t code_bytes = pq.codes().value_count();
  ASSERT_EQ(code_bytes, 64u * pq.subquantizers());
  ASSERT_EQ(0, std::memcmp(blob.data() + codes_at, pq.codes().raw(),
                           code_bytes));

  std::string every_code_255 = blob;
  std::memset(every_code_255.data() + codes_at, 255, code_bytes);
  std::string one_code_at_ksub = blob;
  one_code_at_ksub[codes_at + code_bytes - 1] = 4;

  const TempDir dir;
  for (const std::string& bad : {every_code_255, one_code_at_ksub}) {
    EXPECT_EQ(try_load_index(bad), nullptr);
    EXPECT_THROW(load_index(bad), std::runtime_error);
    const auto path = write_file(dir.path / "codes.idx", bad);
    EXPECT_THROW(open_index_mmap(path), std::runtime_error);
  }
  EXPECT_NE(try_load_index(blob), nullptr);
}

TEST(QuantizedIo, ListsThatDoNotPartitionTheRowsFailSoft) {
  // search_block's rerank gives each row one slot per querying tile
  // member, so a row listed twice would overrun it; the loader accepts
  // only lists that hold each row exactly once.
  constexpr std::size_t kDim = 16;
  constexpr std::size_t kRows = 40;
  IvfPqConfig cfg;
  cfg.nlist = 2;
  cfg.m = 4;
  cfg.ksub = 16;
  IvfPqIndex pq(kDim, cfg);
  pq.add_batch(random_unit_vectors(kRows, kDim, 97));
  build_index(pq);
  const std::string blob = pq.save();

  // ivfpqidx1 layout: magic, eight u64 header fields, 8-aligned
  // centroid, codebook, code and fp16 row blocks, then per list its
  // u64 length and u64 rows.
  const auto align8 = [](std::size_t at) { return (at + 7) / 8 * 8; };
  std::size_t lists_at = align8(std::string_view("ivfpqidx1\n").size() + 64);
  lists_at = align8(lists_at + pq.nlist() * kDim * sizeof(float));
  lists_at = align8(lists_at + pq.codebooks().value_count() * sizeof(float));
  lists_at = align8(lists_at + pq.codes().value_count());
  lists_at += kRows * kDim * sizeof(util::fp16_t);
  std::vector<std::vector<std::uint64_t>> lists(pq.nlist());
  std::size_t pos = lists_at;
  const auto take = [&blob, &pos] {
    std::uint64_t v = 0;
    std::memcpy(&v, blob.data() + pos, 8);
    pos += 8;
    return v;
  };
  for (auto& list : lists) {
    list.resize(take());
    for (auto& row : list) row = take();
  }
  ASSERT_EQ(pos, blob.size());
  ASSERT_EQ(lists.size(), 2u);
  ASSERT_FALSE(lists[0].empty());
  ASSERT_FALSE(lists[1].empty());
  const auto with_lists = [&](std::vector<std::vector<std::uint64_t>> table) {
    std::string out = blob.substr(0, lists_at);
    for (const auto& list : table) {
      const auto put = [&out](std::uint64_t v) {
        out.append(reinterpret_cast<const char*>(&v), 8);
      };
      put(list.size());
      for (const std::uint64_t row : list) put(row);
    }
    return out;
  };
  EXPECT_NE(try_load_index(with_lists(lists)), nullptr);

  struct Case {
    const char* what;
    std::vector<std::vector<std::uint64_t>> table;
  };
  std::vector<Case> cases;
  cases.push_back({"row twice in one list", lists});
  cases.back().table[0].push_back(lists[0].front());
  cases.push_back({"row in two lists", lists});
  cases.back().table[1].push_back(lists[0].front());
  cases.push_back({"row in no list", lists});
  cases.back().table[1].pop_back();
  for (const Case& c : cases) {
    const std::string bad = with_lists(c.table);
    EXPECT_EQ(try_load_index(bad), nullptr) << c.what;
    EXPECT_THROW(load_index(bad), std::runtime_error) << c.what;
    EXPECT_THROW(load_index_view(bad), std::runtime_error) << c.what;
  }
}

TEST(QuantizedIo, UnknownMagicFailsSoft) {
  EXPECT_EQ(try_load_index("zzzidx9\n\x10\x00\x00\x00"), nullptr);
  EXPECT_EQ(try_load_index(""), nullptr);
  EXPECT_THROW(load_index("zzzidx9\nmore"), std::runtime_error);
  // A retired kind's magic followed by its dim field.
  const std::string retired("sq8idx1\n\x10\0\0\0\0\0\0\0", 16);
  EXPECT_EQ(try_load_index(retired), nullptr);
  EXPECT_THROW(load_index(retired), std::runtime_error);
  EXPECT_THROW(load_index_view(retired), std::runtime_error);
}

// --- mmap-backed reads -------------------------------------------------------

TEST(MmapIndex, OpenMatchesResidentBitExact) {
  constexpr std::size_t kDim = 32;
  const auto vecs = random_unit_vectors(300, kDim, 101);
  const auto queries = random_unit_vectors(8, kDim, 102);
  const TempDir dir;

  for (const IndexKind kind : {IndexKind::kFlat, IndexKind::kIvfPq}) {
    std::unique_ptr<VectorIndex> idx;
    if (kind == IndexKind::kFlat) {
      idx = std::make_unique<FlatIndex>(kDim);
    } else {
      idx = std::make_unique<IvfPqIndex>(kDim);
    }
    idx->add_batch(vecs);
    build_index(*idx);
    const auto path = write_file(
        dir.path / (std::string(index_kind_name(kind)) + ".idx"),
        idx->save());
    const MappedIndex mapped = open_index_mmap(path);
    ASSERT_NE(mapped.index, nullptr);
    EXPECT_TRUE(mapped.index->mmap_backed())
        << index_kind_name(kind) << " payload was copied, not viewed";
    EXPECT_EQ(mapped.index->size(), idx->size());
    for (const auto& q : queries) {
      expect_same_results(mapped.index->search(q, 9), idx->search(q, 9));
    }
  }
}

TEST(MmapIndex, MappedFileOnMissingPathThrows) {
  EXPECT_THROW(open_index_mmap("/nonexistent/mcqa-no-such-file.idx"),
               std::runtime_error);
}

TEST(MmapConcurrency, SearchBatchOverMappedStore) {
  // Concurrent reads over the shared mapping: pool-fanned search_batch
  // must be race-free (tsan lane) and bit-identical to sequential.
  constexpr std::size_t kDim = 48;
  const auto vecs = random_unit_vectors(400, kDim, 111);
  const auto queries = random_unit_vectors(24, kDim, 112);
  const TempDir dir;

  IvfPqIndex built(kDim);
  built.add_batch(vecs);
  build_index(built);
  const auto path = write_file(dir.path / "ivfpq.idx", built.save());
  const MappedIndex mapped = open_index_mmap(path);
  ASSERT_TRUE(mapped.index->mmap_backed());

  std::vector<std::vector<SearchResult>> want;
  for (const auto& q : queries) want.push_back(mapped.index->search(q, 10));
  for (const std::size_t threads : {2u, 8u}) {
    parallel::ThreadPool pool(threads);
    const auto got = mapped.index->search_batch(queries, 10, pool);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_same_results(got[i], want[i]);
    }
  }
}

TEST(MmapStore, OpenMmapMatchesLoadedStore) {
  const embed::HashedNGramEmbedder embedder;
  const TempDir dir;
  for (const IndexKind kind : {IndexKind::kFlat, IndexKind::kIvfPq}) {
    VectorStore store(embedder, kind);
    for (int i = 0; i < 120; ++i) {
      store.add("id-" + std::to_string(i),
                "payload text number " + std::to_string(i * 7));
    }
    store.build();
    const auto path = write_file(dir.path / "store.bin", store.save());

    const VectorStore resident = VectorStore::load(embedder, store.save());
    const VectorStore mapped = VectorStore::open_mmap(embedder, path);
    EXPECT_FALSE(resident.mmap_backed());
    EXPECT_TRUE(mapped.mmap_backed());
    ASSERT_EQ(mapped.size(), resident.size());

    const auto a = resident.query("payload text number 49", 5);
    const auto b = mapped.query("payload text number 49", 5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].score, b[i].score);
    }
  }
}

}  // namespace
}  // namespace mcqa::index
