// Unit + property tests for the vector-index substrate (FAISS stand-in).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "embed/hashed_embedder.hpp"
#include "index/quantized.hpp"
#include "index/vector_index.hpp"
#include "index/vector_store.hpp"
#include "parallel/thread_pool.hpp"
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

std::unique_ptr<VectorIndex> make_index(IndexKind kind, std::size_t dim) {
  switch (kind) {
    case IndexKind::kFlat: return std::make_unique<FlatIndex>(dim);
    case IndexKind::kIvf: return std::make_unique<IvfIndex>(dim);
    case IndexKind::kHnsw: return std::make_unique<HnswIndex>(dim);
    case IndexKind::kSq8: return std::make_unique<Sq8Index>(dim);
    case IndexKind::kIvfPq: return std::make_unique<IvfPqIndex>(dim);
  }
  return nullptr;
}

// --- parameterized across index kinds -----------------------------------------

class AnyIndex : public ::testing::TestWithParam<IndexKind> {};

TEST_P(AnyIndex, SelfQueryReturnsSelfFirst) {
  constexpr std::size_t kDim = 32;
  const auto data = random_unit_vectors(300, kDim, 1);
  auto idx = make_index(GetParam(), kDim);
  for (const auto& v : data) idx->add(v);
  idx->build();
  for (std::size_t probe : {std::size_t{0}, std::size_t{137}, data.size() - 1}) {
    const auto results = idx->search(data[probe], 1);
    ASSERT_FALSE(results.empty());
    EXPECT_EQ(results[0].row, probe);
    EXPECT_NEAR(results[0].score, 1.0f, 2e-2f);
  }
}

TEST_P(AnyIndex, RecallAgainstExactSearch) {
  constexpr std::size_t kDim = 32;
  constexpr std::size_t kK = 10;
  const auto data = random_unit_vectors(1000, kDim, 2);
  const auto queries = random_unit_vectors(40, kDim, 3);
  auto idx = make_index(GetParam(), kDim);
  for (const auto& v : data) idx->add(v);
  idx->build();

  double recall_sum = 0.0;
  for (const auto& q : queries) {
    const auto got = idx->search(q, kK);
    const auto want = exact_search(data, q, kK);
    recall_sum += recall_at_k(got, want);
  }
  const double recall = recall_sum / static_cast<double>(queries.size());
  // Flat is exact (modulo fp16); approximate indexes must stay useful.
  if (GetParam() == IndexKind::kFlat) {
    EXPECT_GT(recall, 0.99);
  } else {
    EXPECT_GT(recall, 0.55);
  }
}

TEST_P(AnyIndex, KLargerThanSizeReturnsAll) {
  constexpr std::size_t kDim = 8;
  const auto data = random_unit_vectors(5, kDim, 4);
  auto idx = make_index(GetParam(), kDim);
  for (const auto& v : data) idx->add(v);
  idx->build();
  const auto results = idx->search(data[0], 50);
  EXPECT_EQ(results.size(), 5u);
}

TEST_P(AnyIndex, ScoresSortedDescending) {
  constexpr std::size_t kDim = 16;
  const auto data = random_unit_vectors(200, kDim, 5);
  auto idx = make_index(GetParam(), kDim);
  for (const auto& v : data) idx->add(v);
  idx->build();
  const auto results = idx->search(data[7], 20);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].score, results[i].score);
  }
}

TEST_P(AnyIndex, DimMismatchRejected) {
  auto idx = make_index(GetParam(), 16);
  EXPECT_THROW(idx->add(embed::Vector(8, 0.0f)), std::invalid_argument);
}

TEST_P(AnyIndex, SingleElementIndex) {
  auto idx = make_index(GetParam(), 4);
  embed::Vector v{1.0f, 0.0f, 0.0f, 0.0f};
  idx->add(v);
  idx->build();
  const auto results = idx->search(v, 3);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].row, 0u);
}

TEST_P(AnyIndex, AddBatchBitIdenticalToSequentialAdds) {
  constexpr std::size_t kDim = 16;
  const auto vecs = random_unit_vectors(64, kDim, 99);

  auto seq = make_index(GetParam(), kDim);
  for (const auto& v : vecs) seq->add(v);
  seq->build();

  auto batch = make_index(GetParam(), kDim);
  batch->add_batch(vecs);
  batch->build();

  ASSERT_EQ(batch->size(), seq->size());
  const auto queries = random_unit_vectors(24, kDim, 7);
  for (const auto& q : queries) {
    const auto a = seq->search(q, 8);
    const auto b = batch->search(q, 8);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].row, b[i].row);
      EXPECT_EQ(a[i].score, b[i].score);  // bit equality, not tolerance
    }
  }
}

TEST(AddBatch, SaveBlobsMatchSequentialForAllKinds) {
  // Stronger than search identity: the serialized state (HNSW graph
  // edges, IVF lists, flat rows) must be byte-identical.
  constexpr std::size_t kDim = 16;
  const auto vecs = random_unit_vectors(48, kDim, 11);

  FlatIndex flat_seq(kDim), flat_batch(kDim);
  IvfIndex ivf_seq(kDim), ivf_batch(kDim);
  HnswIndex hnsw_seq(kDim), hnsw_batch(kDim);
  Sq8Index sq8_seq(kDim), sq8_batch(kDim);
  IvfPqIndex pq_seq(kDim), pq_batch(kDim);
  for (const auto& v : vecs) {
    flat_seq.add(v);
    ivf_seq.add(v);
    hnsw_seq.add(v);
    sq8_seq.add(v);
    pq_seq.add(v);
  }
  flat_batch.add_batch(vecs);
  ivf_batch.add_batch(vecs);
  hnsw_batch.add_batch(vecs);
  sq8_batch.add_batch(vecs);
  pq_batch.add_batch(vecs);
  ivf_seq.build();
  ivf_batch.build();
  sq8_seq.build();
  sq8_batch.build();
  pq_seq.build();
  pq_batch.build();

  EXPECT_EQ(flat_seq.save(), flat_batch.save());
  EXPECT_EQ(ivf_seq.save(), ivf_batch.save());
  EXPECT_EQ(hnsw_seq.save(), hnsw_batch.save());
  EXPECT_EQ(sq8_seq.save(), sq8_batch.save());
  EXPECT_EQ(pq_seq.save(), pq_batch.save());
}

TEST_P(AnyIndex, AddBatchEmptyAndIncremental) {
  constexpr std::size_t kDim = 8;
  auto idx = make_index(GetParam(), kDim);
  idx->add_batch({});  // no-op
  EXPECT_EQ(idx->size(), 0u);
  const auto vecs = random_unit_vectors(10, kDim, 3);
  // Batch after singles after batch: rows keep insertion order.
  idx->add_batch({vecs[0], vecs[1]});
  idx->add(vecs[2]);
  idx->add_batch({vecs[3], vecs[4]});
  EXPECT_EQ(idx->size(), 5u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AnyIndex,
                         ::testing::Values(IndexKind::kFlat, IndexKind::kIvf,
                                           IndexKind::kHnsw, IndexKind::kSq8,
                                           IndexKind::kIvfPq),
                         [](const auto& info) {
                           return std::string(index_kind_name(info.param));
                         });

// --- flat specifics ---------------------------------------------------------------

TEST(FlatIndex, SaveLoadRoundTrip) {
  constexpr std::size_t kDim = 24;
  const auto data = random_unit_vectors(64, kDim, 6);
  FlatIndex idx(kDim);
  for (const auto& v : data) idx.add(v);
  const FlatIndex loaded = FlatIndex::load(idx.save());
  EXPECT_EQ(loaded.size(), idx.size());
  const auto q = random_unit_vectors(1, kDim, 7)[0];
  const auto a = idx.search(q, 5);
  const auto b = loaded.search(q, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].row, b[i].row);
    EXPECT_FLOAT_EQ(a[i].score, b[i].score);
  }
}

TEST(FlatIndex, LoadRejectsGarbage) {
  EXPECT_THROW(FlatIndex::load("nonsense"), std::runtime_error);
  EXPECT_THROW(FlatIndex::load("flatidx1\n8 100\nshort"), std::runtime_error);
}

TEST(FlatIndex, EmptySearch) {
  FlatIndex idx(8);
  EXPECT_TRUE(idx.search(embed::Vector(8, 0.1f), 5).empty());
}

TEST(FlatIndex, Fp16AtRestRoundTrip) {
  FlatIndex idx(4);
  const embed::Vector v{0.1f, -0.2f, 0.3f, -0.4f};
  idx.add(v);
  const embed::Vector back = idx.vector(0);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(back[i], v[i], 1e-3f);
}

// --- IVF specifics -----------------------------------------------------------------

TEST(IvfIndex, SearchBeforeBuildThrows) {
  IvfIndex idx(8);
  idx.add(embed::Vector(8, 0.5f));
  EXPECT_THROW(idx.search(embed::Vector(8, 0.5f), 1), std::logic_error);
}

TEST(IvfIndex, NprobeImprovesRecall) {
  constexpr std::size_t kDim = 24;
  const auto data = random_unit_vectors(2000, kDim, 8);
  const auto queries = random_unit_vectors(30, kDim, 9);
  IvfConfig cfg;
  cfg.nlist = 64;
  IvfIndex idx(kDim, cfg);
  for (const auto& v : data) idx.add(v);
  idx.build();

  const auto mean_recall = [&](std::size_t nprobe) {
    idx.set_nprobe(nprobe);
    double sum = 0.0;
    for (const auto& q : queries) {
      sum += recall_at_k(idx.search(q, 10), exact_search(data, q, 10));
    }
    return sum / static_cast<double>(queries.size());
  };
  const double r1 = mean_recall(1);
  const double r16 = mean_recall(16);
  const double r64 = mean_recall(64);
  EXPECT_GE(r16, r1);
  EXPECT_GT(r64, 0.99);  // probing every cell == exact
}

TEST(IvfIndex, BuildOnEmptyIsSafe) {
  IvfIndex idx(8);
  idx.build();
  EXPECT_TRUE(idx.search(embed::Vector(8, 0.1f), 3).empty());
}

TEST(IvfIndex, FewerPointsThanCells) {
  IvfConfig cfg;
  cfg.nlist = 128;
  IvfIndex idx(8, cfg);
  const auto data = random_unit_vectors(10, 8, 10);
  for (const auto& v : data) idx.add(v);
  idx.build();
  EXPECT_LE(idx.nlist(), 10u);
  idx.set_nprobe(idx.nlist());
  EXPECT_EQ(idx.search(data[3], 1)[0].row, 3u);
}

// --- HNSW specifics ------------------------------------------------------------------

TEST(HnswIndex, EfSearchImprovesRecall) {
  constexpr std::size_t kDim = 24;
  const auto data = random_unit_vectors(2000, kDim, 11);
  const auto queries = random_unit_vectors(30, kDim, 12);
  HnswConfig cfg;
  cfg.ef_construction = 64;
  HnswIndex idx(kDim, cfg);
  for (const auto& v : data) idx.add(v);

  const auto mean_recall = [&](std::size_t ef) {
    idx.set_ef_search(ef);
    double sum = 0.0;
    for (const auto& q : queries) {
      sum += recall_at_k(idx.search(q, 10), exact_search(data, q, 10));
    }
    return sum / static_cast<double>(queries.size());
  };
  const double r_low = mean_recall(10);
  const double r_high = mean_recall(200);
  EXPECT_GE(r_high + 1e-9, r_low);
  EXPECT_GT(r_high, 0.85);
}

TEST(HnswIndex, DeterministicConstruction) {
  constexpr std::size_t kDim = 16;
  const auto data = random_unit_vectors(300, kDim, 13);
  HnswIndex a(kDim);
  HnswIndex b(kDim);
  for (const auto& v : data) {
    a.add(v);
    b.add(v);
  }
  const auto q = random_unit_vectors(1, kDim, 14)[0];
  const auto ra = a.search(q, 10);
  const auto rb = b.search(q, 10);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i].row, rb[i].row);
}

// --- recall helpers -----------------------------------------------------------------

TEST(RecallAtK, Basics) {
  const std::vector<SearchResult> want{{1, 0.9f}, {2, 0.8f}, {3, 0.7f}};
  const std::vector<SearchResult> got{{1, 0.9f}, {9, 0.5f}, {3, 0.7f}};
  EXPECT_NEAR(recall_at_k(got, want), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(recall_at_k({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(recall_at_k({}, want), 0.0);
}

// --- vector store ---------------------------------------------------------------------

TEST(VectorStore, QueryReturnsPayloads) {
  const embed::HashedNGramEmbedder emb;
  VectorStore store(emb, IndexKind::kFlat);
  store.add("c1", "TP53 activates apoptosis following irradiation.");
  store.add("c2", "Samples were processed within thirty minutes.");
  store.add("c3", "Cisplatin radiosensitizes HeLa cells strongly.");
  store.build();
  const auto hits = store.query("what activates apoptosis?", 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, "c1");
  EXPECT_NE(hits[0].text.find("apoptosis"), std::string::npos);
}

TEST(VectorStore, QueryBeforeBuildThrows) {
  const embed::HashedNGramEmbedder emb;
  VectorStore store(emb);
  store.add("c1", "text");
  EXPECT_THROW(store.query("q", 1), std::logic_error);
}

TEST(VectorStore, AddAfterBuildRequiresRebuild) {
  const embed::HashedNGramEmbedder emb;
  VectorStore store(emb);
  store.add("c1", "alpha");
  store.build();
  store.add("c2", "beta");
  EXPECT_THROW(store.query("alpha", 1), std::logic_error);
  store.build();
  EXPECT_EQ(store.query("alpha", 1).size(), 1u);
}

TEST(VectorStore, EmbeddingBytesMatchFp16Footprint) {
  const embed::HashedNGramEmbedder emb;
  VectorStore store(emb);
  store.add("a", "one");
  store.add("b", "two");
  EXPECT_EQ(store.embedding_bytes(), 2u * emb.dim() * 2u);
}

TEST(VectorStore, AddBatchMatchesSequentialAtEveryThreadCount) {
  const embed::HashedNGramEmbedder emb;
  std::vector<std::string> ids, texts;
  for (int i = 0; i < 40; ++i) {
    ids.push_back("c" + std::to_string(i));
    texts.push_back("chunk " + std::to_string(i) +
                    " about radiation dose fractionation schedule " +
                    std::to_string(i % 5));
  }

  VectorStore seq(emb, IndexKind::kFlat);
  for (std::size_t i = 0; i < ids.size(); ++i) seq.add(ids[i], texts[i]);
  seq.build();
  const auto want = seq.query("radiation dose schedule 3", 10);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    VectorStore store(emb, IndexKind::kFlat);
    parallel::ThreadPool pool(threads);
    store.add_batch(ids, texts, pool);
    store.build();
    const auto got = store.query("radiation dose schedule 3", 10);
    ASSERT_EQ(got.size(), want.size()) << threads << " threads";
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << threads << " threads, hit " << i;
      EXPECT_EQ(got[i].score, want[i].score);  // bit equality
    }
  }
}

TEST(VectorStore, AddBatchSizeMismatchThrows) {
  const embed::HashedNGramEmbedder emb;
  VectorStore store(emb);
  EXPECT_THROW(store.add_batch({"a", "b"}, {"only one"}),
               std::invalid_argument);
}

TEST(VectorStore, HostileLengthsThrow) {
  // A length of 2^64 - pos wraps `pos + n` to zero; the old checks
  // accepted it.  With the index-blob length that loaded the store from
  // the rest of the bytes; with a string length it rewound the reader.
  const embed::HashedNGramEmbedder emb;
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"c1", "alpha beta"}, {"c2", "gamma delta"}};
  VectorStore store(emb, IndexKind::kFlat);
  for (const auto& [id, text] : rows) store.add(id, text);
  store.build();
  const std::string blob = store.save();
  const auto with_length = [&](std::size_t at, std::uint64_t data_pos) {
    std::string out = blob;
    const std::uint64_t n = 0 - data_pos;
    std::memcpy(out.data() + at, &n, 8);
    return out;
  };

  // vstore2 layout: magic, kind name, row count, (id, text) per row,
  // index-blob length, zero pad to 8, index blob.
  std::size_t pos = 8 + 8 + index_kind_name(IndexKind::kFlat).size() + 8;
  const std::size_t first_id = pos;
  for (const auto& [id, text] : rows) pos += 8 + id.size() + 8 + text.size();
  std::size_t index_data = pos + 8;
  while (index_data % 8 != 0) ++index_data;

  EXPECT_NO_THROW(VectorStore::load(emb, blob));
  EXPECT_THROW(VectorStore::load(emb, with_length(pos, index_data)),
               std::runtime_error);
  EXPECT_THROW(VectorStore::load(emb, with_length(first_id, first_id + 8)),
               std::runtime_error);

  // A row count of 2^40 must be rejected before anything is reserved
  // for it (it used to reach reserve() and throw std::bad_alloc).
  std::string huge = blob;
  const std::size_t rows_at = first_id - 8;
  const std::uint64_t count = std::uint64_t{1} << 40;
  std::memcpy(huge.data() + rows_at, &count, 8);
  EXPECT_THROW(VectorStore::load(emb, huge), std::runtime_error);
}

}  // namespace
}  // namespace mcqa::index
