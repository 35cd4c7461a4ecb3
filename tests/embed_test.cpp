// Unit tests for the embedding substrate.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "embed/embedding_cache.hpp"
#include "embed/embedding_store.hpp"
#include "embed/hashed_embedder.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace mcqa::embed {
namespace {

TEST(VectorOps, DotAndNormalize) {
  Vector a{3.0f, 4.0f};
  normalize(a);
  EXPECT_NEAR(std::sqrt(dot(a, a)), 1.0f, 1e-6f);
  Vector zero{0.0f, 0.0f};
  normalize(zero);  // must not produce NaN
  EXPECT_EQ(zero[0], 0.0f);
}

TEST(VectorOps, L2Sq) {
  const Vector a{1.0f, 0.0f};
  const Vector b{0.0f, 1.0f};
  EXPECT_FLOAT_EQ(l2_sq(a, b), 2.0f);
  EXPECT_FLOAT_EQ(l2_sq(a, a), 0.0f);
}

TEST(HashedEmbedder, UnitNormOutput) {
  const HashedNGramEmbedder emb;
  const Vector v = emb.embed("ionizing radiation induces DNA damage");
  EXPECT_EQ(v.size(), emb.dim());
  EXPECT_NEAR(dot(v, v), 1.0f, 1e-5f);
}

TEST(HashedEmbedder, EmptyTextGivesZeroVector) {
  const HashedNGramEmbedder emb;
  const Vector v = emb.embed("");
  for (const float x : v) EXPECT_EQ(x, 0.0f);
}

TEST(HashedEmbedder, Deterministic) {
  const HashedNGramEmbedder emb;
  EXPECT_EQ(emb.embed("TP53 activates apoptosis"),
            emb.embed("TP53 activates apoptosis"));
}

TEST(HashedEmbedder, CaseAndPunctuationInvariant) {
  const HashedNGramEmbedder emb;
  const Vector a = emb.embed("TP53 activates apoptosis.");
  const Vector b = emb.embed("tp53 ACTIVATES apoptosis");
  EXPECT_NEAR(dot(a, b), 1.0f, 1e-5f);
}

TEST(HashedEmbedder, SimilarTextsScoreHigherThanDissimilar) {
  const HashedNGramEmbedder emb;
  const Vector q = emb.embed(
      "Which factor activates apoptosis after ionizing radiation?");
  const Vector relevant = emb.embed(
      "Our data indicate that TP53 activates apoptosis in irradiated cells.");
  const Vector unrelated = emb.embed(
      "Samples were processed within thirty minutes of collection.");
  EXPECT_GT(dot(q, relevant), dot(q, unrelated) + 0.1f);
}

TEST(HashedEmbedder, SeedChangesEmbedding) {
  HashedEmbedderConfig c1;
  HashedEmbedderConfig c2;
  c2.seed = c1.seed + 1;
  const HashedNGramEmbedder e1(c1);
  const HashedNGramEmbedder e2(c2);
  const Vector a = e1.embed("proton beams");
  const Vector b = e2.embed("proton beams");
  EXPECT_LT(std::fabs(dot(a, b)), 0.9f);
}

TEST(HashedEmbedder, DimensionConfigurable) {
  HashedEmbedderConfig cfg;
  cfg.dim = 64;
  const HashedNGramEmbedder emb(cfg);
  EXPECT_EQ(emb.embed("x y z").size(), 64u);
}

// std::string rather than const char*: keeps the ctest case names free of
// pointer addresses (see JudgeExtraction in eval_test.cpp).
class EmbedderSimilarityOrder
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(EmbedderSimilarityOrder, ParaphraseBeatsRandomPair) {
  const HashedNGramEmbedder emb;
  const auto [text, paraphrase] = GetParam();
  const Vector a = emb.embed(text);
  const Vector b = emb.embed(paraphrase);
  const Vector noise = emb.embed(
      "statistical significance was assessed with two-sided tests");
  EXPECT_GT(dot(a, b), dot(a, noise));
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, EmbedderSimilarityOrder,
    ::testing::Values(
        std::make_tuple("cisplatin radiosensitizes HeLa cells",
                        "HeLa cells are radiosensitized by cisplatin"),
        std::make_tuple("the half-life of iodine-131 is 8 days",
                        "iodine-131 has a physical half-life of 8.02 days"),
        std::make_tuple("homologous recombination repairs strand breaks",
                        "strand breaks are repaired by homologous "
                        "recombination")));

TEST(EmbeddingStore, AddAndRetrieve) {
  const HashedNGramEmbedder emb;
  EmbeddingStore store(emb.dim());
  const Vector v = emb.embed("alpha particles");
  store.add("chunk_1", v);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.id(0), "chunk_1");
  const Vector back = store.vector(0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(back[i], v[i], 2e-3f);
  }
}

TEST(EmbeddingStore, DimMismatchRejected) {
  EmbeddingStore store(16);
  EXPECT_THROW(store.add("x", Vector(8, 0.0f)), std::invalid_argument);
}

TEST(EmbeddingStore, OutOfRangeRowThrows) {
  EmbeddingStore store(4);
  EXPECT_THROW(store.vector(0), std::out_of_range);
}

TEST(EmbeddingStore, StorageBytesAreFp16) {
  EmbeddingStore store(256);
  store.add("a", Vector(256, 0.5f));
  store.add("b", Vector(256, 0.25f));
  EXPECT_EQ(store.storage_bytes(), 2u * 256u * 2u);
}

TEST(EmbeddingStore, SaveLoadRoundTrip) {
  const HashedNGramEmbedder emb;
  EmbeddingStore store(emb.dim());
  store.add("first", emb.embed("dose fractionation"));
  store.add("second", emb.embed("tumor hypoxia"));
  const EmbeddingStore loaded = EmbeddingStore::load(store.save());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.id(1), "second");
  EXPECT_EQ(loaded.vector(0), store.vector(0));
}

TEST(EmbeddingStore, LoadRejectsCorruptBlobs) {
  EXPECT_THROW(EmbeddingStore::load("garbage"), std::runtime_error);
  EXPECT_THROW(EmbeddingStore::load("embst1\n4 2\nonly_one_id\n"),
               std::runtime_error);
  // Truncated payload.
  const HashedNGramEmbedder emb;
  EmbeddingStore store(emb.dim());
  store.add("x", emb.embed("text"));
  std::string blob = store.save();
  blob.resize(blob.size() - 10);
  EXPECT_THROW(EmbeddingStore::load(blob), std::runtime_error);
}

TEST(EmbeddingStore, QuantizationErrorBounded) {
  const HashedNGramEmbedder emb;
  const Vector v = emb.embed("relative biological effectiveness of carbon");
  // Unit-norm components are < 1; fp16 error there is < 2^-11.
  EXPECT_LT(EmbeddingStore::quantization_error(v), 0x1.0p-10f);
}

// --- streaming kernel vs string-materializing reference ------------------------

void expect_bit_identical(const Vector& a, const Vector& b,
                          const std::string& text) {
  ASSERT_EQ(a.size(), b.size()) << "text: " << text;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit equality, not tolerance: the streaming path must hash and
    // accumulate the exact same features in the exact same order.
    EXPECT_EQ(a[i], b[i]) << "dim " << i << ", text: " << text;
  }
}

TEST(StreamingEmbed, MatchesReferenceOnEdgeCases) {
  const HashedNGramEmbedder emb;
  const std::vector<std::string> cases{
      "",                      // empty
      " \t\n ",                // whitespace only
      "!!! ... ---",           // punctuation only
      "a",                     // single char: no bigrams, no trigrams
      "ab",                    // sub-trigram word
      "a b c d",               // 1-char words: bigrams but no word trigrams
      "p53 cobalt-60 2.5",     // intra-word hyphen/dot survivors
      "-start end- a-b a.b.",  // boundary hyphens/dots dropped
      "  Mixed   CASE\ttext,\nwith (punct)!  ",
      "word",                  // exactly one word
      "xy zw",                 // two sub-trigram words -> one bigram
  };
  for (const auto& s : cases) {
    expect_bit_identical(emb.embed(s), emb.embed_reference(s), s);
  }
}

TEST(StreamingEmbed, PropertyMatchesReferenceOnRandomText) {
  const HashedNGramEmbedder emb;
  util::Rng rng(0x5eedf00dULL);
  // Random byte soup: words of random lengths (including 1 and 2 chars)
  // from a pool that exercises case folding, digits, intra-word and
  // stray punctuation, and multi-space runs.
  const std::string pool =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
      "-.,;:!?()[]\"'/ \t\n";
  for (int trial = 0; trial < 200; ++trial) {
    std::string s;
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 160));
    for (std::size_t i = 0; i < len; ++i) {
      s += pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    }
    expect_bit_identical(emb.embed(s), emb.embed_reference(s), s);
  }
}

TEST(StreamingEmbed, MatchesReferenceAcrossFeatureConfigs) {
  // Each feature family on its own, and non-power-of-two dim (modulo
  // bucket path instead of the mask).
  for (const std::size_t dim : {256u, 100u}) {
    for (int mask = 1; mask < 8; ++mask) {
      HashedEmbedderConfig cfg;
      cfg.dim = dim;
      cfg.word_unigrams = (mask & 1) != 0;
      cfg.word_bigrams = (mask & 2) != 0;
      cfg.char_trigrams = (mask & 4) != 0;
      const HashedNGramEmbedder emb(cfg);
      const std::string s = "Dose-rate effects in p53 pathways, 2.5 Gy!";
      expect_bit_identical(emb.embed(s), emb.embed_reference(s), s);
    }
  }
}

// --- batch embedding -----------------------------------------------------------

TEST(EmbedBatch, BitIdenticalAcrossThreadCounts) {
  const HashedNGramEmbedder emb;
  std::vector<std::string> texts;
  for (int i = 0; i < 37; ++i) {
    texts.push_back("chunk " + std::to_string(i) +
                    " discusses stellar nucleosynthesis and dose-rate " +
                    std::to_string(i * 3) + ".");
  }
  std::vector<Vector> want;
  want.reserve(texts.size());
  for (const auto& t : texts) want.push_back(emb.embed(t));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    const auto got = emb.embed_batch(texts, pool);
    ASSERT_EQ(got.size(), want.size()) << threads << " threads";
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_bit_identical(got[i], want[i], texts[i]);
    }
  }
}

TEST(EmbedBatch, EmptyBatch) {
  const HashedNGramEmbedder emb;
  parallel::ThreadPool pool(2);
  EXPECT_TRUE(emb.embed_batch(std::vector<std::string>{}, pool).empty());
}

// --- embedding cache -----------------------------------------------------------

TEST(CachingEmbedder, HitReturnsSameBitsAsBase) {
  const HashedNGramEmbedder base;
  const CachingEmbedder cache(base);
  const std::string s = "proton therapy bragg peak";
  const Vector direct = base.embed(s);
  expect_bit_identical(cache.embed(s), direct, s);  // miss, computes
  expect_bit_identical(cache.embed(s), direct, s);  // hit, returns copy
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(CachingEmbedder, DistinctTextsDistinctEntries) {
  const HashedNGramEmbedder base;
  const CachingEmbedder cache(base);
  cache.embed("alpha");
  cache.embed("beta");
  cache.embed("alpha");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(CachingEmbedder, MaxEntriesBoundsInsertionNotCorrectness) {
  const HashedNGramEmbedder base;
  const CachingEmbedder cache(base, /*max_entries=*/1);
  cache.embed("first");   // inserted
  cache.embed("second");  // full: computed, not inserted
  expect_bit_identical(cache.embed("second"), base.embed("second"), "second");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 0u);  // "second" never cached, so never a hit
  EXPECT_EQ(stats.misses, 3u);
}

TEST(CachingEmbedder, ClearResetsEverything) {
  const HashedNGramEmbedder base;
  CachingEmbedder cache(base);
  cache.embed("x");
  cache.embed("x");
  cache.clear();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.0);
}

TEST(CachingEmbedder, ConcurrentMixedWorkloadStaysDeterministic) {
  const HashedNGramEmbedder base;
  const CachingEmbedder cache(base);
  std::vector<std::string> texts;
  for (int i = 0; i < 64; ++i) {
    texts.push_back("repeated text " + std::to_string(i % 8));
  }
  parallel::ThreadPool pool(8);
  const auto got = cache.embed_batch(texts, pool);
  for (std::size_t i = 0; i < texts.size(); ++i) {
    expect_bit_identical(got[i], base.embed(texts[i]), texts[i]);
  }
  // 8 distinct texts -> at most 8 entries regardless of interleaving.
  EXPECT_LE(cache.stats().entries, 8u);
}

}  // namespace
}  // namespace mcqa::embed
