// Unit tests for the embedding substrate.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "embed/embedding_cache.hpp"
#include "embed/hashed_embedder.hpp"
#include "parallel/thread_pool.hpp"
#include "util/hash.hpp"

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

void expect_bit_identical(const Vector& a, const Vector& b,
                          const std::string& text) {
  ASSERT_EQ(a.size(), b.size()) << "text: " << text;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit equality, not tolerance: both sides must hash and accumulate
    // the exact same features in the exact same order.
    EXPECT_EQ(a[i], b[i]) << "dim " << i << ", text: " << text;
  }
}

// --- pinned embeddings ----------------------------------------------------------

// fnv1a over an embedding's float bits, in dimension order.
std::uint64_t embedding_digest(const Vector& v) {
  std::uint64_t h = util::fnv1a64("embedding");
  for (const float x : v) {
    h = util::hash_combine(h, util::fnv1a64(std::bit_cast<std::uint32_t>(x)));
  }
  return h;
}

// One row per (config, text).  The digests were taken from embed() when
// it was still checked bit for bit against the string-materializing
// oracle (now bench_embed_ablation's strings row), so each row pins the
// reference's embedding.
struct EmbedCase {
  std::size_t dim;
  int features;  // bit 0 word unigrams, 1 word bigrams, 2 char trigrams
  std::string_view text;
  std::uint64_t digest;
};

void expect_pinned(const EmbedCase& c) {
  HashedEmbedderConfig cfg;
  cfg.dim = c.dim;
  cfg.word_unigrams = (c.features & 1) != 0;
  cfg.word_bigrams = (c.features & 2) != 0;
  cfg.char_trigrams = (c.features & 4) != 0;
  const HashedNGramEmbedder emb(cfg);
  EXPECT_EQ(embedding_digest(emb.embed(c.text)), c.digest)
      << "dim " << c.dim << ", features " << c.features
      << ", text: " << c.text;
}

TEST(StreamingEmbed, MatchesReferenceOnEdgeCases) {
  const EmbedCase cases[] = {
      {256, 7, "", 0xe9efe2ae19a3c32bULL},  // the zero vector
      {256, 7, " \t\n ", 0xe9efe2ae19a3c32bULL},
      {256, 7, "!!! ... ---", 0xe9efe2ae19a3c32bULL},
      {256, 7, "a", 0x6f2d327ee9e6602aULL},   // no bigram, no trigram
      {256, 7, "ab", 0x6726e2e186babb45ULL},  // sub-trigram word
      {256, 7, "a b c d", 0x8c9da563beaa27b3ULL},
      {256, 7, "p53 cobalt-60 2.5", 0xf2175909359fd97dULL},
      {256, 7, "-start end- a-b a.b.", 0x6955fd142048b574ULL},
      {256, 7, "  Mixed   CASE\ttext,\nwith (punct)!  ", 0x1ecba5c27b052d96ULL},
      {256, 7, "word", 0xcb5b1d9b31264a19ULL},
      {256, 7, "xy zw", 0xa62f5fc8c17bd3e0ULL},  // one bigram
  };
  for (const EmbedCase& c : cases) expect_pinned(c);
}

TEST(StreamingEmbed, MatchesReferenceAcrossFeatureConfigs) {
  // Each feature family mix at a power-of-two dim (mask bucket) and at
  // dim 100 (modulo bucket).
  constexpr std::string_view kMixed =
      "Dose-rate effects in p53 pathways, 2.5 Gy!";
  const EmbedCase cases[] = {
      {256, 1, kMixed, 0x768ad56714141252ULL},
      {256, 2, kMixed, 0xe20e9d4bc6b608baULL},
      {256, 3, kMixed, 0xe50d9b828a7d2433ULL},
      {256, 4, kMixed, 0x31be0e5eed1c9045ULL},
      {256, 5, kMixed, 0xfb020b0aed874a28ULL},
      {256, 6, kMixed, 0x5a23b52a50702054ULL},
      {256, 7, kMixed, 0xafe34710db6456bbULL},
      {100, 1, kMixed, 0x570a86985bdc9a9aULL},
      {100, 2, kMixed, 0xdbfa4453ec5b9303ULL},
      {100, 3, kMixed, 0x4e5610f5eba8e700ULL},
      {100, 4, kMixed, 0xef0716a7ae9ada4eULL},
      {100, 5, kMixed, 0x2dbf30b161942b06ULL},
      {100, 6, kMixed, 0x3121246a9a8242e2ULL},
      {100, 7, kMixed, 0x5428b309f53dcc56ULL},
  };
  for (const EmbedCase& c : cases) expect_pinned(c);
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
