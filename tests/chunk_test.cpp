// Unit tests for semantic and fixed-size chunking.

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "chunk/chunker.hpp"
#include "corpus/fact_matcher.hpp"
#include "corpus/paper_generator.hpp"
#include "embed/hashed_embedder.hpp"
#include "parse/parsers.hpp"
#include "text/sentence.hpp"
#include "text/tokenizer.hpp"

namespace mcqa::chunk {
namespace {

parse::ParsedDocument sample_doc(std::uint64_t seed = 11) {
  static const corpus::KnowledgeBase kb = corpus::KnowledgeBase::generate(
      corpus::KbConfig{.facts_per_topic = 12, .seed = 9, .math_fraction = 0.4});
  const corpus::PaperGenerator gen(kb, corpus::PaperGenConfig{});
  const corpus::PaperSpec spec =
      gen.generate(0, corpus::DocKind::kFullPaper, util::Rng(seed));
  parse::ParsedDocument doc;
  doc.doc_id = spec.doc_id;
  doc.title = spec.title;
  doc.kind = "paper";
  for (const auto& section : spec.sections) {
    parse::ParsedSection s;
    s.heading = section.heading;
    for (const auto& sentence : section.sentences) {
      if (!s.text.empty()) s.text += ' ';
      s.text += sentence.text;
    }
    doc.sections.push_back(std::move(s));
  }
  return doc;
}

TEST(ChunkId, StableAndUnique) {
  EXPECT_EQ(make_chunk_id("doc", 0), make_chunk_id("doc", 0));
  EXPECT_NE(make_chunk_id("doc", 0), make_chunk_id("doc", 1));
  EXPECT_NE(make_chunk_id("doc_a", 0), make_chunk_id("doc_b", 0));
  // filehash_index shape.
  EXPECT_NE(make_chunk_id("doc", 3).find("_3"), std::string::npos);
}

TEST(SemanticChunker, CoversEverySentenceExactlyOnce) {
  const embed::HashedNGramEmbedder emb;
  const SemanticChunker chunker(emb);
  const parse::ParsedDocument doc = sample_doc();
  const auto chunks = chunker.chunk(doc);
  ASSERT_FALSE(chunks.empty());

  // Concatenated chunk text must contain each section's text exactly
  // (per-section concatenation preserves content and order).
  std::string all;
  for (const auto& c : chunks) {
    all += c.text;
    all += ' ';
  }
  for (const auto& section : doc.sections) {
    const auto sentences = text::split_sentences(section.text);
    for (const auto& s : sentences) {
      EXPECT_NE(all.find(s.text), std::string::npos)
          << "lost sentence: " << s.text;
    }
  }
}

TEST(SemanticChunker, RespectsWordCaps) {
  const embed::HashedNGramEmbedder emb;
  ChunkerConfig cfg;
  cfg.max_words = 120;
  cfg.target_words = 80;
  cfg.min_words = 20;
  const SemanticChunker chunker(emb, cfg);
  const auto chunks = chunker.chunk(sample_doc());
  for (const auto& c : chunks) {
    // A single overlong sentence can exceed the cap; allow slack of one
    // sentence (~40 words).
    EXPECT_LE(c.word_count, cfg.max_words + 40) << c.text;
  }
}

TEST(SemanticChunker, MergesTinyTail) {
  const embed::HashedNGramEmbedder emb;
  ChunkerConfig cfg;
  cfg.min_words = 30;
  const SemanticChunker chunker(emb, cfg);
  const auto chunks = chunker.chunk(sample_doc());
  if (chunks.size() >= 2) {
    EXPECT_GE(chunks.back().word_count, cfg.min_words);
  }
}

TEST(SemanticChunker, UniqueSequentialIds) {
  const embed::HashedNGramEmbedder emb;
  const SemanticChunker chunker(emb);
  const auto chunks = chunker.chunk(sample_doc());
  std::set<std::string> ids;
  for (const auto& c : chunks) {
    EXPECT_TRUE(ids.insert(c.chunk_id).second);
    EXPECT_EQ(c.doc_id, sample_doc().doc_id);
  }
}

TEST(SemanticChunker, DeterministicAcrossRuns) {
  const embed::HashedNGramEmbedder emb;
  const SemanticChunker chunker(emb);
  const auto a = chunker.chunk(sample_doc());
  const auto b = chunker.chunk(sample_doc());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].text, b[i].text);
    EXPECT_EQ(a[i].chunk_id, b[i].chunk_id);
  }
}

TEST(SemanticChunker, EmptyDocYieldsNoChunks) {
  const embed::HashedNGramEmbedder emb;
  const SemanticChunker chunker(emb);
  parse::ParsedDocument empty;
  empty.doc_id = "empty";
  EXPECT_TRUE(chunker.chunk(empty).empty());
}

TEST(SemanticChunker, SectionBoundariesAlwaysBreak) {
  const embed::HashedNGramEmbedder emb;
  const SemanticChunker chunker(emb);
  parse::ParsedDocument doc;
  doc.doc_id = "two_sections";
  doc.sections.push_back(
      {"A", "Alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon phi chi "
            "psi omega first section closing sentence here now."});
  doc.sections.push_back(
      {"B", "Second section opens with different content entirely and "
            "continues for a good number of additional words to pass "
            "the minimum chunk size threshold comfortably today."});
  const auto chunks = chunker.chunk(doc);
  // No chunk may span both sections.
  for (const auto& c : chunks) {
    const bool has_a = c.text.find("first section closing") != std::string::npos;
    const bool has_b = c.text.find("Second section opens") != std::string::npos;
    EXPECT_FALSE(has_a && has_b);
  }
}

/// The two-argument chunk() must return chunk() exactly, with each
/// vector bit-identical to embedding its chunk's text.
void expect_vectors_from_chunker(const SemanticChunker& chunker,
                                 const embed::Embedder& emb,
                                 const parse::ParsedDocument& doc) {
  const auto plain = chunker.chunk(doc);
  std::vector<embed::Vector> vectors(3, embed::Vector(emb.dim(), 1.0f));
  const auto chunks = chunker.chunk(doc, vectors);
  ASSERT_EQ(chunks.size(), plain.size());
  ASSERT_EQ(vectors.size(), chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].chunk_id, plain[i].chunk_id);
    EXPECT_EQ(chunks[i].text, plain[i].text);
    EXPECT_EQ(chunks[i].index, plain[i].index);
    EXPECT_EQ(chunks[i].word_count, plain[i].word_count);
    EXPECT_EQ(chunks[i].sentence_count, plain[i].sentence_count);
    const embed::Vector want = emb.embed(chunks[i].text);
    ASSERT_EQ(vectors[i].size(), want.size());
    EXPECT_EQ(std::memcmp(vectors[i].data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << "chunk " << i << ": " << chunks[i].text;
  }
}

TEST(SemanticChunker, VectorsEqualEmbeddedChunkText) {
  const embed::HashedNGramEmbedder emb;
  // A generated paper: boundaries come from drift tests and word caps.
  expect_vectors_from_chunker(SemanticChunker(emb), emb, sample_doc());

  // Every 20-word sentence overflows a 21-word cap, so each closes the
  // window before it; the 3-word last sentence becomes a tail chunk
  // under min_words and merges into its predecessor.
  ChunkerConfig cfg;
  cfg.max_words = 21;
  cfg.target_words = 20;
  cfg.min_words = 10;
  const SemanticChunker chunker(emb, cfg);
  const std::string twenty_a =
      "Radiation induces double strand breaks that cells repair through "
      "homologous recombination or end joining within several hours after "
      "every exposure.";
  const std::string twenty_b =
      "Tumour hypoxia lowers the oxygen enhancement of damage so hypoxic "
      "cells survive doses that kill most well oxygenated neighbours "
      "reliably.";
  ASSERT_EQ(text::count_words(twenty_a), 20u);
  ASSERT_EQ(text::count_words(twenty_b), 20u);
  parse::ParsedDocument doc;
  doc.doc_id = "merged_tail";
  doc.sections.push_back({"Merge", twenty_a + " " + twenty_b + " Tiny end here."});
  doc.sections.push_back({"One", "Just one sentence in this section."});
  doc.sections.push_back({"Empty", ""});
  const auto chunks = chunker.chunk(doc);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].text, twenty_a);
  EXPECT_EQ(chunks[1].text, twenty_b + " Tiny end here.");  // merged
  EXPECT_EQ(chunks[1].sentence_count, 2u);
  EXPECT_EQ(chunks[2].text, "Just one sentence in this section.");
  expect_vectors_from_chunker(chunker, emb, doc);
}

TEST(FixedSizeChunker, OverlapBetweenConsecutiveChunks) {
  ChunkerConfig cfg;
  cfg.target_words = 50;
  cfg.overlap_words = 10;
  cfg.min_words = 10;
  const FixedSizeChunker chunker(cfg);
  const auto chunks = chunker.chunk(sample_doc());
  ASSERT_GE(chunks.size(), 2u);
  // The tail of chunk i must reappear at the head of chunk i+1.
  const auto tail_words = text::word_tokenize(chunks[0].text);
  ASSERT_GE(tail_words.size(), 5u);
  const std::string last_word = tail_words.back().text;
  EXPECT_NE(chunks[1].text.find(last_word), std::string::npos);
}

TEST(FixedSizeChunker, ChunkSizesNearTarget) {
  ChunkerConfig cfg;
  cfg.target_words = 60;
  cfg.overlap_words = 0;
  cfg.min_words = 10;
  const FixedSizeChunker chunker(cfg);
  const auto chunks = chunker.chunk(sample_doc());
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(chunks[i].word_count), 60.0, 8.0);
  }
}

TEST(FixedSizeChunker, WordCountsMatchRecount) {
  // The chunker derives word_count from a whitespace-transition prefix
  // sum over the section body instead of re-tokenizing each chunk; the
  // result must equal counting the chunk text directly.
  ChunkerConfig cfg;
  cfg.target_words = 40;
  cfg.overlap_words = 8;
  cfg.min_words = 10;
  const FixedSizeChunker chunker(cfg);
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    for (const auto& c : chunker.chunk(sample_doc(seed))) {
      EXPECT_EQ(c.word_count, text::count_words(c.text)) << c.chunk_id;
    }
  }
}

TEST(SemanticChunker, WordCountsMatchRecount) {
  // Same invariant for the semantic chunker's running window counter.
  const embed::HashedNGramEmbedder emb;
  const SemanticChunker chunker(emb);
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    for (const auto& c : chunker.chunk(sample_doc(seed))) {
      EXPECT_EQ(c.word_count, text::count_words(c.text)) << c.chunk_id;
    }
  }
}

TEST(FixedSizeChunker, EmptyDoc) {
  const FixedSizeChunker chunker;
  parse::ParsedDocument empty;
  EXPECT_TRUE(chunker.chunk(empty).empty());
}

TEST(Chunkers, FactSurvivalThroughChunking) {
  // Facts realized in the document must be recoverable from at least one
  // chunk (the property RAG depends on).
  static const corpus::KnowledgeBase kb = corpus::KnowledgeBase::generate(
      corpus::KbConfig{.facts_per_topic = 12, .seed = 9, .math_fraction = 0.4});
  const corpus::PaperGenerator gen(kb, corpus::PaperGenConfig{});
  const corpus::PaperSpec spec =
      gen.generate(0, corpus::DocKind::kFullPaper, util::Rng(11));
  const parse::ParsedDocument doc = sample_doc(11);

  const embed::HashedNGramEmbedder emb;
  const SemanticChunker chunker(emb);
  const auto chunks = chunker.chunk(doc);
  const corpus::FactMatcher matcher(kb);

  std::size_t found = 0;
  for (const corpus::FactId f : spec.facts) {
    for (const auto& c : chunks) {
      if (matcher.contains(c.text, f)) {
        ++found;
        break;
      }
    }
  }
  // A fact sentence can only be cut if the chunk boundary lands inside
  // it, which the sentence-aligned chunker never does.
  EXPECT_EQ(found, spec.facts.size());
}

}  // namespace
}  // namespace mcqa::chunk
