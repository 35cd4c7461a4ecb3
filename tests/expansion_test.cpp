// Tests for continuous benchmark expansion: new documents extend an
// existing benchmark, re-ingestion is idempotent, ids never collide.

#include <gtest/gtest.h>

#include <set>

#include "core/expansion.hpp"
#include "corpus/fact_matcher.hpp"
#include "parallel/thread_pool.hpp"

namespace mcqa::core {
namespace {

struct World {
  corpus::KnowledgeBase kb = corpus::KnowledgeBase::generate(
      corpus::KbConfig{.facts_per_topic = 14, .seed = 91, .math_fraction = 0.4});
  corpus::FactMatcher matcher{kb};
  embed::HashedNGramEmbedder embedder = embed::make_biomed_encoder();
  llm::TeacherModel teacher{kb, matcher};
};

World& world() {
  static World w;
  return w;
}

std::vector<corpus::RawDocument> make_batch(std::uint64_t seed,
                                            double scale = 0.002) {
  corpus::CorpusConfig cfg;
  cfg.scale = scale;
  cfg.seed = seed;
  return build_corpus(world().kb, cfg).documents;
}

TEST(Expansion, FirstBatchProducesRecordsAndTraces) {
  parallel::ThreadPool pool(2);
  const auto batch = make_batch(1);
  const ExpansionResult result = expand_benchmark(
      batch, /*existing=*/{}, world().embedder, world().teacher, pool);
  EXPECT_EQ(result.documents_in, batch.size());
  EXPECT_GT(result.documents_parsed, batch.size() * 9 / 10);
  EXPECT_GT(result.new_chunks, batch.size());
  EXPECT_GT(result.new_records.size(), 0u);
  for (int m = 0; m < trace::kTraceModeCount; ++m) {
    EXPECT_EQ(result.new_traces[static_cast<std::size_t>(m)].size(),
              result.new_records.size());
    for (const auto& t : result.new_traces[static_cast<std::size_t>(m)]) {
      EXPECT_TRUE(t.has_grading);
    }
  }
}

TEST(Expansion, ReingestionIsIdempotent) {
  parallel::ThreadPool pool(2);
  const auto batch = make_batch(2);
  const ExpansionResult first = expand_benchmark(
      batch, {}, world().embedder, world().teacher, pool);

  // Collect the chunk ids now "in the benchmark".
  std::unordered_set<std::string> seen;
  // The honest ledger is all fresh chunk ids; approximate with the
  // records' chunk ids plus re-deriving: re-run and confirm zero new
  // records when every chunk id from the first pass is excluded.
  // Re-derive all chunk ids by running with empty exclusions again and
  // capturing from the records' provenance is insufficient (filtered
  // chunks also exist), so exclude via a full re-chunk:
  {
    const parse::AdaptiveParser parser;
    const chunk::SemanticChunker chunker(world().embedder);
    for (const auto& doc : batch) {
      auto outcome = parser.parse(doc.bytes);
      if (!outcome.ok) continue;
      // Mirror the expansion pipeline: formats that don't embed a doc id
      // (markdown/plain text) get it from the raw document.
      if (outcome.document.doc_id.empty()) {
        outcome.document.doc_id = doc.doc_id;
      }
      for (const auto& c : chunker.chunk(outcome.document)) {
        seen.insert(c.chunk_id);
      }
    }
  }

  const ExpansionResult second = expand_benchmark(
      batch, seen, world().embedder, world().teacher, pool);
  EXPECT_EQ(second.new_chunks, 0u);
  EXPECT_TRUE(second.new_records.empty());
  EXPECT_EQ(second.documents_skipped, second.documents_parsed);
  EXPECT_GT(first.new_records.size(), 0u);
}

TEST(Expansion, NewBatchExtendsWithoutIdCollisions) {
  parallel::ThreadPool pool(2);
  const auto batch1 = make_batch(3);
  const ExpansionResult first = expand_benchmark(
      batch1, {}, world().embedder, world().teacher, pool);

  std::unordered_set<std::string> seen;
  for (const auto& r : first.new_records) seen.insert(r.chunk_id);

  // Different seed -> different doc ids -> genuinely new content.
  const auto batch2 = make_batch(4);
  const ExpansionResult second = expand_benchmark(
      batch2, seen, world().embedder, world().teacher, pool);
  EXPECT_GT(second.new_records.size(), 0u);

  std::set<std::string> all_ids;
  for (const auto& r : first.new_records) {
    EXPECT_TRUE(all_ids.insert(r.record_id).second);
  }
  for (const auto& r : second.new_records) {
    EXPECT_TRUE(all_ids.insert(r.record_id).second) << r.record_id;
  }
}

TEST(Expansion, ExpandedRecordsPassSameQualityBar) {
  parallel::ThreadPool pool(2);
  const auto batch = make_batch(5);
  const ExpansionResult result = expand_benchmark(
      batch, {}, world().embedder, world().teacher, pool);
  for (const auto& r : result.new_records) {
    EXPECT_GE(r.quality_score, 7.0);
    EXPECT_TRUE(world().matcher.contains(r.text, r.fact));
  }
}

TEST(Expansion, EmptyBatch) {
  parallel::ThreadPool pool(2);
  const ExpansionResult result = expand_benchmark(
      {}, {}, world().embedder, world().teacher, pool);
  EXPECT_EQ(result.documents_in, 0u);
  EXPECT_TRUE(result.new_records.empty());
}

TEST(Expansion, CorruptDocumentsSkippedGracefully) {
  parallel::ThreadPool pool(2);
  std::vector<corpus::RawDocument> batch = make_batch(6, 0.001);
  corpus::RawDocument corrupt;
  corrupt.doc_id = "corrupt_1";
  corrupt.bytes = "%SPDF-1.2\n%%Title: broken\n";  // no pages
  batch.push_back(corrupt);
  const ExpansionResult result = expand_benchmark(
      batch, {}, world().embedder, world().teacher, pool);
  EXPECT_EQ(result.documents_parsed, batch.size() - 1);
}

}  // namespace
}  // namespace mcqa::core
