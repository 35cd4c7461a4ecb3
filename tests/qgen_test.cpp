// Unit tests for MCQ record schema and benchmark construction.

#include <gtest/gtest.h>

#include <set>

#include "chunk/chunker.hpp"
#include "corpus/fact_matcher.hpp"
#include "corpus/realization.hpp"
#include "llm/teacher_model.hpp"
#include "parallel/thread_pool.hpp"
#include "qgen/benchmark_builder.hpp"
#include "qgen/mcq_record.hpp"

namespace mcqa::qgen {
namespace {

const corpus::KnowledgeBase& test_kb() {
  static const corpus::KnowledgeBase kb = corpus::KnowledgeBase::generate(
      corpus::KbConfig{.facts_per_topic = 14, .seed = 31, .math_fraction = 0.4});
  return kb;
}

std::vector<chunk::Chunk> test_chunks() {
  std::vector<chunk::Chunk> chunks;
  std::size_t index = 0;
  for (const auto& f : test_kb().facts()) {
    chunk::Chunk c;
    c.chunk_id = chunk::make_chunk_id("doc_qgen", index);
    c.doc_id = "doc_qgen";
    c.path = "corpus/doc_qgen.spdf";
    c.index = index++;
    c.text = "Background sentences set the stage for the finding. " +
             corpus::realize_statement(test_kb(), f, 1) +
             " Further replication confirmed the effect.";
    c.word_count = 28;
    chunks.push_back(std::move(c));
    if (chunks.size() >= 120) break;
  }
  // Some filler-only chunks that must produce no questions.
  for (int i = 0; i < 30; ++i) {
    chunk::Chunk c;
    c.chunk_id = chunk::make_chunk_id("doc_filler", static_cast<std::size_t>(i));
    c.doc_id = "doc_filler";
    c.path = "corpus/doc_filler.spdf";
    c.text = "Experiments were performed in triplicate and repeated on "
             "independent occasions with appropriate controls.";
    c.word_count = 15;
    chunks.push_back(std::move(c));
  }
  return chunks;
}

// --- record schema --------------------------------------------------------------

TEST(McqRecord, RenderQuestionNumbersOptions) {
  const std::string q = McqRecord::render_question(
      "Which one?", {"first", "second", "third"});
  EXPECT_NE(q.find("Which one?"), std::string::npos);
  EXPECT_NE(q.find("1. first"), std::string::npos);
  EXPECT_NE(q.find("3. third"), std::string::npos);
}

TEST(McqRecord, JsonRoundTripPreservesAllFields) {
  McqRecord r;
  r.record_id = "q_abc_1";
  r.stem = "What is the half-life of iodine-131?";
  r.options = {"8 days", "80 days", "8 years"};
  r.correct_index = 0;
  r.question = McqRecord::render_question(r.stem, r.options);
  r.answer = r.options[0];
  r.text = "source chunk text";
  r.chunk_id = "abcdef123456_7";
  r.path = "corpus/paper_000001.spdf";
  r.relevance_score = 8.5;
  r.relevance_reasoning = "domain relevant";
  r.quality_score = 7.75;
  r.quality_critique = "clear";
  r.quality_raw_output = "score=7.75";
  r.fact = 42;
  r.math = true;
  r.fact_importance = 0.66;
  r.key_principle = "decay halves activity";
  r.ambiguity = 0.1;
  r.exam_item = false;

  const McqRecord back = McqRecord::from_json(r.to_json());
  EXPECT_EQ(back.record_id, r.record_id);
  EXPECT_EQ(back.stem, r.stem);
  EXPECT_EQ(back.options, r.options);
  EXPECT_EQ(back.correct_index, r.correct_index);
  EXPECT_EQ(back.question, r.question);
  EXPECT_EQ(back.answer, r.answer);
  EXPECT_EQ(back.chunk_id, r.chunk_id);
  EXPECT_EQ(back.path, r.path);
  EXPECT_DOUBLE_EQ(back.relevance_score, r.relevance_score);
  EXPECT_DOUBLE_EQ(back.quality_score, r.quality_score);
  EXPECT_EQ(back.fact, r.fact);
  EXPECT_TRUE(back.math);
  EXPECT_DOUBLE_EQ(back.fact_importance, r.fact_importance);
  EXPECT_EQ(back.key_principle, r.key_principle);
  EXPECT_DOUBLE_EQ(back.ambiguity, r.ambiguity);
}

TEST(McqRecord, JsonHasPaperSchemaFields) {
  McqRecord r;
  r.type = "multiple-choice";
  r.cleaning_version = "1.0";
  const json::Value v = r.to_json();
  // Fig. 2 field names.
  EXPECT_TRUE(v.as_object().contains("question"));
  EXPECT_TRUE(v.as_object().contains("answer"));
  EXPECT_TRUE(v.as_object().contains("text"));
  EXPECT_TRUE(v.as_object().contains("type"));
  EXPECT_TRUE(v.as_object().contains("chunk_id"));
  EXPECT_TRUE(v.as_object().contains("cleaning_version"));
  EXPECT_TRUE(v.as_object().contains("path"));
  EXPECT_TRUE(v.at("relevance_check").as_object().contains("score"));
  EXPECT_TRUE(v.at("quality_check").as_object().contains("critique"));
}

TEST(McqRecord, ToTaskCopiesSimulationLayer) {
  McqRecord r;
  r.record_id = "rid";
  r.stem = "stem";
  r.options = {"a", "b"};
  r.correct_index = 1;
  r.fact = 9;
  r.math = true;
  r.fact_importance = 0.4;
  r.ambiguity = 0.2;
  r.exam_item = true;
  const llm::McqTask t = r.to_task();
  EXPECT_EQ(t.id, "rid");
  EXPECT_EQ(t.correct_index, 1);
  EXPECT_EQ(t.fact, 9u);
  EXPECT_TRUE(t.math);
  EXPECT_TRUE(t.has_fact);
  EXPECT_TRUE(t.exam_item);
  EXPECT_DOUBLE_EQ(t.ambiguity, 0.2);
  EXPECT_TRUE(t.context.empty());
}

// --- benchmark builder -------------------------------------------------------------

TEST(BenchmarkBuilder, FunnelAccounting) {
  const corpus::FactMatcher matcher(test_kb());
  const llm::TeacherModel teacher(test_kb(), matcher);
  const BenchmarkBuilder builder(teacher);
  parallel::ThreadPool pool(2);
  FunnelStats stats;
  const auto records = builder.build(test_chunks(), pool, &stats);
  EXPECT_EQ(stats.chunks, test_chunks().size());
  EXPECT_EQ(stats.accepted, records.size());
  EXPECT_EQ(stats.chunks, stats.candidates + stats.rejected_no_fact);
  EXPECT_EQ(stats.candidates,
            stats.accepted + stats.rejected_quality + stats.rejected_relevance);
  // All filler chunks must be no-fact rejections.
  EXPECT_GE(stats.rejected_no_fact, 30u);
}

TEST(BenchmarkBuilder, AcceptedRecordsAreWellFormed) {
  const corpus::FactMatcher matcher(test_kb());
  const llm::TeacherModel teacher(test_kb(), matcher);
  const BenchmarkBuilder builder(teacher);
  parallel::ThreadPool pool(2);
  const auto records = builder.build(test_chunks(), pool);
  ASSERT_FALSE(records.empty());
  std::set<std::string> ids;
  for (const auto& r : records) {
    EXPECT_TRUE(ids.insert(r.record_id).second) << "duplicate record id";
    EXPECT_GE(r.quality_score, 7.0);
    EXPECT_GE(r.relevance_score, 5.0);
    ASSERT_GE(r.correct_index, 0);
    ASSERT_LT(r.correct_index, static_cast<int>(r.options.size()));
    EXPECT_EQ(r.answer, r.options[static_cast<std::size_t>(r.correct_index)]);
    EXPECT_FALSE(r.text.empty());           // provenance: source chunk
    EXPECT_FALSE(r.chunk_id.empty());
    EXPECT_NE(r.record_id.find(r.chunk_id), std::string::npos);
    EXPECT_NE(r.question.find(r.stem), std::string::npos);
    EXPECT_GT(r.ambiguity, 0.0);  // residual ambiguity recorded
    // The probed fact really is in the source chunk.
    EXPECT_TRUE(matcher.contains(r.text, r.fact));
  }
}

TEST(BenchmarkBuilder, HigherThresholdAcceptsFewer) {
  const corpus::FactMatcher matcher(test_kb());
  const llm::TeacherModel teacher(test_kb(), matcher);
  BuilderConfig lenient;
  lenient.quality_threshold = 5.0;
  BuilderConfig strict;
  strict.quality_threshold = 8.5;
  parallel::ThreadPool pool(2);
  const auto many =
      BenchmarkBuilder(teacher, lenient).build(test_chunks(), pool);
  const auto few = BenchmarkBuilder(teacher, strict).build(test_chunks(), pool);
  EXPECT_GT(many.size(), few.size());
}

TEST(BenchmarkBuilder, DeterministicAcrossRuns) {
  const corpus::FactMatcher matcher(test_kb());
  const llm::TeacherModel teacher(test_kb(), matcher);
  const BenchmarkBuilder builder(teacher);
  parallel::ThreadPool one(1);
  parallel::ThreadPool four(4);
  const auto a = builder.build(test_chunks(), one);
  const auto b = builder.build(test_chunks(), four);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].record_id, b[i].record_id);
    EXPECT_EQ(a[i].question, b[i].question);
    EXPECT_EQ(a[i].correct_index, b[i].correct_index);
  }
}

TEST(BenchmarkBuilder, EmptyInput) {
  const corpus::FactMatcher matcher(test_kb());
  const llm::TeacherModel teacher(test_kb(), matcher);
  const BenchmarkBuilder builder(teacher);
  parallel::ThreadPool pool(1);
  FunnelStats stats;
  EXPECT_TRUE(builder.build({}, pool, &stats).empty());
  EXPECT_EQ(stats.chunks, 0u);
  EXPECT_DOUBLE_EQ(stats.acceptance_rate(), 0.0);
}

}  // namespace
}  // namespace mcqa::qgen
