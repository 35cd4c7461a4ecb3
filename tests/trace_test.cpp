// Unit tests for reasoning-trace records and distillation.

#include <gtest/gtest.h>

#include <algorithm>

#include "corpus/fact_matcher.hpp"
#include "corpus/realization.hpp"
#include "llm/teacher_model.hpp"
#include "parallel/thread_pool.hpp"
#include "qgen/mcq_record.hpp"
#include "trace/trace_generator.hpp"
#include "trace/trace_record.hpp"

namespace mcqa::trace {
namespace {

const corpus::KnowledgeBase& test_kb() {
  static const corpus::KnowledgeBase kb = corpus::KnowledgeBase::generate(
      corpus::KbConfig{.facts_per_topic = 14, .seed = 41, .math_fraction = 0.4});
  return kb;
}

qgen::McqRecord sample_record(std::size_t fact_offset = 0) {
  const auto& kb = test_kb();
  const corpus::Fact& f = kb.facts()[fact_offset % kb.facts().size()];
  util::Rng rng(fact_offset + 1000);
  const corpus::QuestionRealization real =
      corpus::realize_question(kb, f, rng);

  qgen::McqRecord r;
  r.record_id = "q_trace_" + std::to_string(fact_offset);
  r.stem = real.stem;
  r.options.push_back(real.correct);
  for (const auto& d : real.distractors) r.options.push_back(d);
  r.correct_index = 0;
  r.answer = real.correct;
  r.question = qgen::McqRecord::render_question(r.stem, r.options);
  r.fact = f.id;
  r.math = real.math;
  r.key_principle = real.key_principle;
  return r;
}

TEST(TraceMode, NamesRoundTrip) {
  for (int m = 0; m < kTraceModeCount; ++m) {
    const auto mode = static_cast<TraceMode>(m);
    EXPECT_EQ(trace_mode_from_name(trace_mode_name(mode)), mode);
  }
  EXPECT_THROW(trace_mode_from_name("verbose"), std::invalid_argument);
}

class TraceGenAllModes : public ::testing::TestWithParam<TraceMode> {};

TEST_P(TraceGenAllModes, SchemaFieldsPopulated) {
  const corpus::FactMatcher matcher(test_kb());
  const llm::TeacherModel teacher(test_kb(), matcher);
  const TraceGenerator gen(teacher);
  const qgen::McqRecord record = sample_record(1);
  const TraceRecord t = gen.generate(record, GetParam());

  EXPECT_EQ(t.mode, GetParam());
  EXPECT_EQ(t.question, record.question);
  EXPECT_EQ(t.options, record.options);
  EXPECT_EQ(t.correct_answer_index, record.correct_index);
  EXPECT_EQ(t.correct_answer, record.answer);
  EXPECT_EQ(t.source_record_id, record.record_id);
  EXPECT_FALSE(t.prediction.predicted_answer.empty());
  EXPECT_FALSE(t.prediction.confidence_level.empty());

  switch (GetParam()) {
    case TraceMode::kDetailed:
      EXPECT_EQ(t.thought_process.size(), record.options.size());
      EXPECT_FALSE(t.scientific_conclusion.empty());
      break;
    case TraceMode::kFocused:
      EXPECT_FALSE(t.key_principle.empty());
      EXPECT_FALSE(t.dismissed_options.empty());
      EXPECT_FALSE(t.viable_options.empty());
      break;
    case TraceMode::kEfficient:
      EXPECT_FALSE(t.quick_analysis.empty());
      EXPECT_FALSE(t.elimination.empty());
      break;
  }
}

TEST_P(TraceGenAllModes, JsonRoundTrip) {
  const corpus::FactMatcher matcher(test_kb());
  const llm::TeacherModel teacher(test_kb(), matcher);
  const TraceGenerator gen(teacher);
  const TraceRecord t = gen.generate(sample_record(2), GetParam());
  const TraceRecord back = TraceRecord::from_json(t.to_json());
  EXPECT_EQ(back.trace_id, t.trace_id);
  EXPECT_EQ(back.mode, t.mode);
  EXPECT_EQ(back.question, t.question);
  EXPECT_EQ(back.options, t.options);
  EXPECT_EQ(back.correct_answer_index, t.correct_answer_index);
  EXPECT_EQ(back.thought_process, t.thought_process);
  EXPECT_EQ(back.key_principle, t.key_principle);
  EXPECT_EQ(back.dismissed_options, t.dismissed_options);
  EXPECT_EQ(back.viable_options, t.viable_options);
  EXPECT_EQ(back.quick_analysis, t.quick_analysis);
  EXPECT_EQ(back.elimination, t.elimination);
  EXPECT_EQ(back.prediction.predicted_answer, t.prediction.predicted_answer);
  EXPECT_EQ(back.retrieval_text(), t.retrieval_text());
}

TEST_P(TraceGenAllModes, RetrievalTextWithholdsAnswer) {
  const corpus::FactMatcher matcher(test_kb());
  const llm::TeacherModel teacher(test_kb(), matcher);
  const TraceGenerator gen(teacher);
  // Use a record whose options list doesn't leak into reasoning except
  // via dismissals: check the *prediction* sentinel is absent and the
  // correct answer is not announced as such.
  for (std::size_t i = 0; i < 6; ++i) {
    const qgen::McqRecord record = sample_record(i + 10);
    const TraceRecord t = gen.generate(record, GetParam());
    const std::string text = t.retrieval_text();
    EXPECT_EQ(text.find("predicted_answer"), std::string::npos);
    EXPECT_EQ(text.find(t.prediction.prediction_reasoning),
              std::string::npos);
    // The schema's answer declaration never appears in retrieval text.
    EXPECT_EQ(text.find("correct_answer"), std::string::npos);
  }
}

TEST_P(TraceGenAllModes, GradingBlockOptional) {
  const corpus::FactMatcher matcher(test_kb());
  const llm::TeacherModel teacher(test_kb(), matcher);
  const TraceGenerator gen(teacher);
  TraceRecord t = gen.generate(sample_record(3), GetParam());
  EXPECT_FALSE(t.has_grading);
  EXPECT_FALSE(t.to_json().as_object().contains("grading_result"));
  t.has_grading = true;
  t.grading.is_correct = true;
  t.grading.extracted_option_number = 1;
  t.grading.correct_option_number = 1;
  const TraceRecord back = TraceRecord::from_json(t.to_json());
  EXPECT_TRUE(back.has_grading);
  EXPECT_TRUE(back.grading.is_correct);
}

INSTANTIATE_TEST_SUITE_P(Modes, TraceGenAllModes,
                         ::testing::Values(TraceMode::kDetailed,
                                           TraceMode::kFocused,
                                           TraceMode::kEfficient),
                         [](const auto& info) {
                           return std::string(trace_mode_name(info.param));
                         });

TEST(TraceGen, DismissedOptionsAreWrongOptions) {
  const corpus::FactMatcher matcher(test_kb());
  const llm::TeacherModel teacher(test_kb(), matcher);
  const TraceGenerator gen(teacher);
  for (std::size_t i = 0; i < 8; ++i) {
    const qgen::McqRecord record = sample_record(i);
    const TraceRecord t = gen.generate(record, TraceMode::kFocused);
    for (const auto& dismissed : t.dismissed_options) {
      EXPECT_NE(dismissed, record.answer)
          << "trace dismissed the correct answer";
      EXPECT_NE(std::find(record.options.begin(), record.options.end(),
                          dismissed),
                record.options.end());
    }
    // The correct answer stays among viable options.
    EXPECT_NE(std::find(t.viable_options.begin(), t.viable_options.end(),
                        record.answer),
              t.viable_options.end());
  }
}

TEST(TraceGen, TraceCarriesTheProbedFact) {
  // The headline mechanism: a trace's retrieval text must contain the
  // fact its question probes (that's what makes traces a knowledge
  // transfer channel).
  const corpus::FactMatcher matcher(test_kb());
  const llm::TeacherModel teacher(test_kb(), matcher);
  const TraceGenerator gen(teacher);
  std::size_t carried = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    const qgen::McqRecord record = sample_record(i);
    for (int m = 0; m < kTraceModeCount; ++m) {
      const TraceRecord t = gen.generate(record, static_cast<TraceMode>(m));
      ++total;
      carried += matcher.contains(t.retrieval_text(), record.fact) ? 1 : 0;
    }
  }
  // Relational facts always carry; numeric-only stems may not, so allow
  // some slack.
  EXPECT_GT(carried * 10, total * 7);
}

TEST(TraceGen, GenerateAllParallelOrderStable) {
  const corpus::FactMatcher matcher(test_kb());
  const llm::TeacherModel teacher(test_kb(), matcher);
  std::vector<qgen::McqRecord> records;
  for (std::size_t i = 0; i < 24; ++i) records.push_back(sample_record(i));

  const TraceGenerator tracer(teacher);
  parallel::ThreadPool one(1);
  parallel::ThreadPool four(4);
  const auto a = tracer.generate_all(records, TraceMode::kDetailed, one);
  const auto b = tracer.generate_all(records, TraceMode::kDetailed, four);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].trace_id, b[i].trace_id);
    EXPECT_EQ(a[i].retrieval_text(), b[i].retrieval_text());
  }
}

TEST(TraceGen, TraceIdEncodesProvenance) {
  const corpus::FactMatcher matcher(test_kb());
  const llm::TeacherModel teacher(test_kb(), matcher);
  const TraceGenerator gen(teacher);
  const qgen::McqRecord record = sample_record(5);
  const TraceRecord t = gen.generate(record, TraceMode::kEfficient);
  EXPECT_NE(t.trace_id.find("efficient"), std::string::npos);
  EXPECT_NE(t.trace_id.find(record.record_id), std::string::npos);
}

}  // namespace
}  // namespace mcqa::trace
