// Tests for the extension features: trace grading, JSONL helpers,
// CLI-facing artifact round trips.

#include <gtest/gtest.h>

#include "json/json.hpp"
#include "qgen/mcq_record.hpp"
#include "trace/trace_grading.hpp"
#include "trace/trace_record.hpp"

namespace mcqa {
namespace {

// --- trace grading ----------------------------------------------------------------

trace::TraceRecord graded_fixture(const std::string& predicted) {
  trace::TraceRecord t;
  t.trace_id = "t_test";
  t.question = "Which agent?";
  t.options = {"cisplatin", "amifostine", "caffeine"};
  t.correct_answer_index = 0;
  t.correct_answer = "cisplatin";
  t.mode = trace::TraceMode::kEfficient;
  t.prediction.predicted_answer = predicted;
  return t;
}

TEST(TraceGrading, CorrectPredictionGraded) {
  trace::TraceRecord t = graded_fixture("cisplatin");
  trace::grade_trace(t);
  ASSERT_TRUE(t.has_grading);
  EXPECT_TRUE(t.grading.is_correct);
  EXPECT_EQ(t.grading.extracted_option_number, 1);
  EXPECT_EQ(t.grading.correct_option_number, 1);
}

TEST(TraceGrading, WrongPredictionGraded) {
  trace::TraceRecord t = graded_fixture("caffeine");
  trace::grade_trace(t);
  EXPECT_FALSE(t.grading.is_correct);
  EXPECT_EQ(t.grading.extracted_option_number, 3);
}

TEST(TraceGrading, FuzzyPredictionMatches) {
  trace::TraceRecord t = graded_fixture("Cisplatin.");
  trace::grade_trace(t);
  EXPECT_TRUE(t.grading.is_correct);
}

TEST(TraceGrading, UnmatchablePrediction) {
  trace::TraceRecord t = graded_fixture("something entirely different");
  trace::grade_trace(t);
  EXPECT_FALSE(t.grading.is_correct);
  EXPECT_EQ(t.grading.extracted_option_number, -1);
}

TEST(TraceGrading, GradeAllAndFilter) {
  std::vector<trace::TraceRecord> traces;
  traces.push_back(graded_fixture("cisplatin"));
  traces.push_back(graded_fixture("caffeine"));
  traces.push_back(graded_fixture("cisplatin"));
  const trace::TraceGradingStats stats = trace::grade_all(traces);
  EXPECT_EQ(stats.graded, 3u);
  EXPECT_EQ(stats.correct, 2u);
  EXPECT_NEAR(stats.accuracy(), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(trace::filter_incorrect(traces), 1u);
  EXPECT_EQ(traces.size(), 2u);
  for (const auto& t : traces) EXPECT_TRUE(t.grading.is_correct);
}

TEST(TraceGrading, FilterLeavesUngradedAlone) {
  std::vector<trace::TraceRecord> traces;
  traces.push_back(graded_fixture("caffeine"));  // ungraded
  EXPECT_EQ(trace::filter_incorrect(traces), 0u);
  EXPECT_EQ(traces.size(), 1u);
}

// --- JSONL ------------------------------------------------------------------------

TEST(Jsonl, RoundTrip) {
  std::vector<json::Value> docs;
  for (int i = 0; i < 5; ++i) {
    json::Value v = json::Value::object();
    v["i"] = i;
    v["text"] = "line " + std::to_string(i);
    docs.push_back(std::move(v));
  }
  const std::string blob = json::dump_jsonl(docs);
  const auto back = json::parse_jsonl(blob);
  ASSERT_EQ(back.size(), docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    EXPECT_TRUE(back[i] == docs[i]);
  }
}

TEST(Jsonl, SkipsBlankLines) {
  const auto docs = json::parse_jsonl("{\"a\":1}\n\n  \n{\"b\":2}\n");
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(docs[1].at("b").as_int(), 2);
}

TEST(Jsonl, EmptyInput) {
  EXPECT_TRUE(json::parse_jsonl("").empty());
  EXPECT_TRUE(json::parse_jsonl("\n\n").empty());
}

TEST(Jsonl, BadLineThrows) {
  EXPECT_THROW(json::parse_jsonl("{\"ok\":1}\nnot json\n"), json::ParseError);
}

TEST(Jsonl, McqRecordArtifactRoundTrip) {
  // The exact artifact flow the CLI uses: records -> jsonl -> records.
  std::vector<json::Value> docs;
  for (int i = 0; i < 3; ++i) {
    qgen::McqRecord r;
    r.record_id = "q_" + std::to_string(i);
    r.stem = "Stem " + std::to_string(i) + "?";
    r.options = {"a", "b", "c"};
    r.correct_index = i % 3;
    r.answer = r.options[static_cast<std::size_t>(r.correct_index)];
    r.question = qgen::McqRecord::render_question(r.stem, r.options);
    docs.push_back(r.to_json());
  }
  const auto back = json::parse_jsonl(json::dump_jsonl(docs));
  ASSERT_EQ(back.size(), 3u);
  const qgen::McqRecord r1 = qgen::McqRecord::from_json(back[1]);
  EXPECT_EQ(r1.record_id, "q_1");
  EXPECT_EQ(r1.correct_index, 1);
}

}  // namespace
}  // namespace mcqa
