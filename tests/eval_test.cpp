// Unit tests for the evaluation layer: judge, accuracy math, reports,
// paper-reference data.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "eval/harness.hpp"
#include "eval/judge.hpp"
#include "eval/paper_reference.hpp"
#include "eval/report.hpp"

namespace mcqa::eval {
namespace {

llm::McqTask judge_task() {
  llm::McqTask task;
  task.id = "jt";
  task.stem = "Which agent radiosensitizes HeLa cells?";
  task.options = {"amifostine", "cisplatin", "caffeine", "metformin"};
  task.correct_index = 1;
  return task;
}

// --- judge ---------------------------------------------------------------------

// std::string rather than const char*: gtest prints a char pointer inside a
// pair with its address, and ctest names each case after that printout.
class JudgeExtraction
    : public ::testing::TestWithParam<std::pair<std::string, int>> {};

TEST_P(JudgeExtraction, ExtractsExpectedOption) {
  const Judge judge;
  const auto [text, expected] = GetParam();
  EXPECT_EQ(judge.extract_option(text, judge_task().options), expected)
      << text;
}

INSTANTIATE_TEST_SUITE_P(
    Formats, JudgeExtraction,
    ::testing::Values(
        std::make_pair("Answer: (B) cisplatin. Established.", 1),
        std::make_pair("The answer is b", 1),
        std::make_pair("(2) looks right to me", 1),
        std::make_pair("answer: 2", 1),
        std::make_pair("I would select option c here", 2),
        std::make_pair("Considering everything, cisplatin is the agent "
                       "responsible.",
                       1),
        std::make_pair("It could relate to caffeine though other options "
                       "exist",
                       2),
        std::make_pair("Answer: (A) amifostine.", 0),
        std::make_pair("choice 4 is the only consistent one", 3),
        std::make_pair("no option named and nothing matching", -1),
        std::make_pair("", -1)));

TEST(Judge, FuzzyRescueOfTypos) {
  const Judge judge;
  // Misspelled option restated at the end.
  const int got = judge.extract_option(
      "After weighing the mechanisms the most plausible pick is cisplatn",
      judge_task().options);
  EXPECT_EQ(got, 1);
}

TEST(Judge, FirstMentionWinsForPlainText) {
  const Judge judge;
  const int got = judge.extract_option(
      "While caffeine was considered, evidence favors it over metformin.",
      judge_task().options);
  EXPECT_EQ(got, 2);  // caffeine mentioned first
}

TEST(Judge, GradeProducesSchemaFields) {
  const Judge judge;
  const llm::McqTask task = judge_task();
  const trace::GradingResult ok =
      judge.grade(task, "Answer: (B) cisplatin.");
  EXPECT_TRUE(ok.is_correct);
  EXPECT_EQ(ok.extracted_option_number, 2);  // 1-based per the schema
  EXPECT_EQ(ok.correct_option_number, 2);
  EXPECT_FALSE(ok.reasoning.empty());

  const trace::GradingResult wrong = judge.grade(task, "Answer: (C).");
  EXPECT_FALSE(wrong.is_correct);
  EXPECT_EQ(wrong.extracted_option_number, 3);

  const trace::GradingResult none = judge.grade(task, "I cannot tell.");
  EXPECT_FALSE(none.is_correct);
  EXPECT_EQ(none.extracted_option_number, -1);
  EXPECT_LT(none.confidence, 0.5);
}

TEST(Judge, NoOptionsMeansNoExtraction) {
  const Judge judge;
  EXPECT_EQ(judge.extract_option("Answer: (A)", {}), -1);
}

TEST(Judge, LetterBeyondOptionCountIgnored) {
  const Judge judge;
  // Only 4 options; "(F)" is not a valid reference.
  EXPECT_EQ(judge.extract_option("Answer: (F)", judge_task().options), -1);
}

// --- accuracy -------------------------------------------------------------------

TEST(Accuracy, ValueAndCi) {
  Accuracy acc;
  acc.correct = 75;
  acc.total = 100;
  EXPECT_DOUBLE_EQ(acc.value(), 0.75);
  const double half = acc.ci95_halfwidth();
  EXPECT_GT(half, 0.05);
  EXPECT_LT(half, 0.12);
  Accuracy empty;
  EXPECT_DOUBLE_EQ(empty.value(), 0.0);
  EXPECT_DOUBLE_EQ(empty.ci95_halfwidth(), 0.0);
}

TEST(Accuracy, CiShrinksWithN) {
  Accuracy small;
  small.correct = 8;
  small.total = 10;
  Accuracy large;
  large.correct = 800;
  large.total = 1000;
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(SweepResult, LookupAndBestTrace) {
  SweepResult sweep;
  const auto add = [&sweep](const char* model, rag::Condition c,
                            std::size_t correct) {
    CellResult cell;
    cell.model = model;
    cell.condition = c;
    cell.accuracy.correct = correct;
    cell.accuracy.total = 100;
    sweep.cells.push_back(cell);
  };
  add("m", rag::Condition::kBaseline, 40);
  add("m", rag::Condition::kTraceDetailed, 70);
  add("m", rag::Condition::kTraceFocused, 75);
  add("m", rag::Condition::kTraceEfficient, 72);
  EXPECT_DOUBLE_EQ(sweep.at("m", rag::Condition::kBaseline).value(), 0.40);
  const auto [cond, acc] = sweep.best_trace("m");
  EXPECT_EQ(cond, rag::Condition::kTraceFocused);
  EXPECT_DOUBLE_EQ(acc.value(), 0.75);
  EXPECT_THROW(sweep.at("other", rag::Condition::kBaseline),
               std::out_of_range);
  EXPECT_THROW(sweep.best_trace("other"), std::out_of_range);

  // The lazy lookup index rebuilds after cells are appended.
  add("late", rag::Condition::kChunks, 55);
  EXPECT_DOUBLE_EQ(sweep.at("late", rag::Condition::kChunks).value(), 0.55);
  EXPECT_DOUBLE_EQ(sweep.at("m", rag::Condition::kTraceDetailed).value(),
                   0.70);
}

TEST(SweepResult, BestTraceTieBreaksTowardFirstTraceCondition) {
  SweepResult sweep;
  const auto add = [&sweep](const char* model, rag::Condition c,
                            std::size_t correct) {
    CellResult cell;
    cell.model = model;
    cell.condition = c;
    cell.accuracy.correct = correct;
    cell.accuracy.total = 100;
    sweep.cells.push_back(cell);
  };
  // Detailed and efficient tie; detailed comes first in sweep order and
  // must win deterministically.
  add("m", rag::Condition::kBaseline, 40);
  add("m", rag::Condition::kTraceDetailed, 70);
  add("m", rag::Condition::kTraceFocused, 65);
  add("m", rag::Condition::kTraceEfficient, 70);
  const auto [cond, acc] = sweep.best_trace("m");
  EXPECT_EQ(cond, rag::Condition::kTraceDetailed);
  EXPECT_DOUBLE_EQ(acc.value(), 0.70);

  // An all-way tie also keeps the first trace cell.
  SweepResult tied;
  const auto add_tied = [&tied](rag::Condition c) {
    CellResult cell;
    cell.model = "t";
    cell.condition = c;
    cell.accuracy.correct = 50;
    cell.accuracy.total = 100;
    tied.cells.push_back(cell);
  };
  add_tied(rag::Condition::kTraceDetailed);
  add_tied(rag::Condition::kTraceFocused);
  add_tied(rag::Condition::kTraceEfficient);
  EXPECT_EQ(tied.best_trace("t").first, rag::Condition::kTraceDetailed);
}

// --- report ---------------------------------------------------------------------

TEST(TableWriter, AlignsColumns) {
  TableWriter t({"Model", "Acc"});
  t.add_row({"TinyLlama-1.1B-Chat", "0.176"});
  t.add_row({"Qwen", "0.914"});
  const std::string out = t.render();
  // Header separator and both rows present.
  EXPECT_NE(out.find("| Model"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
  EXPECT_NE(out.find("TinyLlama"), std::string::npos);
  // Every line same length (alignment).
  std::size_t line_len = 0;
  std::size_t pos = 0;
  while (pos < out.size()) {
    const std::size_t nl = out.find('\n', pos);
    if (line_len == 0) line_len = nl - pos;
    EXPECT_EQ(nl - pos, line_len);
    pos = nl + 1;
  }
}

TEST(TableWriter, ShortRowsPadded) {
  TableWriter t({"A", "B", "C"});
  t.add_row({"only-one"});
  EXPECT_NE(t.render().find("only-one"), std::string::npos);
}

TEST(Report, Formatting) {
  EXPECT_EQ(fmt_acc(0.7314), "0.731");
  EXPECT_EQ(fmt_pct(31.44), "+31.4%");
  EXPECT_EQ(fmt_pct(-2.0), "-2.0%");
}

TEST(Report, PctImprovement) {
  EXPECT_NEAR(pct_improvement(0.71, 0.176), 303.4, 0.1);
  EXPECT_DOUBLE_EQ(pct_improvement(0.5, 0.0), 0.0);
  EXPECT_LT(pct_improvement(0.4, 0.5), 0.0);
}

TEST(Report, GroupedBarsRenderBothSigns) {
  const std::vector<std::string> groups{"ModelA", "ModelB"};
  const std::vector<FigureSeries> series{
      {"vs Baseline", {40.0, -12.0}},
      {"vs RAG-Chunks", {10.0, 3.0}},
  };
  const std::string out = render_grouped_bars(groups, series, "Figure X");
  EXPECT_NE(out.find("Figure X"), std::string::npos);
  EXPECT_NE(out.find("ModelA"), std::string::npos);
  EXPECT_NE(out.find("vs Baseline"), std::string::npos);
  EXPECT_NE(out.find("+40.0%"), std::string::npos);
  EXPECT_NE(out.find("-12.0%"), std::string::npos);
}

// --- paper reference ----------------------------------------------------------------

TEST(PaperReference, EightRowsPerTable) {
  EXPECT_EQ(paper_table2().size(), 8u);
  EXPECT_EQ(paper_table3().size(), 8u);
  EXPECT_EQ(paper_table4().size(), 8u);
}

TEST(PaperReference, SpotValuesFromPaper) {
  EXPECT_DOUBLE_EQ(paper_table2_row("TinyLlama-1.1B-Chat").accuracy[0],
                   0.176);
  EXPECT_DOUBLE_EQ(paper_table2_row("Llama-3.1-8B-Instruct").accuracy[4],
                   0.916);
  EXPECT_DOUBLE_EQ(paper_table3_row("OLMo-7B").accuracy[1], 0.269);
  EXPECT_DOUBLE_EQ(paper_table4_row("SmolLM3-3B").accuracy[2], 0.894);
  EXPECT_THROW(paper_table2_row("GPT-4"), std::out_of_range);
}

TEST(PaperReference, ConditionIndexMapping) {
  EXPECT_EQ(paper_condition_index(rag::Condition::kBaseline), 0u);
  EXPECT_EQ(paper_condition_index(rag::Condition::kTraceEfficient), 4u);
}

TEST(PaperReference, FunnelConstants) {
  EXPECT_EQ(PaperFunnel::kDocuments,
            PaperFunnel::kPapers + PaperFunnel::kAbstracts);
  EXPECT_NEAR(PaperFunnel::acceptance_rate(), 0.096, 0.002);
}

TEST(PaperReference, PaperShapesHoldInReferenceData) {
  // Sanity on the transcription itself: RT best-of-three beats baseline
  // in Table 2 for every model.
  for (const auto& row : paper_table2()) {
    const double best_rt = std::max(
        {row.accuracy[2], row.accuracy[3], row.accuracy[4]});
    EXPECT_GT(best_rt, row.accuracy[0]) << row.model;
    EXPECT_GT(best_rt, row.accuracy[1]) << row.model;
  }
  // Table 4: RT best strictly beats both baseline and chunks (the
  // paper's no-math claim).
  for (const auto& row : paper_table4()) {
    EXPECT_GT(row.accuracy[2], row.accuracy[0]) << row.model;
    EXPECT_GT(row.accuracy[2], row.accuracy[1]) << row.model;
  }
}

}  // namespace
}  // namespace mcqa::eval
