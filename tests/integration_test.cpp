// End-to-end integration tests over the full pipeline at small scale:
// funnel sanity, determinism, and the paper's qualitative result shapes.

#include <gtest/gtest.h>

#include <memory>

#include "core/pipeline.hpp"
#include "eval/paper_reference.hpp"

namespace mcqa::core {
namespace {

constexpr double kTestScale = 0.008;  // ~180 docs; builds in ~1s

const PipelineContext& ctx() {
  static const PipelineContext context(
      PipelineConfig::paper_scale(kTestScale));
  return context;
}

// --- pipeline structure --------------------------------------------------------

TEST(Pipeline, FunnelStagesPopulated) {
  const PipelineStats& s = ctx().stats();
  EXPECT_GT(s.documents, 100u);
  EXPECT_GT(s.chunks, s.documents);          // several chunks per doc
  EXPECT_GT(s.funnel.candidates, 0u);
  EXPECT_GT(s.funnel.accepted, 20u);
  EXPECT_LT(s.funnel.accepted, s.funnel.candidates);
  for (int m = 0; m < mcqa::trace::kTraceModeCount; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    EXPECT_EQ(s.traces_per_mode[mi], ctx().benchmark().size());
    EXPECT_GT(s.trace_grading_accuracy[mi], 0.9);  // teacher grades itself
    EXPECT_LE(s.trace_grading_accuracy[mi], 1.0);
  }
  EXPECT_GT(s.embedding_bytes, 0u);
}

TEST(Pipeline, AcceptanceRateNearPaperFunnel) {
  // Paper: 16,680 / 173,318 = 9.6%.  Allow a generous band — the corpus
  // fact density differs — but the filter must bite hard.
  const double rate = ctx().stats().funnel.acceptance_rate();
  EXPECT_GT(rate, 0.03);
  EXPECT_LT(rate, 0.40);
}

TEST(Pipeline, ChunkScaleTracksPaperRatio) {
  // Paper: ~7.7 chunks per document.  Ours should be the same order.
  const double ratio = static_cast<double>(ctx().stats().chunks) /
                       static_cast<double>(ctx().stats().documents);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 20.0);
}

TEST(Pipeline, ParseFailuresAreRare) {
  const PipelineStats& s = ctx().stats();
  EXPECT_LT(static_cast<double>(s.parse_failures),
            0.05 * static_cast<double>(s.documents));
}

TEST(Pipeline, RoutingUsesBothParsers) {
  const parse::RoutingStats& r = ctx().stats().routing;
  EXPECT_GT(r.fast_routed, 0u);
  EXPECT_GT(r.accurate_routed, 0u);
  EXPECT_GT(r.compute_saving(), 0.1);  // adaptive routing saves compute
}

TEST(Pipeline, TraceStoresBuiltPerMode) {
  for (int m = 0; m < trace::kTraceModeCount; ++m) {
    const auto mode = static_cast<trace::TraceMode>(m);
    EXPECT_EQ(ctx().trace_store(mode).size(), ctx().benchmark().size());
  }
}

TEST(Pipeline, ExamShapeMatchesPaper) {
  EXPECT_EQ(ctx().exam_all().size(), 335u);
  EXPECT_GT(ctx().exam_no_math().size(), 150u);
  EXPECT_LT(ctx().exam_no_math().size(), 230u);
}

TEST(Pipeline, BenchmarkRecordsKeepProvenance) {
  for (const auto& r : ctx().benchmark()) {
    EXPECT_FALSE(r.chunk_id.empty());
    EXPECT_FALSE(r.path.empty());
    EXPECT_FALSE(r.text.empty());
    EXPECT_GE(r.quality_score, 7.0);
  }
}

TEST(Pipeline, DeterministicAcrossRebuilds) {
  // A second context with the same config must produce identical
  // artifacts despite multithreaded construction.
  const PipelineContext other(PipelineConfig::paper_scale(kTestScale));
  ASSERT_EQ(other.benchmark().size(), ctx().benchmark().size());
  for (std::size_t i = 0; i < other.benchmark().size(); ++i) {
    EXPECT_EQ(other.benchmark()[i].record_id,
              ctx().benchmark()[i].record_id);
    EXPECT_EQ(other.benchmark()[i].question, ctx().benchmark()[i].question);
  }
  ASSERT_EQ(other.exam_all().size(), ctx().exam_all().size());
  EXPECT_EQ(other.exam_all()[0].question, ctx().exam_all()[0].question);
}

// --- paper result shapes ----------------------------------------------------------

TEST(PaperShape, SyntheticRtBeatsChunksBeatsBaseline) {
  const eval::EvalHarness harness(ctx().rag());
  const auto sweep =
      harness.sweep(ctx().student_ptrs(), ctx().student_specs(),
                    ctx().benchmark(), eval::all_conditions());
  for (const auto& card : llm::student_registry()) {
    const double base =
        sweep.at(card.spec.name, rag::Condition::kBaseline).value();
    const double chunks =
        sweep.at(card.spec.name, rag::Condition::kChunks).value();
    const double best_rt = sweep.best_trace(card.spec.name).second.value();
    // Small-sample noise allowance of 3 points.
    EXPECT_GT(chunks + 0.03, base) << card.spec.name;
    EXPECT_GT(best_rt, chunks - 0.03) << card.spec.name;
    EXPECT_GT(best_rt, base) << card.spec.name;
  }
}

TEST(PaperShape, SmallModelsGainMostFromTraces) {
  const eval::EvalHarness harness(ctx().rag());
  const auto sweep =
      harness.sweep(ctx().student_ptrs(), ctx().student_specs(),
                    ctx().benchmark(), eval::all_conditions());
  const auto rel_gain = [&](const char* name) {
    const double base = sweep.at(name, rag::Condition::kBaseline).value();
    const double rt = sweep.best_trace(name).second.value();
    return base > 0.0 ? (rt - base) / base : 0.0;
  };
  // TinyLlama's relative gain dwarfs Llama-3.1's (paper: ~4x vs ~12%).
  EXPECT_GT(rel_gain("TinyLlama-1.1B-Chat"),
            3.0 * rel_gain("Llama-3.1-8B-Instruct"));
}

TEST(PaperShape, AstroChunksHurtOlmo) {
  const eval::EvalHarness harness(ctx().rag());
  const auto& card = llm::student_card("OLMo-7B");
  const llm::StudentModel model(card);
  const double base = harness
                          .evaluate(model, card.spec, ctx().exam_all(),
                                    rag::Condition::kBaseline)
                          .value();
  const double chunks = harness
                            .evaluate(model, card.spec, ctx().exam_all(),
                                      rag::Condition::kChunks)
                            .value();
  // The paper's most distinctive Table 3 feature.
  EXPECT_LT(chunks, base + 0.02);
}

TEST(PaperShape, AstroTracesHurtLlama3OnMath) {
  const eval::EvalHarness harness(ctx().rag());
  const auto& card = llm::student_card("Llama-3-8B-Instruct");
  const llm::StudentModel model(card);
  const double base = harness
                          .evaluate(model, card.spec, ctx().exam_all(),
                                    rag::Condition::kBaseline)
                          .value();
  double best_rt = 0.0;
  for (const auto c : eval::trace_conditions()) {
    best_rt = std::max(best_rt,
                       harness.evaluate(model, card.spec, ctx().exam_all(), c)
                           .value());
  }
  EXPECT_LT(best_rt, base);  // paper: 0.542 vs 0.665
}

TEST(PaperShape, NoMathSubsetRtBestForEveryModel) {
  const eval::EvalHarness harness(ctx().rag());
  const auto sweep =
      harness.sweep(ctx().student_ptrs(), ctx().student_specs(),
                    ctx().exam_no_math(), eval::all_conditions());
  for (const auto& card : llm::student_registry()) {
    const double base =
        sweep.at(card.spec.name, rag::Condition::kBaseline).value();
    const double chunks =
        sweep.at(card.spec.name, rag::Condition::kChunks).value();
    const double best_rt = sweep.best_trace(card.spec.name).second.value();
    EXPECT_GT(best_rt, base - 0.02) << card.spec.name;
    EXPECT_GT(best_rt, chunks - 0.02) << card.spec.name;
  }
}

TEST(PaperShape, SeveralModelsBeatGpt4ReferenceWithTraces) {
  const eval::EvalHarness harness(ctx().rag());
  std::size_t beat = 0;
  for (const auto& card : llm::student_registry()) {
    const llm::StudentModel model(card);
    double best_rt = 0.0;
    for (const auto c : eval::trace_conditions()) {
      best_rt =
          std::max(best_rt,
                   harness.evaluate(model, card.spec, ctx().exam_no_math(), c)
                       .value());
    }
    beat += best_rt > llm::kGpt4AstroReference ? 1 : 0;
  }
  EXPECT_GE(beat, 3u);  // "several small models surpass GPT-4"
}

TEST(Evaluation, DeterministicSweep) {
  const eval::EvalHarness harness(ctx().rag());
  const auto& card = llm::student_card("Mistral-7B-Instruct-v0.3");
  const llm::StudentModel model(card);
  const auto a = harness.evaluate(model, card.spec, ctx().benchmark(),
                                  rag::Condition::kTraceFocused);
  const auto b = harness.evaluate(model, card.spec, ctx().benchmark(),
                                  rag::Condition::kTraceFocused);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.unparseable, b.unparseable);
}

TEST(Evaluation, WeakModelsProduceUnparseableAnswers) {
  const eval::EvalHarness harness(ctx().rag());
  const auto& tiny = llm::student_card("TinyLlama-1.1B-Chat");
  const llm::StudentModel model(tiny);
  const auto acc = harness.evaluate(model, tiny.spec, ctx().exam_all(),
                                    rag::Condition::kBaseline);
  EXPECT_GT(acc.unparseable, 0u);  // garbled math answers and rambles
}

TEST(Evaluation, TeacherOutscoresEveryStudent) {
  const eval::EvalHarness harness(ctx().rag());
  const auto teacher_acc =
      harness
          .evaluate(ctx().teacher(),
                    llm::ModelSpec{"teacher", "oracle", 1000.0, 2025, 128000},
                    ctx().benchmark(), rag::Condition::kBaseline)
          .value();
  for (const auto& card : llm::student_registry()) {
    const llm::StudentModel model(card);
    const double student_acc =
        harness
            .evaluate(model, card.spec, ctx().benchmark(),
                      rag::Condition::kBaseline)
            .value();
    EXPECT_GT(teacher_acc, student_acc) << card.spec.name;
  }
}

}  // namespace
}  // namespace mcqa::core
