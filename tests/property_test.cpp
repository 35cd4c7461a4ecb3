// Cross-cutting property tests: parameterized sweeps asserting the
// invariants that hold across configurations — index recall across
// sizes/dims, chunker invariants across configs, simulation monotonicity
// in each behavioural dial, window budgeting across the whole model
// registry, and BPE compression across vocabulary budgets.

#include <gtest/gtest.h>

#include <memory>

#include "core/pipeline.hpp"
#include "corpus/corpus_builder.hpp"
#include "index/vector_index.hpp"
#include "llm/student_model.hpp"
#include "text/tokenizer.hpp"
#include "text/bpe.hpp"

namespace mcqa {
namespace {

// --- index recall across (kind, n, dim) ------------------------------------------

struct IndexCase {
  index::IndexKind kind;
  std::size_t n;
  std::size_t dim;
};

class IndexRecallSweep : public ::testing::TestWithParam<IndexCase> {};

TEST_P(IndexRecallSweep, RecallAboveFloor) {
  const auto [kind, n, dim] = GetParam();
  util::Rng rng(n * 31 + dim);
  std::vector<embed::Vector> data;
  for (std::size_t i = 0; i < n; ++i) {
    embed::Vector v(dim);
    for (auto& x : v) x = static_cast<float>(rng.normal());
    embed::normalize(v);
    data.push_back(std::move(v));
  }
  std::unique_ptr<index::VectorIndex> idx;
  switch (kind) {
    case index::IndexKind::kFlat:
      idx = std::make_unique<index::FlatIndex>(dim);
      break;
    case index::IndexKind::kIvf:
      idx = std::make_unique<index::IvfIndex>(dim);
      break;
    case index::IndexKind::kHnsw:
      idx = std::make_unique<index::HnswIndex>(dim);
      break;
  }
  for (const auto& v : data) idx->add(v);
  idx->build();

  double recall = 0.0;
  constexpr int kQueries = 20;
  for (int q = 0; q < kQueries; ++q) {
    embed::Vector query(dim);
    for (auto& x : query) x = static_cast<float>(rng.normal());
    embed::normalize(query);
    recall += index::recall_at_k(idx->search(query, 5),
                                 index::exact_search(data, query, 5));
  }
  recall /= kQueries;
  EXPECT_GT(recall, kind == index::IndexKind::kFlat ? 0.99 : 0.5)
      << "n=" << n << " dim=" << dim;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndexRecallSweep,
    ::testing::Values(IndexCase{index::IndexKind::kFlat, 100, 8},
                      IndexCase{index::IndexKind::kFlat, 1000, 64},
                      IndexCase{index::IndexKind::kIvf, 300, 16},
                      IndexCase{index::IndexKind::kIvf, 2000, 32},
                      IndexCase{index::IndexKind::kHnsw, 300, 16},
                      IndexCase{index::IndexKind::kHnsw, 2000, 32}));

// --- chunker invariants across configs ----------------------------------------------

class ChunkerConfigSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ChunkerConfigSweep, InvariantsHold) {
  const auto [target, min_words] = GetParam();
  static const corpus::KnowledgeBase kb = corpus::KnowledgeBase::generate(
      corpus::KbConfig{.facts_per_topic = 12, .seed = 111, .math_fraction = 0.4});
  const corpus::PaperGenerator gen(kb, corpus::PaperGenConfig{});
  const corpus::PaperSpec spec =
      gen.generate(0, corpus::DocKind::kFullPaper, util::Rng(7));
  parse::ParsedDocument doc;
  doc.doc_id = spec.doc_id;
  for (const auto& s : spec.sections) {
    parse::ParsedSection section;
    section.heading = s.heading;
    for (const auto& sentence : s.sentences) {
      if (!section.text.empty()) section.text += ' ';
      section.text += sentence.text;
    }
    doc.sections.push_back(std::move(section));
  }

  const embed::HashedNGramEmbedder emb;
  chunk::ChunkerConfig cfg;
  cfg.target_words = target;
  cfg.max_words = target * 2;
  cfg.min_words = min_words;
  const chunk::SemanticChunker chunker(emb, cfg);
  const auto chunks = chunker.chunk(doc);
  ASSERT_FALSE(chunks.empty());

  std::size_t total_words = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_FALSE(chunks[i].text.empty());
    EXPECT_EQ(chunks[i].doc_id, doc.doc_id);
    total_words += chunks[i].word_count;
    // Hard cap with one-sentence slack.
    EXPECT_LE(chunks[i].word_count, cfg.max_words + 45);
  }
  // Total content preserved (chunking neither duplicates nor drops).
  std::size_t doc_words = 0;
  for (const auto& s : doc.sections) doc_words += text::count_words(s.text);
  EXPECT_EQ(total_words, doc_words);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChunkerConfigSweep,
                         ::testing::Combine(::testing::Values(60u, 120u, 200u),
                                            ::testing::Values(10u, 40u)));

// --- simulation monotonicity ------------------------------------------------------

double sim_accuracy(const llm::StudentProfile& profile,
                    bool with_trace_ctx = false) {
  llm::ModelCard card;
  card.spec.name = "probe-model";
  card.profile = profile;
  const llm::StudentModel model(card);
  std::size_t correct = 0;
  constexpr int kTrials = 600;
  for (int i = 0; i < kTrials; ++i) {
    llm::McqTask task;
    task.id = "p_" + std::to_string(i);
    task.stem = "probe?";
    for (int o = 0; o < 7; ++o) task.options.push_back("opt" + std::to_string(o));
    task.correct_index = i % 7;
    task.fact = static_cast<corpus::FactId>(i);
    task.has_fact = true;
    task.fact_importance = 0.75;
    if (with_trace_ctx) {
      task.context = "ctx";
      task.context_is_trace = true;
      task.context_has_fact = true;
      task.context_saliency = 0.4;
      task.context_has_elimination = true;
    }
    correct += model.answer(task).chosen_index == task.correct_index ? 1 : 0;
  }
  return static_cast<double>(correct) / kTrials;
}

TEST(SimulationMonotonicity, AccuracyRisesWithKnowledge) {
  llm::StudentProfile lo;
  lo.knowledge = 0.1;
  llm::StudentProfile hi = lo;
  hi.knowledge = 0.8;
  EXPECT_GT(sim_accuracy(hi), sim_accuracy(lo) + 0.3);
}

TEST(SimulationMonotonicity, AccuracyRisesWithElimination) {
  llm::StudentProfile lo;
  lo.knowledge = 0.0;
  lo.elimination = 0.0;
  llm::StudentProfile hi = lo;
  hi.elimination = 0.7;
  EXPECT_GT(sim_accuracy(hi), sim_accuracy(lo) + 0.1);
}

TEST(SimulationMonotonicity, TraceContextHelpsEveryProfile) {
  for (const double knowledge : {0.05, 0.4, 0.8}) {
    llm::StudentProfile p;
    p.knowledge = knowledge;
    EXPECT_GT(sim_accuracy(p, /*with_trace_ctx=*/true),
              sim_accuracy(p, /*with_trace_ctx=*/false))
        << "knowledge=" << knowledge;
  }
}

TEST(SimulationMonotonicity, AccuracyRisesWithExtractionGivenContext) {
  llm::StudentProfile lo;
  lo.knowledge = 0.1;
  lo.extraction = 0.2;
  llm::StudentProfile hi = lo;
  hi.extraction = 0.95;
  EXPECT_GT(sim_accuracy(hi, true), sim_accuracy(lo, true) + 0.15);
}

TEST(SimulationMonotonicity, FormatUnreliabilityCostsAccuracy) {
  llm::StudentProfile good;
  good.knowledge = 0.8;
  good.format_reliability = 1.0;
  llm::StudentProfile bad = good;
  bad.format_reliability = 0.5;
  EXPECT_GT(sim_accuracy(good), sim_accuracy(bad) + 0.05);
}

// --- RAG window budgeting across the registry ---------------------------------------

class RegistryWindowSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RegistryWindowSweep, ContextFitsEveryModelWindow) {
  static const core::PipelineContext ctx(
      core::PipelineConfig::paper_scale(0.004));
  const auto& card = llm::student_registry()[GetParam()];
  for (const auto& record : ctx.benchmark()) {
    const llm::McqTask task = ctx.rag().prepare(
        record, rag::Condition::kChunks, card.spec);
    const std::size_t used = text::approx_llm_tokens(task.context) +
                             text::approx_llm_tokens(task.stem);
    EXPECT_LE(used + 128, card.spec.context_window)
        << card.spec.name << " " << record.record_id;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, RegistryWindowSweep,
                         ::testing::Range<std::size_t>(0, 8));

// --- BPE vocab-budget sweep ------------------------------------------------------------

class BpeBudgetSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BpeBudgetSweep, CompressionImprovesWithVocab) {
  static const std::string corpus = [] {
    const corpus::KnowledgeBase kb = corpus::KnowledgeBase::generate(
        corpus::KbConfig{.facts_per_topic = 16, .seed = 141, .math_fraction = 0.4});
    std::string text;
    for (const auto& f : kb.facts()) {
      text += corpus::realize_statement(kb, f, 0);
      text += ' ';
    }
    return text;
  }();
  const std::size_t budget = GetParam();
  const text::BpeTokenizer t = text::BpeTokenizer::train(corpus, budget);
  EXPECT_LE(t.vocab_size(), budget);
  const auto ids = t.encode(corpus.substr(0, 2000));
  // Sanity: tokenization never exceeds character count, and any trained
  // merge set beats character-level by a comfortable margin.
  EXPECT_LT(ids.size(), 2000u);
  if (budget >= 400) {
    EXPECT_LT(ids.size(), 1200u);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, BpeBudgetSweep,
                         ::testing::Values(64u, 200u, 400u, 1000u));

}  // namespace
}  // namespace mcqa
