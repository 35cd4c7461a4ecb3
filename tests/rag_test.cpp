// Unit tests for the retrieval-augmented generation pipeline: store
// routing, window budgeting, context diagnostics.

#include <gtest/gtest.h>

#include <algorithm>

#include "corpus/fact_matcher.hpp"
#include "corpus/realization.hpp"
#include "embed/hashed_embedder.hpp"
#include "index/vector_store.hpp"
#include "llm/model_spec.hpp"
#include "rag/rag_pipeline.hpp"
#include "text/tokenizer.hpp"

namespace mcqa::rag {
namespace {

const corpus::KnowledgeBase& test_kb() {
  static const corpus::KnowledgeBase kb = corpus::KnowledgeBase::generate(
      corpus::KbConfig{.facts_per_topic = 14, .seed = 51, .math_fraction = 0.4});
  return kb;
}

/// Fixture owning a tiny retrieval world built by hand so every
/// diagnostic can be asserted exactly.
class RagFixture : public ::testing::Test {
 protected:
  RagFixture()
      : matcher_(test_kb()),
        chunk_store_(embedder_),
        trace_store_d_(embedder_),
        trace_store_f_(embedder_),
        trace_store_e_(embedder_) {
    const auto& kb = test_kb();
    probed_ = kb.facts()[4];  // a relational fact
    util::Rng rng(7);
    real_ = corpus::realize_question(kb, probed_, rng);

    record_.record_id = "q_fixture";
    record_.stem = real_.stem;
    record_.options.push_back(real_.correct);
    for (const auto& d : real_.distractors) record_.options.push_back(d);
    record_.correct_index = 0;
    record_.answer = real_.correct;
    record_.question =
        qgen::McqRecord::render_question(record_.stem, record_.options);
    record_.fact = probed_.id;
    record_.math = real_.math;

    // Chunk store: the source chunk (carries the fact) + fillers.
    chunk_store_.add("src_chunk",
                     corpus::realize_statement(kb, probed_, 0) +
                         " Additional replication supported the result.");
    // Long filler chunks so window-budget truncation has something to
    // clip when several hits are assembled.
    std::string filler_1;
    std::string filler_2;
    for (int i = 0; i < 10; ++i) {
      filler_1 += "Samples were processed within thirty minutes of "
                  "collection to minimize ex vivo artifacts in every arm. ";
      filler_2 += "The limitations of the study include modest sample size "
                  "and single-institution accrual over two years. ";
    }
    chunk_store_.add("noise_1", filler_1);
    chunk_store_.add("noise_2", filler_2);
    chunk_store_.build();

    // Trace stores: one exact-source trace per mode.
    const std::string principle =
        corpus::realize_statement(kb, probed_, 0);
    trace_store_d_.add("t_detailed_q_fixture",
                       record_.question + "\nOption 1: aligns with " +
                           principle + "\nOption 2: the literature does "
                           "not support this specific relationship.");
    trace_store_f_.add("t_focused_q_fixture",
                       record_.question + "\nKey principle: " + principle +
                           "\nQuickly dismissed: " + record_.options[1] +
                           ". These options contradict the key principle.");
    trace_store_e_.add("t_efficient_q_fixture",
                       record_.question + "\n" + principle);
    trace_store_d_.build();
    trace_store_f_.build();
    trace_store_e_.build();

    stores_.chunks = &chunk_store_;
    stores_.traces[0] = &trace_store_d_;
    stores_.traces[1] = &trace_store_f_;
    stores_.traces[2] = &trace_store_e_;

    spec_ = llm::student_card("Llama-3.1-8B-Instruct").spec;
  }

  RagPipeline make_pipeline(RagConfig cfg = {}) const {
    return RagPipeline(test_kb(), matcher_, stores_, cfg);
  }

  embed::HashedNGramEmbedder embedder_;
  corpus::FactMatcher matcher_;
  index::VectorStore chunk_store_;
  index::VectorStore trace_store_d_;
  index::VectorStore trace_store_f_;
  index::VectorStore trace_store_e_;
  RetrievalStores stores_;
  corpus::Fact probed_;
  corpus::QuestionRealization real_;
  qgen::McqRecord record_;
  llm::ModelSpec spec_;
};

TEST_F(RagFixture, PlanPathMatchesSequentialPrepare) {
  const RagPipeline rag = make_pipeline();
  // A small mixed set: the fixture record plus shuffled-option variants
  // so the plan carries distinct retrieval keys.
  std::vector<qgen::McqRecord> records(4, record_);
  for (std::size_t i = 1; i < records.size(); ++i) {
    records[i].record_id = "q_fixture_" + std::to_string(i);
    std::rotate(records[i].options.begin(), records[i].options.begin() + 1,
                records[i].options.end());
    records[i].correct_index =
        static_cast<int>((static_cast<std::size_t>(record_.correct_index) +
                          records[i].options.size() - 1) %
                         records[i].options.size());
    records[i].question = qgen::McqRecord::render_question(
        records[i].stem, records[i].options);
  }

  for (int c = 0; c < kConditionCount; ++c) {
    const auto condition = static_cast<Condition>(c);
    RetrievalPlan plan = rag.make_plan(records, condition);
    rag.fill_plan(plan, records, 1, records.size());
    rag.fill_plan(plan, records, 0, 1);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const llm::McqTask want = rag.prepare(records[i], condition, spec_);
      const llm::McqTask got =
          rag.prepare_from_plan(records[i], plan, i, spec_);
      EXPECT_EQ(got.context, want.context) << condition_name(condition);
      EXPECT_EQ(got.correct_index, want.correct_index);
      EXPECT_EQ(got.context_has_fact, want.context_has_fact);
      EXPECT_EQ(got.context_saliency, want.context_saliency);
      EXPECT_EQ(got.context_has_elimination, want.context_has_elimination);
      EXPECT_EQ(got.context_misleading_options,
                want.context_misleading_options);
      EXPECT_EQ(got.context_mislead_strength, want.context_mislead_strength);
    }
  }
}

TEST(ConditionNames, AllDistinct) {
  std::set<std::string_view> names;
  for (int c = 0; c < kConditionCount; ++c) {
    names.insert(condition_name(static_cast<Condition>(c)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kConditionCount));
  EXPECT_TRUE(is_trace_condition(Condition::kTraceFocused));
  EXPECT_FALSE(is_trace_condition(Condition::kChunks));
  EXPECT_FALSE(is_trace_condition(Condition::kBaseline));
}

TEST_F(RagFixture, BaselineHasNoContext) {
  const RagPipeline rag = make_pipeline();
  const llm::McqTask task =
      rag.prepare(record_, Condition::kBaseline, spec_);
  EXPECT_TRUE(task.context.empty());
  EXPECT_FALSE(task.context_has_fact);
  EXPECT_EQ(task.correct_index, record_.correct_index);
}

TEST_F(RagFixture, ChunkConditionRetrievesSourceChunk) {
  const RagPipeline rag = make_pipeline();
  const llm::McqTask task = rag.prepare(record_, Condition::kChunks, spec_);
  EXPECT_FALSE(task.context.empty());
  EXPECT_TRUE(task.context_has_fact);
  EXPECT_FALSE(task.context_is_trace);
  EXPECT_GT(task.context_saliency, 0.0);
  EXPECT_LE(task.context_saliency, 1.0);
}

TEST_F(RagFixture, ExactSourceTraceSetsEliminationForDetailAndFocused) {
  const RagPipeline rag = make_pipeline();
  const auto detail =
      rag.prepare(record_, Condition::kTraceDetailed, spec_);
  EXPECT_TRUE(detail.context_is_trace);
  EXPECT_TRUE(detail.context_has_elimination);
  const auto focused =
      rag.prepare(record_, Condition::kTraceFocused, spec_);
  EXPECT_TRUE(focused.context_has_elimination);
  const auto efficient =
      rag.prepare(record_, Condition::kTraceEfficient, spec_);
  EXPECT_TRUE(efficient.context_is_terse);
}

TEST_F(RagFixture, TraceContextCarriesFact) {
  const RagPipeline rag = make_pipeline();
  for (const Condition c : {Condition::kTraceDetailed,
                            Condition::kTraceFocused,
                            Condition::kTraceEfficient}) {
    const auto task = rag.prepare(record_, c, spec_);
    EXPECT_TRUE(task.context_has_fact) << condition_name(c);
  }
}

TEST_F(RagFixture, TinyWindowDropsContext) {
  const RagPipeline rag = make_pipeline();
  llm::ModelSpec tiny = spec_;
  tiny.context_window = 64;  // smaller than question + reserve
  const auto task = rag.prepare(record_, Condition::kChunks, tiny);
  EXPECT_TRUE(task.context.empty());
}

TEST_F(RagFixture, WindowBudgetTruncatesLongContext) {
  RagConfig cfg;
  cfg.top_k_chunks = 3;
  cfg.reserve_tokens = 64;
  const RagPipeline rag = make_pipeline(cfg);
  llm::ModelSpec small = spec_;
  small.context_window = 5000;
  const auto full = rag.prepare(record_, Condition::kChunks, small);
  small.context_window = 300;  // forces partial fit
  const auto clipped = rag.prepare(record_, Condition::kChunks, small);
  EXPECT_LT(clipped.context.size(), full.context.size());
}

TEST_F(RagFixture, MisleadingSupportDetected) {
  // Build a chunk store whose best hit asserts a relation about a
  // distractor entity and the probed object, WITHOUT the probed fact.
  const auto& kb = test_kb();
  index::VectorStore misleading_store(embedder_);
  const std::string obj_name = kb.entity(probed_.object).name;
  // Find a distractor that is a KB entity.
  std::string distractor_entity;
  for (std::size_t i = 1; i < record_.options.size(); ++i) {
    if (kb.find_entity(record_.options[i]).has_value()) {
      distractor_entity = record_.options[i];
      break;
    }
  }
  if (distractor_entity.empty()) GTEST_SKIP() << "no entity distractor";
  misleading_store.add(
      "near_miss", distractor_entity + " strongly modulates " + obj_name +
                       " in irradiated tissues according to recent reports.");
  misleading_store.build();

  RetrievalStores stores = stores_;
  stores.chunks = &misleading_store;
  const RagPipeline rag(kb, matcher_, stores, RagConfig{});
  const auto task = rag.prepare(record_, Condition::kChunks, spec_);
  EXPECT_FALSE(task.context_has_fact);
  ASSERT_FALSE(task.context_misleading_options.empty());
  EXPECT_DOUBLE_EQ(task.context_mislead_strength, 1.0);
  // The flagged option is a wrong option.
  for (const int i : task.context_misleading_options) {
    EXPECT_NE(i, task.correct_index);
  }
}

TEST_F(RagFixture, DismissedOptionsNotMisleading) {
  const auto& kb = test_kb();
  index::VectorStore store(embedder_);
  std::string distractor_entity;
  for (std::size_t i = 1; i < record_.options.size(); ++i) {
    if (kb.find_entity(record_.options[i]).has_value()) {
      distractor_entity = record_.options[i];
      break;
    }
  }
  if (distractor_entity.empty()) GTEST_SKIP() << "no entity distractor";
  store.add("dismissal",
            distractor_entity +
                " participates in other pathways but the literature does "
                "not support this specific relationship with " +
                kb.entity(probed_.object).name + ".");
  store.build();
  RetrievalStores stores = stores_;
  stores.chunks = &store;
  const RagPipeline rag(kb, matcher_, stores, RagConfig{});
  const auto task = rag.prepare(record_, Condition::kChunks, spec_);
  EXPECT_TRUE(task.context_misleading_options.empty());
}

TEST_F(RagFixture, WorkedMathFlagOnlyForMathRecordsWithTraceFact) {
  RagConfig cfg;
  const RagPipeline rag = make_pipeline(cfg);
  // Non-math record: flag must stay false even with exact trace.
  const auto task = rag.prepare(record_, Condition::kTraceFocused, spec_);
  if (!record_.math) {
    EXPECT_FALSE(task.context_has_worked_math);
  }
}

TEST_F(RagFixture, StoreForMapsConditions) {
  EXPECT_EQ(stores_.store_for(Condition::kBaseline), nullptr);
  EXPECT_EQ(stores_.store_for(Condition::kChunks), &chunk_store_);
  EXPECT_EQ(stores_.store_for(Condition::kTraceDetailed), &trace_store_d_);
  EXPECT_EQ(stores_.store_for(Condition::kTraceFocused), &trace_store_f_);
  EXPECT_EQ(stores_.store_for(Condition::kTraceEfficient), &trace_store_e_);
}

TEST_F(RagFixture, MissingStoreFallsBackToBaseline) {
  RetrievalStores stores;  // all null
  const RagPipeline rag(test_kb(), matcher_, stores, RagConfig{});
  const auto task = rag.prepare(record_, Condition::kChunks, spec_);
  EXPECT_TRUE(task.context.empty());
}

TEST(RagConfigTest, TopKPerCondition) {
  RagConfig cfg;
  cfg.top_k_chunks = 9;
  cfg.top_k_traces = 2;
  EXPECT_EQ(cfg.top_k_for(Condition::kChunks), 9u);
  EXPECT_EQ(cfg.top_k_for(Condition::kTraceDetailed), 2u);
  EXPECT_EQ(cfg.top_k_for(Condition::kTraceEfficient), 2u);
}

}  // namespace
}  // namespace mcqa::rag
