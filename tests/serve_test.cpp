// Unit tests for the serving layer: sharded stores (exact scatter-gather
// merge), the query router, the synthetic workload and the engine's
// tiled execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "corpus/fact_matcher.hpp"
#include "corpus/realization.hpp"
#include "embed/hashed_embedder.hpp"
#include "index/vector_store.hpp"
#include "llm/model_spec.hpp"
#include "parallel/thread_pool.hpp"
#include "rag/rag_pipeline.hpp"
#include "serve/engine.hpp"
#include "serve/sharded_store.hpp"
#include "util/hash.hpp"

namespace mcqa::serve {
namespace {

const corpus::KnowledgeBase& test_kb() {
  static const corpus::KnowledgeBase kb = corpus::KnowledgeBase::generate(
      corpus::KbConfig{.facts_per_topic = 14, .seed = 51, .math_fraction = 0.4});
  return kb;
}

void expect_same_hits(const std::vector<index::Hit>& got,
                      const std::vector<index::Hit>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(got[i].text, want[i].text) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;  // bitwise
  }
}

void expect_same_task(const llm::McqTask& got, const llm::McqTask& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.stem, want.stem);
  EXPECT_EQ(got.options, want.options);
  EXPECT_EQ(got.context, want.context);
  EXPECT_EQ(got.correct_index, want.correct_index);
  EXPECT_EQ(got.fact, want.fact);
  EXPECT_EQ(got.has_fact, want.has_fact);
  EXPECT_EQ(got.math, want.math);
  EXPECT_EQ(got.fact_importance, want.fact_importance);
  EXPECT_EQ(got.ambiguity, want.ambiguity);
  EXPECT_EQ(got.exam_item, want.exam_item);
  EXPECT_EQ(got.context_is_trace, want.context_is_trace);
  EXPECT_EQ(got.context_is_terse, want.context_is_terse);
  EXPECT_EQ(got.context_has_fact, want.context_has_fact);
  EXPECT_EQ(got.context_saliency, want.context_saliency);
  EXPECT_EQ(got.context_has_elimination, want.context_has_elimination);
  EXPECT_EQ(got.context_has_worked_math, want.context_has_worked_math);
  EXPECT_EQ(got.context_misleading_options, want.context_misleading_options);
  EXPECT_EQ(got.context_mislead_strength, want.context_mislead_strength);
}

/// A retrieval world big enough that every shard count in {1,2,4,8}
/// leaves several rows per shard, plus a few records to serve.
class ServeFixture : public ::testing::Test {
 protected:
  ServeFixture()
      : matcher_(test_kb()),
        chunk_store_(embedder_),
        trace_store_d_(embedder_),
        trace_store_f_(embedder_),
        trace_store_e_(embedder_) {
    const auto& kb = test_kb();

    // Records: realized questions over distinct facts.
    util::Rng rng(7);
    for (std::size_t f = 0; f < 4; ++f) {
      const corpus::Fact& probed = kb.facts()[2 + f * 3];
      const auto real = corpus::realize_question(kb, probed, rng);
      qgen::McqRecord record;
      record.record_id = "q_serve_" + std::to_string(f);
      record.stem = real.stem;
      record.options.push_back(real.correct);
      for (const auto& d : real.distractors) record.options.push_back(d);
      record.correct_index = 0;
      record.answer = real.correct;
      record.question =
          qgen::McqRecord::render_question(record.stem, record.options);
      record.fact = probed.id;
      record.math = real.math;
      records_.push_back(std::move(record));
    }

    // Chunk store: one statement chunk per fact (~40 rows).
    const std::size_t rows = std::min<std::size_t>(40, kb.facts().size());
    for (std::size_t i = 0; i < rows; ++i) {
      chunk_store_.add("chunk_" + std::to_string(i),
                       corpus::realize_statement(kb, kb.facts()[i], 0));
    }
    chunk_store_.build();

    // Trace stores: one trace per record per mode, plus filler traces so
    // shards stay populated.
    for (const auto& record : records_) {
      const std::string principle = "Key principle relevant to " + record.stem;
      trace_store_d_.add("t_d_" + record.record_id,
                         record.question + "\nOption 1: aligns with " +
                             principle);
      trace_store_f_.add("t_f_" + record.record_id,
                         record.question + "\nKey principle: " + principle);
      trace_store_e_.add("t_e_" + record.record_id,
                         record.question + "\n" + principle);
    }
    for (std::size_t i = 0; i < 12; ++i) {
      const std::string filler =
          corpus::realize_statement(kb, kb.facts()[i + 4], 0);
      trace_store_d_.add("t_d_fill_" + std::to_string(i), filler);
      trace_store_f_.add("t_f_fill_" + std::to_string(i), filler);
      trace_store_e_.add("t_e_fill_" + std::to_string(i), filler);
    }
    trace_store_d_.build();
    trace_store_f_.build();
    trace_store_e_.build();

    stores_.chunks = &chunk_store_;
    stores_.traces[0] = &trace_store_d_;
    stores_.traces[1] = &trace_store_f_;
    stores_.traces[2] = &trace_store_e_;

    spec_ = llm::student_card("Llama-3.1-8B-Instruct").spec;
  }

  rag::RagPipeline make_pipeline(rag::RagConfig cfg = {}) const {
    return rag::RagPipeline(test_kb(), matcher_, stores_, cfg);
  }

  embed::HashedNGramEmbedder embedder_;
  corpus::FactMatcher matcher_;
  index::VectorStore chunk_store_;
  index::VectorStore trace_store_d_;
  index::VectorStore trace_store_f_;
  index::VectorStore trace_store_e_;
  rag::RetrievalStores stores_;
  std::vector<qgen::McqRecord> records_;
  llm::ModelSpec spec_;
};

// --- sharded store -----------------------------------------------------------

TEST_F(ServeFixture, ShardedQueryMatchesUnshardedBitwise) {
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const ShardedStore sharded(chunk_store_, shards);
    EXPECT_EQ(sharded.shard_count(), shards);
    for (const auto& record : records_) {
      for (const std::size_t k : {1u, 3u, 10u, 64u}) {
        expect_same_hits(sharded.query(record.stem, k),
                         chunk_store_.query(record.stem, k));
      }
    }
  }
}

TEST_F(ServeFixture, ShardedTraceStoreMatchesUnsharded) {
  for (const std::size_t shards : {2u, 4u}) {
    const ShardedStore sharded(trace_store_f_, shards);
    for (const auto& record : records_) {
      expect_same_hits(sharded.query(record.question, 3),
                       trace_store_f_.query(record.question, 3));
    }
  }
}

TEST_F(ServeFixture, ShardPartitionCoversEveryRowOnce) {
  const ShardedStore sharded(chunk_store_, 4);
  std::size_t total = 0;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    total += sharded.shard_size(s);
  }
  EXPECT_EQ(total, chunk_store_.size());
  // The partition function is the stable id hash.
  for (std::size_t row = 0; row < chunk_store_.size(); ++row) {
    EXPECT_LT(ShardedStore::shard_of(chunk_store_.id_of(row), 4), 4u);
  }
  EXPECT_EQ(ShardedStore::shard_of("anything", 1), 0u);
}

TEST_F(ServeFixture, RouterRoutesConditions) {
  const QueryRouter router(stores_, 4);
  EXPECT_EQ(router.shard_count(), 4u);
  EXPECT_EQ(router.store_for(rag::Condition::kBaseline), nullptr);
  ASSERT_NE(router.store_for(rag::Condition::kChunks), nullptr);
  EXPECT_EQ(&router.store_for(rag::Condition::kChunks)->base(), &chunk_store_);
  EXPECT_EQ(&router.store_for(rag::Condition::kTraceFocused)->base(),
            &trace_store_f_);
  EXPECT_EQ(router.store_for(rag::Condition::kTraceFocused)->shard_count(),
            4u);
}

// --- workload ----------------------------------------------------------------

TEST(WorkloadTest, SynthWorkloadIsDeterministic) {
  WorkloadConfig cfg;
  cfg.requests = 64;
  const auto a = synth_workload(cfg, 8);
  const auto b = synth_workload(cfg, 8);
  ASSERT_EQ(a.size(), 64u);
  ASSERT_EQ(b.size(), 64u);
  std::set<int> conditions;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].record, b[i].record);
    EXPECT_EQ(a[i].condition, b[i].condition);
    EXPECT_LT(a[i].record, 8u);
    conditions.insert(static_cast<int>(a[i].condition));
  }
  EXPECT_GT(conditions.size(), 1u);  // the mix actually mixes
}

TEST(WorkloadTest, HotDrawsLeaveBaseStreamsUntouched) {
  WorkloadConfig base;
  base.requests = 64;
  WorkloadConfig skewed = base;
  skewed.hot_fraction = 0.6;
  const auto a = synth_workload(base, 8);
  const auto b = synth_workload(skewed, 8);
  ASSERT_EQ(a.size(), b.size());
  std::size_t hot = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // The hot-key draw rides an independent stream: conditions must be
    // identical to the unskewed workload.
    EXPECT_EQ(a[i].condition, b[i].condition);
    if (b[i].record != a[i].record) {
      EXPECT_EQ(b[i].record, 0u);  // redirection only ever targets the hot key
    }
    if (b[i].record == 0) ++hot;
  }
  EXPECT_GT(hot, a.size() / 4);  // the skew actually lands
}

// The (record, condition) sequence synth_workload draws, pinned for the
// default config and for perfbench serve_mixed's shape (4096 requests,
// a tenth on the hot record).
TEST(WorkloadTest, RequestSequenceIsPinned) {
  const auto digest = [](const WorkloadConfig& cfg, std::size_t records) {
    std::uint64_t h = util::fnv1a64("requests");
    for (const QueryRequest& r : synth_workload(cfg, records)) {
      h = util::hash_combine(h, util::fnv1a64(r.record));
      h = util::hash_combine(
          h, util::fnv1a64(static_cast<std::uint64_t>(r.condition)));
    }
    return h;
  };
  EXPECT_EQ(digest(WorkloadConfig{}, 531), 0x3799523aaac1de94ULL);
  WorkloadConfig mixed;
  mixed.requests = 4096;
  mixed.hot_fraction = 0.1;
  mixed.seed = 0x5e7edULL;
  EXPECT_EQ(digest(mixed, 2250), 0xd0ac95531d90f751ULL);
}

// --- engine ------------------------------------------------------------------

TEST_F(ServeFixture, ServedTasksMatchPrepareFieldwise) {
  const rag::RagPipeline rag = make_pipeline();
  const QueryEngine engine(rag, stores_, spec_, 4);
  WorkloadConfig wl;
  wl.requests = 40;
  const auto requests = synth_workload(wl, records_.size());
  parallel::ThreadPool pool(4);
  const auto results = engine.serve(records_, requests, pool);
  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    expect_same_task(results[i].task,
                     rag.prepare(records_[requests[i].record],
                                 requests[i].condition, spec_));
    EXPECT_GE(results[i].tile_ms, 0.0) << i;
  }
}

/// The engine at several pool widths; its own suite so the tsan lane
/// can name it.
class ServeEngine : public ServeFixture {};

TEST_F(ServeEngine, ServeIsDeterministicAcrossRunsAndThreadCounts) {
  const rag::RagPipeline rag = make_pipeline();
  const QueryEngine engine(rag, stores_, spec_, 4);
  WorkloadConfig wl;
  wl.requests = 96;
  wl.hot_fraction = 0.2;
  const auto requests = synth_workload(wl, records_.size());
  parallel::ThreadPool pool_1(1);
  const auto want = engine.serve(records_, requests, pool_1);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    const auto got = engine.serve(records_, requests, pool);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_same_task(got[i].task, want[i].task);
    }
  }
}

TEST_F(ServeEngine, RejectsOutOfRangeRecord) {
  const rag::RagPipeline rag = make_pipeline();
  const QueryEngine engine(rag, stores_, spec_, 2);
  std::vector<QueryRequest> requests(3);
  requests[2].record = records_.size();
  parallel::ThreadPool pool(2);
  EXPECT_THROW(engine.serve(records_, requests, pool), std::out_of_range);
}

}  // namespace
}  // namespace mcqa::serve
