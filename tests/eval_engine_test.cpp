// Memoized cell-parallel evaluation engine contract:
//
//  * a shared RetrievalPlan produces tasks fieldwise-identical to
//    RagPipeline::prepare (the plan only hoists the model-independent
//    retrieval), and plan rows filled in any ranges equal the store's
//    own query;
//  * EvalHarness::sweep is identical to a serial prepare -> answer ->
//    grade double loop, at any thread count, with the eval-cell cache
//    on or off;
//  * the cell cache restores every cell on a warm sweep, keys cells by
//    model/condition/record-set, and a corrupt blob falls back to
//    recompute.
//
// Suites EvalEngine/EvalCache also run under the tsan preset (the grid
// TaskGroup + shared-pool cells are a concurrency surface).

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/eval_cache.hpp"
#include "core/pipeline.hpp"
#include "eval/harness.hpp"
#include "parallel/thread_pool.hpp"
#include "rag/rag_pipeline.hpp"

namespace {

using namespace mcqa;
using core::PipelineConfig;
using core::PipelineContext;

constexpr double kTestScale = 0.008;

const PipelineContext& test_context() {
  static const PipelineContext ctx([] {
    PipelineConfig cfg = PipelineConfig::paper_scale(kTestScale);
    cfg.threads = 4;
    cfg.checkpoint_dir.clear();
    return cfg;
  }());
  return ctx;
}

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("mcqa-evalcache-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter()++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  static std::atomic<int>& counter() {
    static std::atomic<int> c{0};
    return c;
  }
};

bool sweeps_equal(const eval::SweepResult& a, const eval::SweepResult& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const auto& x = a.cells[i];
    const auto& y = b.cells[i];
    if (x.model != y.model || x.condition != y.condition ||
        x.accuracy.correct != y.accuracy.correct ||
        x.accuracy.total != y.accuracy.total ||
        x.accuracy.unparseable != y.accuracy.unparseable) {
      return false;
    }
  }
  return true;
}

/// The reference semantics: a serial double loop over cells, each a
/// serial prepare -> answer -> grade loop over the records.
eval::SweepResult reference_sweep(
    const PipelineContext& ctx, const std::vector<qgen::McqRecord>& records) {
  const eval::Judge judge;
  const auto models = ctx.student_ptrs();
  const auto specs = ctx.student_specs();
  eval::SweepResult out;
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (const rag::Condition c : eval::all_conditions()) {
      eval::CellResult cell;
      cell.model = std::string(models[m]->name());
      cell.condition = c;
      cell.accuracy.total = records.size();
      for (const auto& record : records) {
        const llm::McqTask task = ctx.rag().prepare(record, c, specs[m]);
        const trace::GradingResult grading =
            judge.grade(task, models[m]->answer(task).text);
        if (grading.is_correct) ++cell.accuracy.correct;
        if (grading.extracted_option_number < 0) ++cell.accuracy.unparseable;
      }
      out.cells.push_back(std::move(cell));
    }
  }
  return out;
}

eval::SweepResult grid_sweep(const PipelineContext& ctx,
                             const std::vector<qgen::McqRecord>& records,
                             parallel::ThreadPool& pool,
                             const eval::CellCache* cache = nullptr,
                             eval::SweepStats* stats = nullptr) {
  eval::HarnessConfig hc;
  hc.pool = &pool;
  hc.cell_cache = cache;
  const eval::EvalHarness harness(ctx.rag(), hc);
  return harness.sweep(ctx.student_ptrs(), ctx.student_specs(), records,
                       eval::all_conditions(), stats);
}

void expect_tasks_equal(const llm::McqTask& a, const llm::McqTask& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.stem, b.stem);
  EXPECT_EQ(a.options, b.options);
  EXPECT_EQ(a.context, b.context);
  EXPECT_EQ(a.correct_index, b.correct_index);
  EXPECT_EQ(a.fact, b.fact);
  EXPECT_EQ(a.has_fact, b.has_fact);
  EXPECT_EQ(a.math, b.math);
  EXPECT_EQ(a.fact_importance, b.fact_importance);
  EXPECT_EQ(a.ambiguity, b.ambiguity);
  EXPECT_EQ(a.exam_item, b.exam_item);
  EXPECT_EQ(a.context_is_trace, b.context_is_trace);
  EXPECT_EQ(a.context_is_terse, b.context_is_terse);
  EXPECT_EQ(a.context_has_fact, b.context_has_fact);
  EXPECT_EQ(a.context_saliency, b.context_saliency);
  EXPECT_EQ(a.context_has_elimination, b.context_has_elimination);
  EXPECT_EQ(a.context_has_worked_math, b.context_has_worked_math);
  EXPECT_EQ(a.context_misleading_options, b.context_misleading_options);
  EXPECT_EQ(a.context_mislead_strength, b.context_mislead_strength);
}

// --- shared retrieval plans --------------------------------------------------

TEST(EvalEngine, PlanTasksMatchPrepareFieldwise) {
  const PipelineContext& ctx = test_context();
  const auto& records = ctx.benchmark();
  ASSERT_FALSE(records.empty());
  const auto specs = ctx.student_specs();

  for (const rag::Condition c : eval::all_conditions()) {
    rag::RetrievalPlan plan = ctx.rag().make_plan(records, c);
    ctx.rag().fill_plan(plan, records, 0, records.size());
    // One plan serves every model's spec.
    for (const auto& spec : {specs.front(), specs.back()}) {
      for (std::size_t i = 0; i < records.size(); ++i) {
        const llm::McqTask from_plan =
            ctx.rag().prepare_from_plan(records[i], plan, i, spec);
        expect_tasks_equal(from_plan, ctx.rag().prepare(records[i], c, spec));
      }
    }
  }
}

TEST(EvalEngine, FillPlanRangesMatchStoreQuery) {
  const PipelineContext& ctx = test_context();
  const auto& records = ctx.benchmark();
  rag::RetrievalStores stores;
  stores.chunks = &ctx.chunk_store();
  for (std::size_t m = 0; m < stores.traces.size(); ++m) {
    stores.traces[m] = &ctx.trace_store(static_cast<trace::TraceMode>(m));
  }

  for (const rag::Condition c : eval::all_conditions()) {
    rag::RetrievalPlan plan = ctx.rag().make_plan(records, c);
    if (c == rag::Condition::kBaseline) {
      EXPECT_FALSE(plan.active);
      continue;
    }
    ASSERT_TRUE(plan.active);
    // Fill in uneven disjoint ranges, out of order, as grid blocks may.
    const std::size_t mid = records.size() / 3;
    ctx.rag().fill_plan(plan, records, mid, records.size());
    ctx.rag().fill_plan(plan, records, 0, mid);
    ASSERT_EQ(plan.hits.size(), records.size());
    const std::size_t k = ctx.rag().config().top_k_for(c);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const auto want = stores.store_for(c)->query(
          ctx.rag().query_for(records[i], c), k);
      ASSERT_EQ(plan.hits[i].size(), want.size()) << "record " << i;
      for (std::size_t h = 0; h < want.size(); ++h) {
        EXPECT_EQ(plan.hits[i][h].id, want[h].id);
        EXPECT_EQ(std::bit_cast<std::uint32_t>(plan.hits[i][h].score),
                  std::bit_cast<std::uint32_t>(want[h].score));
      }
    }
  }
}

// --- grid sweep determinism --------------------------------------------------

TEST(EvalEngine, SweepMatchesSerialReferenceAcrossThreadCounts) {
  const PipelineContext& ctx = test_context();
  const auto& records = ctx.benchmark();
  const eval::SweepResult reference = reference_sweep(ctx, records);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    eval::SweepStats stats;
    const eval::SweepResult swept =
        grid_sweep(ctx, records, pool, nullptr, &stats);
    EXPECT_TRUE(sweeps_equal(swept, reference))
        << "grid sweep diverged at " << threads << " threads";
    EXPECT_EQ(stats.cells_computed, swept.cells.size());
    EXPECT_EQ(stats.cells_restored, 0u);
    // Four retrieval-active conditions, hit once per record each; the
    // per-cell path would have retrieved once per record per model.
    EXPECT_GE(stats.naive_retrieval_queries, 4 * stats.retrieval_queries);
  }
}

TEST(EvalEngine, SweepStatsCountSharedRetrieval) {
  const PipelineContext& ctx = test_context();
  const auto& records = ctx.benchmark();
  parallel::ThreadPool pool(4);
  eval::SweepStats stats;
  grid_sweep(ctx, records, pool, nullptr, &stats);
  const std::size_t active_conditions = 4;  // chunks + three trace modes
  EXPECT_EQ(stats.retrieval_queries, active_conditions * records.size());
  EXPECT_EQ(stats.naive_retrieval_queries,
            active_conditions * records.size() * ctx.students().size());
}

TEST(EvalEngine, EvaluateUsesCallerPool) {
  const PipelineContext& ctx = test_context();
  const auto& records = ctx.benchmark();
  const auto models = ctx.student_ptrs();
  const auto specs = ctx.student_specs();

  const eval::EvalHarness own_pool_harness(ctx.rag());
  const eval::Accuracy baseline = own_pool_harness.evaluate(
      *models[0], specs[0], records, rag::Condition::kChunks);

  parallel::ThreadPool pool(3);
  eval::HarnessConfig hc;
  hc.pool = &pool;
  const eval::EvalHarness shared_pool_harness(ctx.rag(), hc);
  const eval::Accuracy shared = shared_pool_harness.evaluate(
      *models[0], specs[0], records, rag::Condition::kChunks);
  EXPECT_EQ(shared.correct, baseline.correct);
  EXPECT_EQ(shared.total, baseline.total);
  EXPECT_EQ(shared.unparseable, baseline.unparseable);
}

// --- eval-cell cache ---------------------------------------------------------

TEST(EvalCache, WarmSweepRestoresEveryCellIdentically) {
  const PipelineContext& ctx = test_context();
  const auto& records = ctx.benchmark();
  parallel::ThreadPool pool(4);
  const TempDir dir;
  const core::EvalCellCache cache(
      dir.path.string(), core::EvalCellCache::sweep_key(ctx, records),
      core::EvalCellCache::group_base_key(ctx));

  eval::SweepStats cold_stats;
  const eval::SweepResult cold =
      grid_sweep(ctx, records, pool, &cache, &cold_stats);
  EXPECT_EQ(cold_stats.cells_restored, 0u);
  EXPECT_EQ(cold_stats.cells_computed, cold.cells.size());
  EXPECT_EQ(cache.stats().stores, cold.cells.size());

  eval::SweepStats warm_stats;
  const eval::SweepResult warm =
      grid_sweep(ctx, records, pool, &cache, &warm_stats);
  EXPECT_TRUE(sweeps_equal(warm, cold));
  EXPECT_EQ(warm_stats.cells_restored, cold.cells.size());
  EXPECT_EQ(warm_stats.cells_computed, 0u);
  EXPECT_EQ(warm_stats.retrieval_queries, 0u);

  // And the uncached sweep agrees with both.
  EXPECT_TRUE(sweeps_equal(grid_sweep(ctx, records, pool), cold));
}

TEST(EvalCache, RecordSubsetKeysSeparately) {
  const PipelineContext& ctx = test_context();
  const auto& records = ctx.benchmark();
  ASSERT_GT(records.size(), 2u);
  const std::vector<qgen::McqRecord> subset(records.begin(),
                                            records.end() - 1);
  EXPECT_NE(core::EvalCellCache::sweep_key(ctx, records),
            core::EvalCellCache::sweep_key(ctx, subset));

  // A cache scoped to the subset never serves the full set's totals.
  parallel::ThreadPool pool(2);
  const TempDir dir;
  const core::EvalCellCache cache(
      dir.path.string(), core::EvalCellCache::sweep_key(ctx, subset),
      core::EvalCellCache::group_base_key(ctx));
  grid_sweep(ctx, subset, pool, &cache);
  EXPECT_FALSE(cache
                   .load(std::string(ctx.student_ptrs()[0]->name()),
                         rag::Condition::kBaseline, records.size())
                   .has_value());
}

TEST(EvalCache, CorruptBlobFallsBackToRecompute) {
  const PipelineContext& ctx = test_context();
  const auto& records = ctx.benchmark();
  parallel::ThreadPool pool(4);
  const TempDir dir;
  const core::EvalCellCache cache(
      dir.path.string(), core::EvalCellCache::sweep_key(ctx, records),
      core::EvalCellCache::group_base_key(ctx));

  const eval::SweepResult cold = grid_sweep(ctx, records, pool, &cache);
  // Corrupt every cached cell blob; the warm sweep must recompute and
  // still agree, not crash or serve garbage.
  std::size_t corrupted = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << "ckcell1\n";
    ++corrupted;
  }
  ASSERT_EQ(corrupted, cold.cells.size());
  eval::SweepStats stats;
  const eval::SweepResult warm =
      grid_sweep(ctx, records, pool, &cache, &stats);
  EXPECT_TRUE(sweeps_equal(warm, cold));
  EXPECT_EQ(stats.cells_restored, 0u);
  EXPECT_EQ(stats.cells_computed, cold.cells.size());
}

TEST(EvalCache, EvalCellSerializerRoundTrips) {
  core::EvalCellArtifact cell;
  cell.model = "Llama-3.1-8B-Instruct";
  cell.condition = 3;
  cell.correct = 120;
  cell.total = 200;
  cell.unparseable = 4;
  const std::string blob = core::serialize_eval_cell(cell);
  const core::EvalCellArtifact back = core::deserialize_eval_cell(blob);
  EXPECT_EQ(back.model, cell.model);
  EXPECT_EQ(back.condition, cell.condition);
  EXPECT_EQ(back.correct, cell.correct);
  EXPECT_EQ(back.total, cell.total);
  EXPECT_EQ(back.unparseable, cell.unparseable);
  EXPECT_THROW(core::deserialize_eval_cell("ckbench1\n"), std::runtime_error);
}

}  // namespace
