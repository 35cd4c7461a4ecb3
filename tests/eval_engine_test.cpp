// Memoized cell-parallel evaluation engine contract:
//
//  * a shared RetrievalPlan produces tasks fieldwise-identical to
//    RagPipeline::prepare (the plan only hoists the model-independent
//    retrieval), and plan rows filled in any ranges or record groups,
//    by tiled scans under any kernel dispatch, equal the store's own
//    query;
//  * prepare_shared gives every spec the task prepare would, assembles
//    each distinct context cut once, and its contexts equal the
//    pre-cut string-building assembler's;
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

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "artifact_digest.hpp"
#include "core/eval_cache.hpp"
#include "core/pipeline.hpp"
#include "eval/harness.hpp"
#include "index/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "rag/rag_pipeline.hpp"
#include "text/tokenizer.hpp"

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

// Plan rows filled by tiled scans in uneven disjoint blocks, out of
// order, as grid blocks may be: ragged, whole and overfull kTileQ
// tiles (17, 9, 8, 7 and 1 records), then two interleaved
// non-contiguous record groups over the rest; under the default kernel
// dispatch and under the scalar table.
TEST(EvalEngine, FillPlanRangesMatchStoreQuery) {
  const PipelineContext& ctx = test_context();
  const auto& records = ctx.benchmark();
  const rag::RagPipeline& rag = ctx.rag();
  rag::RetrievalStores stores;
  stores.chunks = &ctx.chunk_store();
  for (std::size_t m = 0; m < stores.traces.size(); ++m) {
    stores.traces[m] = &ctx.trace_store(static_cast<trace::TraceMode>(m));
  }
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::size_t lo = 0;
  for (const std::size_t size : {1u, 7u, 8u, 9u, 17u}) {
    ranges.emplace_back(lo, lo + size);
    lo += size;
  }
  std::reverse(ranges.begin(), ranges.end());
  ASSERT_GT(records.size(), lo + 24);
  // Every third record past the ranges, last first; then the others.
  std::vector<std::size_t> group;
  std::vector<std::size_t> rest;
  for (std::size_t i = records.size(); i-- > lo;) {
    ((records.size() - 1 - i) % 3 == 0 ? group : rest).push_back(i);
  }

  namespace kernels = index::kernels;
  const kernels::KernelIsa active = kernels::dispatched_isa();
  for (const kernels::KernelIsa isa : {active, kernels::KernelIsa::kScalar}) {
    ASSERT_TRUE(kernels::set_dispatch_for_testing(isa));
    for (const rag::Condition c : eval::all_conditions()) {
      rag::RetrievalPlan plan = rag.make_plan(records, c);
      if (c == rag::Condition::kBaseline) {
        EXPECT_FALSE(plan.active);
        continue;
      }
      ASSERT_TRUE(plan.active);
      for (const auto& [from, to] : ranges) {
        rag.fill_plan(plan, records, from, to);
      }
      rag.fill_plan(plan, records, group);
      rag.fill_plan(plan, records, rest);
      ASSERT_EQ(plan.hits.size(), records.size());
      const std::size_t k = rag.config().top_k_for(c);
      for (std::size_t i = 0; i < records.size(); ++i) {
        const auto want =
            stores.store_for(c)->query(rag.query_for(records[i], c), k);
        ASSERT_EQ(plan.hits[i].size(), want.size()) << "record " << i;
        for (std::size_t h = 0; h < want.size(); ++h) {
          EXPECT_EQ(plan.hits[i][h].id, want[h].id);
          EXPECT_EQ(std::bit_cast<std::uint32_t>(plan.hits[i][h].score),
                    std::bit_cast<std::uint32_t>(want[h].score))
              << kernels::isa_name(isa) << " record " << i;
        }
      }
    }
  }
  ASSERT_TRUE(kernels::set_dispatch_for_testing(active));
}

/// The assembler before context cuts, kept verbatim as an independent
/// reference: it budgets and builds the context string hit by hit.
std::string reference_context(const qgen::McqRecord& record,
                              const std::vector<index::Hit>& hits,
                              std::size_t window, std::size_t reserve_tokens) {
  std::size_t question_tokens = text::approx_llm_tokens(record.stem);
  for (const auto& opt : record.options) {
    question_tokens += text::approx_llm_tokens(opt) + 2;
  }
  const std::size_t reserve = reserve_tokens + question_tokens;
  if (window <= reserve) return {};
  std::size_t budget = window - reserve;
  std::string context;
  for (const auto& hit : hits) {
    const std::size_t cost = text::approx_llm_tokens(hit.text) + 4;
    if (cost <= budget) {
      if (!context.empty()) context += "\n\n";
      context += hit.text;
      budget -= cost;
      continue;
    }
    if (budget < 48) break;
    const auto words = text::word_tokenize(hit.text);
    const std::size_t keep_words = budget * 3 / 4;
    if (keep_words < 24 || words.size() < 4) break;
    const std::size_t end_word = std::min(words.size(), keep_words);
    if (!context.empty()) context += "\n\n";
    context += hit.text.substr(0, words[end_word - 1].end);
    context += " ...";
    break;
  }
  return context;
}

// Every frozen-8 spec plus five per-record test windows, under every
// condition: each spec's shared task equals prepare's (task digests
// over the record set), its context equals the reference assembler's,
// and specs share a task exactly when their contexts are equal.  The
// test windows reach each stop of the assembler for every record whose
// first hit costs more than 48 tokens: no room at all (window <=
// reserve), a budget under 48 that the first hit does not fit, the
// smallest truncating budget (48, keeping 36 words of the first hit:
// the reference's keep_words < 24 stop cannot bind once budget >= 48),
// and two windows that keep every hit whole, which must share one task.
TEST(EvalEngine, SharedPrepareMatchesPrepareForEverySpec) {
  const PipelineContext& ctx = test_context();
  const auto& records = ctx.benchmark();
  const rag::RagPipeline& rag = ctx.rag();
  const std::size_t reserve_tokens = rag.config().reserve_tokens;
  const auto frozen = ctx.student_specs();
  constexpr std::size_t kTestWindows = 5;
  constexpr std::size_t kHuge = std::size_t{1} << 20;

  std::size_t no_room = 0;
  std::size_t small_budget_stops = 0;
  std::size_t truncated = 0;
  for (const rag::Condition c : eval::all_conditions()) {
    rag::RetrievalPlan plan = rag.make_plan(records, c);
    rag.fill_plan(plan, records, 0, records.size());
    const std::size_t n_specs = frozen.size() + kTestWindows;
    std::vector<std::vector<llm::McqTask>> shared_tasks(n_specs);
    std::vector<std::vector<llm::McqTask>> prepared(n_specs);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const qgen::McqRecord& record = records[i];
      const std::vector<index::Hit>& hits = plan.hits_for(i);
      std::size_t reserve = reserve_tokens + text::approx_llm_tokens(record.stem);
      for (const auto& opt : record.options) {
        reserve += text::approx_llm_tokens(opt) + 2;
      }
      const std::size_t first_cost =
          hits.empty() ? 0 : text::approx_llm_tokens(hits[0].text) + 4;
      const bool first_truncates = first_cost > 48;

      std::vector<llm::ModelSpec> specs = frozen;
      for (const std::size_t window :
           {reserve, reserve + std::min<std::size_t>(47, first_cost - 1),
            reserve + 48, kHuge, kHuge + 1}) {
        llm::ModelSpec spec = frozen.front();
        spec.context_window = window;
        specs.push_back(spec);
      }
      std::vector<const llm::ModelSpec*> spec_ptrs;
      for (const auto& spec : specs) spec_ptrs.push_back(&spec);
      const rag::SharedTasks shared =
          rag.prepare_shared(record, c, spec_ptrs, hits);
      ASSERT_EQ(shared.task_of.size(), specs.size());

      std::set<std::string> contexts;
      for (std::size_t s = 0; s < specs.size(); ++s) {
        const llm::McqTask& task = shared.tasks.at(shared.task_of[s]);
        shared_tasks[s].push_back(task);
        prepared[s].push_back(rag.prepare(record, c, specs[s]));
        EXPECT_EQ(task.context,
                  reference_context(record, hits, specs[s].context_window,
                                    reserve_tokens))
            << rag::condition_name(c) << " record " << i << " window "
            << specs[s].context_window;
        contexts.insert(task.context);
      }
      EXPECT_EQ(shared.tasks.size(), contexts.size())
          << rag::condition_name(c) << " record " << i;
      EXPECT_EQ(shared.task_of[n_specs - 1], shared.task_of[n_specs - 2]);

      if (hits.empty()) continue;
      const auto context_at = [&](std::size_t s) -> const std::string& {
        return shared.tasks[shared.task_of[frozen.size() + s]].context;
      };
      EXPECT_TRUE(context_at(0).empty());
      ++no_room;
      if (first_truncates) {
        EXPECT_TRUE(context_at(1).empty());
        ++small_budget_stops;
        const std::string& partial = context_at(2);
        ASSERT_GE(partial.size(), 4u);
        EXPECT_EQ(partial.substr(partial.size() - 4), " ...");
        ++truncated;
      }
    }
    for (std::size_t s = 0; s < n_specs; ++s) {
      EXPECT_EQ(test::task_digest(shared_tasks[s]),
                test::task_digest(prepared[s]))
          << rag::condition_name(c) << " spec " << s;
    }
  }
  EXPECT_GT(no_room, 0u);
  EXPECT_GT(small_budget_stops, 0u);
  EXPECT_GT(truncated, 0u);
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
  const auto models = ctx.student_ptrs();
  const auto specs = ctx.student_specs();
  const auto conditions = eval::all_conditions();
  parallel::ThreadPool pool(4);
  eval::SweepStats stats;
  grid_sweep(ctx, records, pool, nullptr, &stats);
  const std::size_t active_conditions = 4;  // chunks + three trace modes
  EXPECT_EQ(stats.retrieval_queries, active_conditions * records.size());
  EXPECT_EQ(stats.naive_retrieval_queries,
            active_conditions * records.size() * ctx.students().size());

  // One task per (condition, record) and distinct context cut.
  std::vector<const llm::ModelSpec*> spec_ptrs;
  for (const auto& spec : specs) spec_ptrs.push_back(&spec);
  std::size_t cuts = 0;
  for (const rag::Condition c : conditions) {
    rag::RetrievalPlan plan = ctx.rag().make_plan(records, c);
    ctx.rag().fill_plan(plan, records, 0, records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      cuts += ctx.rag()
                  .prepare_shared(records[i], c, spec_ptrs, plan.hits_for(i))
                  .tasks.size();
    }
  }
  const std::size_t evaluations =
      models.size() * conditions.size() * records.size();
  EXPECT_EQ(stats.records_evaluated, evaluations);
  EXPECT_EQ(stats.tasks_prepared, cuts);
  EXPECT_GE(stats.tasks_prepared, conditions.size() * records.size());
  EXPECT_LT(stats.tasks_prepared, evaluations);

  // One model: one task per evaluation.
  eval::HarnessConfig hc;
  hc.pool = &pool;
  eval::SweepStats one;
  eval::EvalHarness(ctx.rag(), hc)
      .sweep({models.front()}, {specs.front()}, records, conditions, &one);
  EXPECT_EQ(one.records_evaluated, conditions.size() * records.size());
  EXPECT_EQ(one.tasks_prepared, one.records_evaluated);
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
