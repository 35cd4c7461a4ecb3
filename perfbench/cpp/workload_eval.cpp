// eval_grid: one cold 8 students x 5 conditions sweep over one slice of
// the benchmark per operation, on a kThreads pool with no cell cache.

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <optional>

#include "common.hpp"
#include "parallel/thread_pool.hpp"
#include "util/hash.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {
namespace {

/// The benchmark is swept in this many slices, slice s holding every
/// kSlices-th question from question s.  A whole sweep takes about 4 s,
/// longer than a process of a run measures; a slice takes about 0.13 s,
/// so a process's median is over a score of sweeps, not one.  With 32
/// slices a process does not run out of them and rebuild its context,
/// which would raise its peak RSS by some 190 MiB.
constexpr std::size_t kSlices = 32;

struct Slice {
  const core::PipelineContext* ctx = nullptr;
  std::size_t index = 0;
  std::vector<qgen::McqRecord> records;
};

/// Hands out the slices of a context in order.  Each is the first sweep
/// of its questions on that context, as after a build: the context's
/// embedding cache has not seen their query texts.  After the last slice
/// the context is rebuilt (untimed).
class SliceSource {
 public:
  explicit SliceSource(const core::PipelineConfig& cfg) : cfg_(cfg) {}

  const core::PipelineContext& rebuild() {
    ctx_.reset();  // one context of a source alive at a time
    ctx_ = std::make_unique<core::PipelineContext>(cfg_);
    next_ = 0;
    return *ctx_;
  }

  Slice next() {
    if (!ctx_ || next_ == kSlices) rebuild();
    Slice s{ctx_.get(), next_++, {}};
    const auto& all = ctx_->benchmark();
    for (std::size_t i = s.index; i < all.size(); i += kSlices) s.records.push_back(all[i]);
    return s;
  }

 private:
  core::PipelineConfig cfg_;
  std::unique_ptr<core::PipelineContext> ctx_;
  std::size_t next_ = 0;
};

std::uint64_t sweep_digest(const eval::SweepResult& sweep) {
  std::uint64_t h = util::fnv1a64("sweep");
  for (const auto& cell : sweep.cells) {
    h = util::hash_combine(h, util::fnv1a64(cell.model));
    h = util::hash_combine(h, util::fnv1a64(static_cast<std::uint64_t>(cell.condition)));
    h = util::hash_combine(h, util::fnv1a64(cell.accuracy.correct));
    h = util::hash_combine(h, util::fnv1a64(cell.accuracy.total));
    h = util::hash_combine(h, util::fnv1a64(cell.accuracy.unparseable));
  }
  return h;
}

struct TracedSweep {
  std::uint64_t digest = 0;
  double wall_s = 0.0;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

/// EvalHarness::sweep's plain grid replayed phase by phase with a span
/// around every per-record call: the retrieval plans (fill_plan per
/// record, as the harness fills them), then every cell's
/// prepare_from_plan + answer + grade.
TracedSweep traced_sweep(const core::PipelineContext& ctx,
                         const std::vector<qgen::McqRecord>& records,
                         parallel::ThreadPool& pool) {
  const auto models = ctx.student_ptrs();
  const auto specs = ctx.student_specs();
  const auto conditions = eval::all_conditions();
  const std::size_t n = records.size();
  const std::size_t cells = models.size() * conditions.size();
  const rag::RagPipeline& rag = ctx.rag();
  const eval::Judge judge;

  TracedSweep out;
  out.t0_ns = now_ns();
  std::vector<std::atomic<std::size_t>> correct(cells);
  std::vector<std::atomic<std::size_t>> unparseable(cells);
  {
    const Span root("sweep", Layer::kEval);
    std::vector<rag::RetrievalPlan> plans;
    for (const auto c : conditions) plans.push_back(rag.make_plan(records, c));
    {
      const Span phase("plan", Layer::kRag, true);
      parallel::parallel_for(pool, 0, conditions.size() * n, [&](std::size_t j) {
        rag::RetrievalPlan& plan = plans[j / n];
        if (!plan.active) return;
        const Span s("RagPipeline::fill_plan", Layer::kRag);
        rag.fill_plan(plan, records, j % n, j % n + 1);
      });
    }
    {
      const Span phase("cells", Layer::kEval, true);
      const std::size_t grain =
          std::max<std::size_t>(1, n / (pool.thread_count() * 4));
      const std::size_t blocks = (n + grain - 1) / grain;
      parallel::parallel_for(pool, 0, cells * blocks, [&](std::size_t j) {
        const std::size_t cell = j / blocks;
        const std::size_t m = cell / conditions.size();
        const rag::RetrievalPlan& plan = plans[cell % conditions.size()];
        const std::size_t lo = (j % blocks) * grain;
        const std::size_t hi = std::min(n, lo + grain);
        std::size_t ok = 0;
        std::size_t bad = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          llm::McqTask task;
          {
            const Span s("RagPipeline::prepare_from_plan", Layer::kRag);
            task = rag.prepare_from_plan(records[i], plan, i, specs[m]);
          }
          llm::AnswerResult answer;
          {
            const Span s("LanguageModel::answer", Layer::kLlm);
            answer = models[m]->answer(task);
          }
          const Span s("Judge::grade", Layer::kEval);
          const trace::GradingResult grading = judge.grade(task, answer.text);
          if (grading.is_correct) ++ok;
          if (grading.extracted_option_number < 0) ++bad;
        }
        correct[cell].fetch_add(ok, std::memory_order_relaxed);
        unparseable[cell].fetch_add(bad, std::memory_order_relaxed);
      });
    }
  }
  out.t1_ns = now_ns();
  out.wall_s = static_cast<double>(out.t1_ns - out.t0_ns) * 1e-9;

  eval::SweepResult result;
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (std::size_t c = 0; c < conditions.size(); ++c) {
      const std::size_t cell = m * conditions.size() + c;
      eval::CellResult r;
      r.model = std::string(models[m]->name());
      r.condition = conditions[c];
      r.accuracy.correct = correct[cell].load();
      r.accuracy.total = n;
      r.accuracy.unparseable = unparseable[cell].load();
      result.cells.push_back(std::move(r));
    }
  }
  out.digest = sweep_digest(result);
  return out;
}

}  // namespace

void run_eval_grid(const Options& opt, Report& report) {
  const core::PipelineConfig cfg = workload_config(derive_seeds(opt.seed));
  std::unique_ptr<parallel::ThreadPool> pool;
  SliceSource source(cfg);
  eval::HarnessConfig hc;
  double build_s = 0.0;
  std::uint64_t build_digest = 0;
  std::size_t records = 0;
  const auto setup = [&]() {
    const util::Stopwatch watch;
    const core::PipelineContext& ctx = source.rebuild();
    build_s = watch.seconds();
    records = ctx.benchmark().size();
    if (opt.trace) build_digest = artifact_digest(ctx);
    pool = std::make_unique<parallel::ThreadPool>(kThreads);
    hc.pool = pool.get();
  };
  const double setup_s = time_s(setup);
  if (opt.trace) traced_build(cfg, build_digest, build_s, report);

  // Slice 0's digest is the process's sweep_digest, which run.py checks
  // is the same in every process of a run; a slice swept again on a
  // rebuilt context must repeat its digest, and in a traced run the
  // replay of each slice (on a second source, so it is cold too) must
  // match the timed sweep.  The traced layer metrics are slice 0's, so
  // their counts are exact for a seed.
  std::array<std::optional<std::uint64_t>, kSlices> digests;
  std::optional<bool> stable;
  std::optional<bool> cells_equal;
  std::size_t ops = 0;
  eval::SweepStats stats;
  eval::SweepStats first_stats;
  std::vector<double> untraced_ms;
  std::optional<SliceSource> replay_source;
  bool replay_equal = true;
  TracedSweep first_replay;
  const auto op = [&]() {
    const Slice slice = source.next();
    const core::PipelineContext& c = *slice.ctx;
    const eval::EvalHarness harness(c.rag(), hc);
    const auto models = c.student_ptrs();
    const auto specs = c.student_specs();
    const auto conditions = eval::all_conditions();
    const util::Stopwatch watch;
    const eval::SweepResult result =
        harness.sweep(models, specs, slice.records, conditions, &stats);
    const double ms = watch.millis();
    if (ops++ == 0) first_stats = stats;
    const std::uint64_t digest = sweep_digest(result);
    auto& seen = digests[slice.index];
    if (seen.has_value()) stable = stable.value_or(true) && *seen == digest;
    seen = digest;
    if (!cells_equal.has_value()) {
      // One seeded cell (a different one per process of the run) through
      // the per-cell path, with its own retrieval, must match the grid.
      const std::uint64_t pick = opt.seed * 7 + opt.part;
      const std::size_t m = pick % models.size();
      const rag::Condition cond = conditions[(pick / models.size()) % conditions.size()];
      const eval::Accuracy one = harness.evaluate(*models[m], specs[m], slice.records, cond);
      const eval::Accuracy& grid = result.at(models[m]->name(), cond);
      cells_equal = one.correct == grid.correct && one.total == grid.total &&
                    one.unparseable == grid.unparseable;
    }
    if (opt.trace) {
      untraced_ms.push_back(ms);
      if (!replay_source.has_value()) replay_source.emplace(cfg);
      const Slice r = replay_source->next();
      const TracedSweep traced = traced_sweep(*r.ctx, r.records, *pool);
      if (report.export_until_ns == 0) {
        report.export_until_ns = traced.t1_ns;
        first_replay = traced;
      }
      replay_equal = replay_equal && r.index == slice.index && traced.digest == digest;
    }
    return ms;
  };
  // Slice 0 warms the pool up and is not sampled: a fresh pool's threads
  // run slower for their first half second or so.
  op();
  const std::vector<double> op_ms = run_for(opt.seconds, op);
  report.attempt(ops);
  if (stable.has_value()) report.check("slice digest stable across contexts", *stable);
  report.check("per-cell evaluate == sweep cells", cells_equal.value_or(false));
  report.detail["records"] = records;
  report.detail["slices"] = kSlices;
  report.detail["slice_records"] = (records + kSlices - 1) / kSlices;
  report.detail["sweep_digest"] = std::to_string(digests[0].value_or(0));
  report.detail["cells"] = first_stats.cells_computed;
  report.detail["retrieval_queries"] = first_stats.retrieval_queries;
  report.detail["naive_retrieval_queries"] = first_stats.naive_retrieval_queries;

  if (opt.trace) {
    report.check("traced sweep replay == EvalHarness::sweep", replay_equal);
    const auto spans = spans_between(first_replay.t0_ns, first_replay.t1_ns);
    // Slice 0 traced against slice 0 untraced.
    report_op_layers(report, spans, first_replay.wall_s, untraced_ms.front() * 1e-3);
    PerLayer& L = report.layers;
    report.check("sweep layer walls within 5% of the traced wall",
                 within_5_percent(L.op_sum_frac));
    L.rag_queries = static_cast<double>(first_stats.retrieval_queries);
    L.rag_query_drop = first_stats.naive_retrieval_queries
                           ? static_cast<double>(first_stats.retrieval_queries) /
                                 static_cast<double>(first_stats.naive_retrieval_queries)
                           : 0.0;
    L.eval_cells = static_cast<double>(first_stats.cells_computed);
    L.eval_records_evaluated = static_cast<double>(first_stats.records_evaluated);
    const auto total_s = [](const std::vector<double>& ms) {
      double s = 0.0;
      for (const double v : ms) s += v * 1e-3;
      return s;
    };
    const auto plan = durations_ms(spans, "plan");
    const auto fill = durations_ms(spans, "RagPipeline::fill_plan");
    const auto assemble = durations_ms(spans, "RagPipeline::prepare_from_plan");
    report.detail["rag.plan_s"] = total_s(plan);
    report.detail["rag.fill_plan_busy_s"] = total_s(fill);
    report.detail["rag.fill_plan_ms_p50"] = median(fill);
    report.detail["rag.assemble_busy_s"] = total_s(assemble);
    report.detail["rag.assemble_ms_p50"] = median(assemble);
    report.detail["llm.answer_busy_s"] =
        total_s(durations_ms(spans, "LanguageModel::answer"));
    report.detail["eval.judge_busy_s"] = total_s(durations_ms(spans, "Judge::grade"));
    return;
  }
  report_end_to_end(report, setup_s, op_ms);
}

}  // namespace perfbench
