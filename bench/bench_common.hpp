#pragma once
// Shared plumbing for the experiment-reproduction benches: the shared
// pipeline context, sweep runners, and measured-vs-paper table printing.

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/eval_cache.hpp"
#include "core/pipeline.hpp"
#include "eval/paper_reference.hpp"
#include "eval/report.hpp"
#include "index/kernels.hpp"
#include "json/json.hpp"
#include "parallel/thread_pool.hpp"

namespace mcqa::bench {

// --- smoke mode --------------------------------------------------------------
//
// Every bench binary accepts `--smoke`: the fast path the `bench`-labelled
// ctest entries run.  Smoke mode keeps every shape check but shrinks the
// work — sweeps run on a record prefix, google-benchmark timing sweeps are
// skipped — so `ctest -L bench` verifies the suite in seconds per binary
// instead of minutes.  Full runs (no flag) are unchanged.

inline bool g_smoke = false;

/// Detect `--smoke` and strip it from argv (so benchmark::Initialize in
/// the gbench binaries never sees an unknown flag).
inline bool parse_args(int* argc, char** argv) {
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    if (std::string_view(argv[r]) == "--smoke") {
      g_smoke = true;
      continue;
    }
    argv[w++] = argv[r];
  }
  *argc = w;
  return g_smoke;
}

/// Convenience overload for benches that never re-read argv.
inline bool parse_args(int argc, char** argv) {
  return parse_args(&argc, argv);
}

inline bool smoke() { return g_smoke; }

/// Smoke-mode record cap: a deterministic prefix, so smoke runs are
/// reproducible (just not comparable to the paper's numbers).
inline std::vector<qgen::McqRecord> smoke_subset(
    const std::vector<qgen::McqRecord>& records, std::size_t cap = 96) {
  if (!g_smoke || records.size() <= cap) return records;
  return std::vector<qgen::McqRecord>(records.begin(),
                                      records.begin() + static_cast<std::ptrdiff_t>(cap));
}

/// The context every table/figure bench evaluates against.  Built once
/// per process at the default reproduction scale.
inline const core::PipelineContext& shared_context() {
  return core::PipelineContext::shared();
}

inline void print_scale_banner(const core::PipelineContext& ctx) {
  const auto& s = ctx.stats();
  std::printf(
      "[reproduction scale %.3f: %zu docs, %zu chunks, %zu questions, "
      "%zu exam items; paper ran 22,548 docs / 173,318 chunks / 16,680 "
      "questions]\n\n",
      ctx.config().corpus.scale, s.documents, s.chunks,
      ctx.benchmark().size(), ctx.exam_all().size());
}

/// Stamp the kernel-dispatch provenance every BENCH_*.json carries:
/// which scan-kernel ISA the runtime dispatcher selected (scalar or
/// avx2 — a pure function of the CPU and MCQA_KERNEL_ISA, DESIGN.md
/// §18) and the multi-query tile width the scan layer ran with.
/// Numbers from different hosts are only comparable when these match.
inline void add_kernel_metadata(json::Value& report) {
  report["kernel_isa"] =
      index::kernels::isa_name(index::kernels::dispatched_isa());
  report["kernel_tile_q"] = index::kernels::kTileQ;
}

/// One pool for every sweep a bench binary runs (sweeps never nest).
inline parallel::ThreadPool& shared_sweep_pool() {
  static parallel::ThreadPool pool(0);
  return pool;
}

/// Run the five-condition sweep for all registered students.  In smoke
/// mode the sweep covers a deterministic record prefix (accuracies then
/// deviate from the paper columns — smoke verifies shape, not values).
///
/// When the context checkpoints (`$MCQA_CHECKPOINT_DIR`), finished cells
/// are served from the content-addressed eval-cell cache alongside the
/// stage-1..5 artifacts, so a warm bench re-run skips evaluation
/// entirely; cold behavior (and every accuracy) is unchanged.
inline eval::SweepResult run_full_sweep(
    const core::PipelineContext& ctx,
    const std::vector<qgen::McqRecord>& records) {
  const std::vector<qgen::McqRecord> subset = smoke_subset(records);
  if (subset.size() != records.size()) {
    std::printf("[smoke: sweeping first %zu of %zu records]\n", subset.size(),
                records.size());
  }
  std::unique_ptr<core::EvalCellCache> cell_cache;
  if (!ctx.config().checkpoint_dir.empty()) {
    cell_cache = std::make_unique<core::EvalCellCache>(
        ctx.config().checkpoint_dir,
        core::EvalCellCache::sweep_key(ctx, subset),
        core::EvalCellCache::group_base_key(ctx));
  }
  eval::HarnessConfig hc;
  hc.pool = &shared_sweep_pool();
  hc.cell_cache = cell_cache.get();
  const eval::EvalHarness harness(ctx.rag(), hc);
  return harness.sweep(ctx.student_ptrs(), ctx.student_specs(), subset,
                       eval::all_conditions());
}

/// "measured (paper)" cell text.
inline std::string cell(double measured, double paper) {
  return eval::fmt_acc(measured) + " (" + eval::fmt_acc(paper) + ")";
}

/// Print a Table 3/4-style table: baseline, chunks, best-of-traces.
inline void print_exam_table(const char* title,
                             const eval::SweepResult& sweep,
                             const std::vector<eval::PaperRow3>& paper) {
  eval::TableWriter table(
      {"Model", "Baseline", "RAG-Chunks", "RAG-RTs (best)", "best mode"});
  double dev = 0.0;
  int cells = 0;
  for (const auto& row : paper) {
    const std::string model(row.model);
    const double base = sweep.at(model, rag::Condition::kBaseline).value();
    const double chunks = sweep.at(model, rag::Condition::kChunks).value();
    const auto [best_cond, best_acc] = sweep.best_trace(model);
    table.add_row({model, cell(base, row.accuracy[0]),
                   cell(chunks, row.accuracy[1]),
                   cell(best_acc.value(), row.accuracy[2]),
                   std::string(rag::condition_name(best_cond))});
    dev += std::abs(base - row.accuracy[0]) +
           std::abs(chunks - row.accuracy[1]) +
           std::abs(best_acc.value() - row.accuracy[2]);
    cells += 3;
  }
  std::printf("%s\nvalues: measured (paper)\n\n%s\nmean |measured-paper| = %.3f\n\n",
              title, table.render().c_str(), dev / cells);
}

/// Figure 4/5/6 payload: per-model % improvement of best-RT vs baseline
/// and vs chunks.
struct GainSeries {
  std::vector<std::string> models;
  std::vector<double> vs_baseline;
  std::vector<double> vs_chunks;
};

inline GainSeries compute_gains(const eval::SweepResult& sweep) {
  GainSeries g;
  for (const auto& card : llm::student_registry()) {
    const std::string& model = card.spec.name;
    const double base = sweep.at(model, rag::Condition::kBaseline).value();
    const double chunks = sweep.at(model, rag::Condition::kChunks).value();
    const double best = sweep.best_trace(model).second.value();
    g.models.push_back(model);
    g.vs_baseline.push_back(eval::pct_improvement(best, base));
    g.vs_chunks.push_back(eval::pct_improvement(best, chunks));
  }
  return g;
}

inline void print_gain_figure(const char* title, const GainSeries& g) {
  const std::vector<eval::FigureSeries> series{
      {"RT vs Baseline", g.vs_baseline},
      {"RT vs RAG-Chunks", g.vs_chunks},
  };
  std::printf("%s\n", eval::render_grouped_bars(g.models, series, title,
                                                /*scale=*/4.0)
                          .c_str());
}

}  // namespace mcqa::bench
