// edit_cycle: the continuous-expansion loop.  Each operation edits 1% of
// the documents under a fresh revision and rebuilds incrementally
// against the checkpoint directory: N-K docarts restore, K recompute,
// the four stores rebuild.  The traced run also re-runs the 8 x 5 grid
// as a grouped delta sweep after every rebuild (the refreshed table).
// The sweep is left out of the timed operation: its cost depends on how
// many record groups the edited chunks perturb, and it reads ~50k group
// blobs per cycle, which moved it 2x between runs on the reference host,
// more than any bound allows.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>

#include "common.hpp"
#include "core/checkpoint.hpp"
#include "core/eval_cache.hpp"
#include "parallel/thread_pool.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {
namespace {

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

/// The grouped delta sweep of `ctx`'s benchmark against the cache in
/// `dir` — the refreshed 8 x 5 table.
eval::SweepResult delta_sweep(const core::PipelineContext& ctx,
                              const std::string& dir, parallel::ThreadPool& pool,
                              eval::SweepStats* stats,
                              core::EvalCellCache::Stats* cache_stats) {
  const auto& records = ctx.benchmark();
  const auto groups = core::record_groups(ctx, records);
  const core::EvalCellCache cache(dir, core::EvalCellCache::sweep_key(ctx, records),
                                  core::EvalCellCache::group_base_key(ctx));
  eval::HarnessConfig hc;
  hc.pool = &pool;
  hc.cell_cache = &cache;
  hc.groups = &groups;
  eval::SweepResult result = eval::EvalHarness(ctx.rag(), hc).sweep(
      ctx.student_ptrs(), ctx.student_specs(), records, eval::all_conditions(),
      stats);
  if (cache_stats != nullptr) *cache_stats = cache.stats();
  return result;
}

/// One traced cycle: the docart restore pass replayed over the edited
/// corpus's keys, then the real incremental build and delta sweep.
struct TracedCycle {
  std::unique_ptr<core::PipelineContext> ctx;
  eval::SweepResult table;
  eval::SweepStats stats;
  core::EvalCellCache::Stats cache_stats;
  std::size_t restored = 0;  ///< docarts the replay loaded and decoded
  std::uint64_t bytes_read = 0;
  double build_s = 0.0;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

TracedCycle traced_cycle(const core::PipelineConfig& cfg,
                         const corpus::KnowledgeBase& kb, const std::string& dir,
                         parallel::ThreadPool& pool) {
  TracedCycle out;
  out.t0_ns = now_ns();
  {
    const Span root("edit_cycle", Layer::kCore);
    corpus::SyntheticCorpus edited;
    {
      const Span phase("corpus", Layer::kCorpus, true);
      const Span s("build_corpus", Layer::kCorpus);
      edited = corpus::build_corpus(kb, cfg.corpus, cfg.threads);
    }
    {
      const Span phase("restore", Layer::kCore, true);
      std::vector<std::uint64_t> keys;
      {
        const Span s("derive_doc_keys", Layer::kCore);
        keys = core::derive_doc_keys(cfg, edited, embed::make_biomed_encoder().dim());
      }
      const core::ArtifactCache cache(dir);
      std::atomic<std::size_t> restored{0};
      parallel::parallel_for(pool, 0, keys.size(), [&](std::size_t i) {
        std::optional<std::string> blob;
        {
          const Span s("ArtifactCache::load", Layer::kCore);
          blob = cache.load("docart", keys[i]);
        }
        if (!blob.has_value()) return;
        const Span s("deserialize_docart", Layer::kCore);
        try {
          const core::DocArtifact art = core::deserialize_docart(*blob);
          (void)art;
          restored.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          // A corrupt blob is a miss, as the incremental build treats it.
        }
      });
      out.restored = restored.load();
      out.bytes_read = cache.stats().bytes_read;
    }
    {
      const Span phase("incremental_build", Layer::kCore, true);
      const Span s("PipelineContext", Layer::kCore);
      const std::int64_t t0 = now_ns();
      out.ctx = std::make_unique<core::PipelineContext>(cfg);
      out.build_s = static_cast<double>(now_ns() - t0) * 1e-9;
    }
    const Span phase("delta_sweep", Layer::kEval, true);
    const Span s("EvalHarness::sweep", Layer::kEval);
    out.table = delta_sweep(*out.ctx, dir, pool, &out.stats, &out.cache_stats);
  }
  out.t1_ns = now_ns();
  return out;
}

}  // namespace

void run_edit_cycle(const Options& opt, Report& report) {
  const Seeds seeds = derive_seeds(opt.seed);
  const core::PipelineConfig base = workload_config(seeds);
  parallel::ThreadPool pool(kThreads);
  const std::string dir = opt.work_dir + "/edit-cache";
  std::size_t n = 0;
  std::size_t k = 0;

  // Set-up: a checkpointed cold build of revision 0, which leaves every
  // docart in a fresh directory; a traced run also seeds the group
  // tallies with a grouped sweep.
  const double setup_s = time_s([&]() {
    core::PipelineConfig cfg = base;
    cfg.checkpoint_dir = dir;
    const core::PipelineContext ctx(cfg);
    n = ctx.stats().documents;
    k = std::max<std::size_t>(1, n / 100);
    if (opt.trace) delta_sweep(ctx, dir, pool, nullptr, nullptr);
  });
  std::optional<corpus::KnowledgeBase> kb;
  if (opt.trace) {
    // The replay is of a cold build, so it is held against one.
    const util::Stopwatch watch;
    const core::PipelineContext cold(base);
    const double cold_s = watch.seconds();
    traced_build(base, artifact_digest(cold), cold_s, report);
    kb.emplace(corpus::KnowledgeBase::generate(base.kb));
  }

  // Every cycle edits a different seeded set of K documents (each
  // process of a run its own stream of sets) under a fresh revision.
  // The documents the previous cycle edited revert to revision 0, whose
  // docarts the set-up stored, so every cycle restores exactly N-K.
  std::uint64_t cycle = 0;
  const auto cycle_config = [&]() {
    core::PipelineConfig cfg = base;
    cfg.checkpoint_dir = dir;
    cfg.corpus.edits.seed = seeds.edit + (opt.part << 20) + cycle;
    cfg.corpus.edits.count = k;
    cfg.corpus.edits.revision = seeds.revision + cycle;
    ++cycle;
    return cfg;
  };
  const auto counters_hold = [&](const core::PipelineStats& st) {
    return st.doc_artifacts_restored == n - k && st.doc_artifacts_recomputed == k &&
           st.checkpoint_corrupt == 0;
  };

  bool counters_ok = true;
  bool identical = true;
  bool replay_ok = true;
  std::size_t ops = 0;
  std::optional<bool> grouped_equals_plain;
  std::vector<double> untraced_ms;
  std::vector<double> traced_build_s;
  std::optional<TracedCycle> first;
  const std::vector<double> op_ms = run_for(opt.seconds, [&]() {
    const core::PipelineConfig cfg = cycle_config();
    const util::Stopwatch watch;
    auto ctx = std::make_unique<core::PipelineContext>(cfg);
    const double ms = watch.millis();
    ++ops;
    counters_ok = counters_ok && counters_hold(ctx->stats());
    // Every cycle is byte-identical to a cold build of its edited corpus.
    // The check also spaces the cycles out: each writes ~30 MB of store
    // blobs, and back-to-back cycles left enough dirty data behind to
    // slow the host for minutes after a run.  The incremental context is
    // released first, so peak RSS stays the cycle's, not the check's.
    const std::uint64_t incremental = artifact_digest(*ctx);
    ctx.reset();
    core::PipelineConfig cold = cfg;
    cold.checkpoint_dir.clear();
    identical = identical && incremental == artifact_digest(core::PipelineContext(cold));
    if (!opt.trace) return ms;

    untraced_ms.push_back(ms);
    TracedCycle traced = traced_cycle(cycle_config(), *kb, dir, pool);
    if (report.export_until_ns == 0) report.export_until_ns = traced.t1_ns;
    replay_ok = replay_ok && traced.restored == n - k;
    counters_ok = counters_ok && counters_hold(traced.ctx->stats());
    traced_build_s.push_back(traced.build_s);
    if (!first.has_value()) {
      eval::HarnessConfig hc;
      hc.pool = &pool;
      const auto plain = eval::EvalHarness(traced.ctx->rag(), hc)
                             .sweep(traced.ctx->student_ptrs(), traced.ctx->student_specs(),
                                    traced.ctx->benchmark(), eval::all_conditions());
      grouped_equals_plain = sweeps_equal(traced.table, plain);
      first.emplace(std::move(traced));
    }
    return ms;
  });
  report.attempt(ops);
  report.check("incremental builds == cold builds of the edited corpus", identical);
  report.check("edit cycles restored N-K and recomputed K docs", counters_ok);
  report.detail["documents"] = n;
  report.detail["edited_docs"] = k;
  std::filesystem::remove_all(dir);

  if (!opt.trace) {
    report_end_to_end(report, setup_s, op_ms);
    return;
  }
  report.check("restore replay finds exactly N-K docarts", replay_ok);
  report.check("grouped delta sweep == plain sweep", grouped_equals_plain.value_or(false));
  const TracedCycle& c = *first;
  const auto spans = spans_between(c.t0_ns, c.t1_ns);
  report_op_layers(report, spans, static_cast<double>(c.t1_ns - c.t0_ns) * 1e-9,
                   median(untraced_ms) * 1e-3);
  for (const SpanRecord& s : spans) {
    if (!s.phase) continue;
    report.detail[std::string("phase.") + s.name + "_s"] =
        static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9;
  }
  report.detail["core.checkpoint.restore_s"] = report.detail["phase.restore_s"];
  PerLayer& L = report.layers;
  // The traced cycle also replays the restore pass and sweeps; its
  // overhead is its incremental build against the untraced ones.
  L.op_overhead_frac = median(traced_build_s) / (median(untraced_ms) * 1e-3) - 1.0;
  const auto& st = c.ctx->stats();
  L.ckpt_bytes_read = static_cast<double>(c.bytes_read);
  L.docs_restored = static_cast<double>(st.doc_artifacts_restored);
  L.docs_recomputed = static_cast<double>(st.doc_artifacts_recomputed);
  L.ckpt_hits = static_cast<double>(st.checkpoint_hits);
  L.ckpt_misses = static_cast<double>(st.checkpoint_misses);
  L.ckpt_corrupt = static_cast<double>(st.checkpoint_corrupt);
  L.group_hits = static_cast<double>(c.cache_stats.group_hits);
  L.group_stores = static_cast<double>(c.cache_stats.group_stores);
  L.eval_cells = static_cast<double>(c.stats.cells_computed);
  L.eval_records_evaluated = static_cast<double>(c.stats.records_evaluated);
  const std::size_t groups = c.stats.groups_restored + c.stats.groups_computed;
  L.eval_group_restore_frac =
      groups ? static_cast<double>(c.stats.groups_restored) / static_cast<double>(groups)
             : 0.0;
  L.rag_queries = static_cast<double>(c.stats.retrieval_queries);
  L.rag_query_drop = c.stats.naive_retrieval_queries
                         ? static_cast<double>(c.stats.retrieval_queries) /
                               static_cast<double>(c.stats.naive_retrieval_queries)
                         : 0.0;
}

}  // namespace perfbench
