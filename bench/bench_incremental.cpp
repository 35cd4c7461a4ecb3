// Incremental rebuild benchmark (DESIGN.md §17): per-document artifact
// invalidation, delta index updates, and O(K) warm rebuilds.
//
// Shape checks (smoke and full):
//   * a cold checkpointed build recomputes all N documents; editing K
//     documents and re-running restores exactly N-K per-doc artifacts
//     and recomputes exactly K, at 1/2/8 threads, with every artifact
//     byte-identical to a from-scratch cold build of the edited corpus;
//   * the grouped (delta) eval sweep over the edited revision is
//     bitwise-identical to a plain sweep while restoring unchanged
//     record groups from the previous revision's tallies — only cells
//     whose record subset (content or retrieval hits) moved re-run;
//   * prune_cache drops the stranded previous-revision blobs and keeps
//     everything the current manifest needs (a warm re-run after the
//     sweep restores all N documents).
//
// Full mode additionally sizes the corpus to ~1000 documents, measures
// cold vs incremental wall clock for the K=10 edit, requires the
// incremental rebuild to be >= 10x faster end-to-end, and writes
// BENCH_incremental.json.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/checkpoint.hpp"
#include "json/json.hpp"
#include "util/hash.hpp"

namespace {

using namespace mcqa;
using core::PipelineConfig;
using core::PipelineContext;

bool g_all_pass = true;

void check(const char* name, bool pass) {
  std::printf("shape check: %-58s %s\n", name, pass ? "PASS" : "FAIL");
  g_all_pass = g_all_pass && pass;
}

/// One digest over every build artifact, via the checkpoint serializers.
std::uint64_t artifact_digest(const PipelineContext& ctx) {
  const auto& s = ctx.stats();
  core::ParsedArtifact parsed{ctx.parsed(), s.routing, s.parse_failures,
                              s.documents};
  core::BenchmarkArtifact bench{ctx.benchmark(), s.funnel};
  std::uint64_t h = util::fnv1a64(core::serialize_parsed(parsed));
  h = util::hash_combine(h,
                         util::fnv1a64(core::serialize_chunks(ctx.chunks())));
  h = util::hash_combine(h, util::fnv1a64(ctx.chunk_store().save()));
  h = util::hash_combine(h, util::fnv1a64(core::serialize_benchmark(bench)));
  for (int m = 0; m < trace::kTraceModeCount; ++m) {
    const auto mode = static_cast<trace::TraceMode>(m);
    core::TraceArtifact traces{ctx.traces(mode), {}};
    h = util::hash_combine(h, util::fnv1a64(core::serialize_traces(traces)));
    h = util::hash_combine(h, util::fnv1a64(ctx.trace_store(mode).save()));
  }
  return h;
}

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("mcqa-bench-incr-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

void copy_dir(const std::filesystem::path& from,
              const std::filesystem::path& to) {
  std::filesystem::copy(from, to,
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing);
}

PipelineConfig base_config(double scale, std::string checkpoint_dir) {
  PipelineConfig cfg = PipelineConfig::paper_scale(scale);
  cfg.checkpoint_dir = std::move(checkpoint_dir);
  return cfg;
}

PipelineConfig edited_config(const PipelineConfig& base, std::size_t count,
                             std::uint64_t revision) {
  PipelineConfig cfg = base;
  cfg.corpus.edits.count = count;
  cfg.corpus.edits.revision = revision;
  return cfg;
}

bool sweeps_equal(const eval::SweepResult& a, const eval::SweepResult& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    if (a.cells[i].model != b.cells[i].model ||
        a.cells[i].condition != b.cells[i].condition ||
        a.cells[i].accuracy.correct != b.cells[i].accuracy.correct ||
        a.cells[i].accuracy.total != b.cells[i].accuracy.total ||
        a.cells[i].accuracy.unparseable != b.cells[i].accuracy.unparseable) {
      return false;
    }
  }
  return true;
}

std::vector<qgen::McqRecord> capped(const std::vector<qgen::McqRecord>& r,
                                    std::size_t cap) {
  if (r.size() <= cap) return r;
  return std::vector<qgen::McqRecord>(
      r.begin(), r.begin() + static_cast<std::ptrdiff_t>(cap));
}

}  // namespace

int main(int argc, char** argv) {
  mcqa::bench::parse_args(argc, argv);
  // Full mode sizes the corpus to ~1000 documents so the K=10 edit is
  // a 1% dirty fraction — the regime the O(K) claim is about.
  const double scale = bench::smoke() ? 0.008 : 0.04435;
  const std::size_t k_edits = bench::smoke() ? 2 : 10;
  const std::size_t record_cap = bench::smoke() ? 96 : 240;
  const std::size_t sweep_models = bench::smoke() ? 2 : 3;

  std::printf("Incremental rebuild (scale %.4f, K=%zu edited docs)\n\n",
              scale, k_edits);

  // --- cold checkpointed build of revision 0 ---------------------------------
  const TempDir cache_dir;
  const auto base = base_config(scale, cache_dir.path.string());
  const auto rev0 = std::make_unique<PipelineContext>(base);
  const std::size_t n = rev0->stats().documents;
  std::printf("revision 0: %zu docs, %zu chunks, %zu questions, cold "
              "checkpointed build %.3fs\n",
              n, rev0->stats().chunks, rev0->benchmark().size(),
              rev0->stats().build_seconds);
  check("cold build recomputed every per-doc artifact",
        rev0->stats().doc_artifacts_restored == 0 &&
            rev0->stats().doc_artifacts_recomputed == n);

  // --- ground truth for the edited corpus: from-scratch, no cache -----------
  const auto edited = edited_config(base, k_edits, 1);
  auto fresh_cfg = edited;
  fresh_cfg.checkpoint_dir.clear();
  const auto fresh = std::make_unique<PipelineContext>(fresh_cfg);
  const std::uint64_t reference = artifact_digest(*fresh);
  const double cold_seconds = fresh->stats().build_seconds;
  std::printf("revision 1 cold rebuild (no cache): %.3fs\n", cold_seconds);

  // --- thread-count independence ---------------------------------------------
  // Copies are taken now, while the cache holds only revision 0, so the
  // restore counters stay exact in every copy.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const TempDir copy;
    copy_dir(cache_dir.path, copy.path);
    auto cfg = edited_config(
        base_config(scale, copy.path.string()), k_edits, 1);
    cfg.threads = threads;
    const PipelineContext ctx(cfg);
    char label[96];
    std::snprintf(label, sizeof label,
                  "incremental byte-identical + N-K/K at %zu threads",
                  threads);
    check(label, artifact_digest(ctx) == reference &&
                     ctx.stats().doc_artifacts_restored == n - k_edits &&
                     ctx.stats().doc_artifacts_recomputed == k_edits);
  }

  // --- incremental rebuild on the populated cache ----------------------------
  const auto incr = std::make_unique<PipelineContext>(edited);
  const double incr_seconds = incr->stats().build_seconds;
  const double speedup =
      incr_seconds > 0.0 ? cold_seconds / incr_seconds : 0.0;
  std::printf("revision 1 incremental rebuild: %.3fs (%.1fx vs cold), "
              "restored %zu, recomputed %zu\n\n",
              incr_seconds, speedup, incr->stats().doc_artifacts_restored,
              incr->stats().doc_artifacts_recomputed);
  check("incremental artifacts byte-identical to cold rebuild",
        artifact_digest(*incr) == reference);
  check("restored exactly N-K, recomputed exactly K",
        incr->stats().doc_artifacts_restored == n - k_edits &&
            incr->stats().doc_artifacts_recomputed == k_edits);
  check("no corrupt blobs on the happy path",
        incr->stats().checkpoint_corrupt == 0);

  // --- delta eval across revisions -------------------------------------------
  // Sweep revision 0 with the group tier populated, then revision 1:
  // its sweep key moved (the benchmark changed), so every cell misses —
  // but groups whose content and retrieval hits are untouched restore
  // their tallies, and only the perturbed remainder re-answers.
  const auto all_models0 = rev0->student_ptrs();
  const auto all_specs0 = rev0->student_specs();
  const std::vector<const llm::LanguageModel*> models0(
      all_models0.begin(), all_models0.begin() + sweep_models);
  const std::vector<llm::ModelSpec> specs0(
      all_specs0.begin(), all_specs0.begin() + sweep_models);
  const auto conditions = eval::all_conditions();

  const auto records0 = capped(rev0->benchmark(), record_cap);
  const auto groups0 = core::record_groups(*rev0, records0);
  {
    const core::EvalCellCache cache(
        cache_dir.path.string(), core::EvalCellCache::sweep_key(*rev0, records0),
        core::EvalCellCache::group_base_key(*rev0));
    eval::HarnessConfig hc;
    hc.pool = &bench::shared_sweep_pool();
    hc.cell_cache = &cache;
    hc.groups = &groups0;
    const eval::EvalHarness harness(rev0->rag(), hc);
    harness.sweep(models0, specs0, records0, conditions);
  }

  const auto all_models1 = incr->student_ptrs();
  const auto all_specs1 = incr->student_specs();
  const std::vector<const llm::LanguageModel*> models1(
      all_models1.begin(), all_models1.begin() + sweep_models);
  const std::vector<llm::ModelSpec> specs1(
      all_specs1.begin(), all_specs1.begin() + sweep_models);
  const auto records1 = capped(incr->benchmark(), record_cap);
  const auto groups1 = core::record_groups(*incr, records1);

  eval::HarnessConfig plain_hc;
  plain_hc.pool = &bench::shared_sweep_pool();
  const eval::EvalHarness plain(incr->rag(), plain_hc);
  const eval::SweepResult plain_sweep =
      plain.sweep(models1, specs1, records1, conditions);

  eval::SweepStats delta_stats;
  {
    const core::EvalCellCache cache(
        cache_dir.path.string(), core::EvalCellCache::sweep_key(*incr, records1),
        core::EvalCellCache::group_base_key(*incr));
    eval::HarnessConfig hc;
    hc.pool = &bench::shared_sweep_pool();
    hc.cell_cache = &cache;
    hc.groups = &groups1;
    const eval::EvalHarness harness(incr->rag(), hc);
    const eval::SweepResult delta =
        harness.sweep(models1, specs1, records1, conditions, &delta_stats);
    check("delta sweep bitwise-identical to plain sweep",
          sweeps_equal(delta, plain_sweep));
  }
  const std::size_t full_evals =
      models1.size() * conditions.size() * records1.size();
  std::printf("delta eval: %zu groups restored, %zu computed; %zu of %zu "
              "(cell, record) evaluations executed\n\n",
              delta_stats.groups_restored, delta_stats.groups_computed,
              delta_stats.records_evaluated, full_evals);
  check("unchanged groups restored from the previous revision",
        delta_stats.groups_restored > 0);
  check("delta sweep answered fewer records than a full sweep",
        delta_stats.records_evaluated < full_evals);

  // --- prune: drop the stranded revision-0 blobs -----------------------------
  const core::ArtifactCache cache(cache_dir.path.string());
  const std::uint64_t manifest_key =
      core::derive_manifest_key(edited, incr->embedder().dim());
  const auto manifest_blob = cache.load("manifest", manifest_key);
  check("manifest present for the current revision",
        manifest_blob.has_value());
  core::PruneReport prune;
  if (manifest_blob.has_value()) {
    const core::ManifestArtifact manifest =
        core::deserialize_manifest(*manifest_blob);
    prune = core::prune_cache(cache_dir.path.string(), manifest, manifest_key);
    std::printf("prune: scanned %zu, kept %zu, removed %zu (%ju bytes)\n",
                prune.scanned, prune.kept, prune.removed,
                static_cast<std::uintmax_t>(prune.removed_bytes));
    check("prune removed the stranded previous-revision blobs",
          prune.removed > 0);
    const PipelineContext warm(edited);
    check("post-prune warm run restores all N documents",
          warm.stats().doc_artifacts_recomputed == 0 &&
              warm.stats().doc_artifacts_restored == n &&
              artifact_digest(warm) == reference);
  }

  if (!bench::smoke()) {
    check("incremental rebuild >= 10x faster than cold (wall clock)",
          speedup >= 10.0);

    json::Value report = json::Value::object();
    report["bench"] = "incremental";
    bench::add_kernel_metadata(report);
    report["scale"] = scale;
    report["documents"] = n;
    report["edited_docs"] = k_edits;
    report["cold_seconds"] = cold_seconds;
    report["incremental_seconds"] = incr_seconds;
    report["speedup"] = speedup;
    report["doc_artifacts_restored"] = incr->stats().doc_artifacts_restored;
    report["doc_artifacts_recomputed"] =
        incr->stats().doc_artifacts_recomputed;
    report["checkpoint_corrupt"] = incr->stats().checkpoint_corrupt;
    report["delta_groups_restored"] = delta_stats.groups_restored;
    report["delta_groups_computed"] = delta_stats.groups_computed;
    report["delta_records_evaluated"] = delta_stats.records_evaluated;
    report["full_sweep_records"] = full_evals;
    report["prune_removed"] = prune.removed;
    report["prune_removed_bytes"] =
        static_cast<std::size_t>(prune.removed_bytes);
    std::ofstream out("BENCH_incremental.json");
    out << report.dump(2) << "\n";
    std::printf("\nwrote BENCH_incremental.json\n");
  }

  std::printf("\n%s\n", g_all_pass ? "ALL CHECKS PASSED" : "FAILURES");
  return g_all_pass ? 0 : 1;
}
