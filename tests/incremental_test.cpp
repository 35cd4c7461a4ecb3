// Incremental build + delta-eval contract (DESIGN.md §17):
//
//  * editing K of N documents yields artifacts byte-identical to a cold
//    rebuild, at any thread count, while restoring exactly the N-K
//    untouched per-document artifacts and recomputing exactly K;
//  * corrupt per-document blobs are recomputed silently (and counted);
//  * prune_cache keeps the current manifest's blobs reachable — a warm
//    run after pruning restores everything;
//  * a sweep with groups and a cache (the delta eval) is bitwise-equal
//    to the same sweep without them, across chained revisions sharing
//    one cache directory, and restores unchanged groups instead of
//    re-answering them.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "artifact_digest.hpp"
#include "core/checkpoint.hpp"
#include "core/eval_cache.hpp"
#include "core/pipeline.hpp"
#include "corpus/corpus_builder.hpp"
#include "corpus/knowledge_base.hpp"
#include "eval/harness.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace mcqa;
using core::PipelineConfig;
using core::PipelineContext;
using test::artifact_digest;

constexpr double kTestScale = 0.008;
constexpr std::size_t kEdits = 7;

PipelineConfig test_config(std::size_t threads,
                           std::string checkpoint_dir = {}) {
  PipelineConfig cfg = PipelineConfig::paper_scale(kTestScale);
  cfg.threads = threads;
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

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("mcqa-incr-test-" + std::to_string(::getpid()) + "-" +
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

void copy_dir(const std::filesystem::path& from,
              const std::filesystem::path& to) {
  std::filesystem::copy(from, to,
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing);
}

// --- edit-K-of-N byte identity + restore accounting --------------------------

TEST(IncrementalBuild, EditKOfNMatchesColdAtAnyThreadCount) {
  const TempDir dir;
  const PipelineContext cold(test_config(2, dir.path.string()));
  const std::size_t n = cold.stats().documents;
  ASSERT_GT(n, kEdits);
  EXPECT_EQ(cold.stats().doc_artifacts_restored, 0u);
  EXPECT_EQ(cold.stats().doc_artifacts_recomputed, n);

  // The ground truth for the edited corpus: a from-scratch build with
  // no cache at all.
  const auto edited = edited_config(test_config(2), kEdits, 1);
  const std::uint64_t reference = artifact_digest(PipelineContext(edited));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    // Each thread count gets its own copy of the cold cache so the
    // restore counters stay exact (a shared directory would warm up).
    const TempDir copy;
    copy_dir(dir.path, copy.path);
    auto cfg = edited_config(test_config(threads, copy.path.string()),
                             kEdits, 1);
    const PipelineContext incr(cfg);
    EXPECT_EQ(artifact_digest(incr), reference)
        << "incremental build diverged at " << threads << " threads";
    EXPECT_EQ(incr.stats().doc_artifacts_restored, n - kEdits);
    EXPECT_EQ(incr.stats().doc_artifacts_recomputed, kEdits);
    EXPECT_EQ(incr.stats().checkpoint_corrupt, 0u);
  }
}

TEST(IncrementalBuild, NoEditWarmRunRestoresEverything) {
  const TempDir dir;
  const auto cfg = test_config(2, dir.path.string());
  const PipelineContext cold(cfg);
  const PipelineContext warm(cfg);
  EXPECT_EQ(warm.stats().doc_artifacts_restored, cold.stats().documents);
  EXPECT_EQ(warm.stats().doc_artifacts_recomputed, 0u);
  EXPECT_EQ(warm.stats().checkpoint_misses, 0u);
  EXPECT_EQ(artifact_digest(warm), artifact_digest(cold));
}

TEST(IncrementalBuild, IvfPqDeltaStaysExactUnderFrozenCodebooks) {
  // With an IVF-PQ index, the K-edit rebuild re-encodes against the
  // previous revision's codebooks (changed fraction << threshold).
  // Query results must stay exact — artifact byte identity of the
  // benchmark/traces plus search identity is asserted by comparing to
  // the no-cache rebuild, whose stores retrained from scratch.
  const TempDir dir;
  auto base = test_config(2, dir.path.string());
  base.index_kind = index::IndexKind::kIvfPq;
  const PipelineContext cold(base);
  const std::size_t n = cold.stats().documents;

  auto edited = edited_config(base, kEdits, 1);
  const PipelineContext incr(edited);
  EXPECT_EQ(incr.stats().doc_artifacts_restored, n - kEdits);
  EXPECT_EQ(incr.stats().doc_artifacts_recomputed, kEdits);

  auto fresh = edited;
  fresh.checkpoint_dir.clear();
  const PipelineContext cold2(fresh);

  // Record/trace artifacts are byte-identical; the stores answer
  // identically (exact-rerank contract) even though their saved bytes
  // may differ under frozen codebooks.
  core::BenchmarkArtifact a{incr.benchmark(), incr.stats().funnel};
  core::BenchmarkArtifact b{cold2.benchmark(), cold2.stats().funnel};
  EXPECT_EQ(core::serialize_benchmark(a), core::serialize_benchmark(b));
  const std::string& probe = incr.chunk_store().text_of(0);
  const auto got = incr.chunk_store().query(probe, 5);
  const auto want = cold2.chunk_store().query(probe, 5);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_FLOAT_EQ(got[i].score, want[i].score);
  }
}

TEST(IncrementalBuild, CorruptDocartRecomputesSilently) {
  const TempDir dir;
  const auto cfg = test_config(2, dir.path.string());
  const PipelineContext cold(cfg);
  const std::uint64_t reference = artifact_digest(cold);

  // Truncate a handful of per-document blobs.
  std::size_t corrupted = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    if (entry.path().filename().string().rfind("docart-", 0) != 0) continue;
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << "ckdoc1\n";
    if (++corrupted == 3) break;
  }
  ASSERT_EQ(corrupted, 3u);

  const PipelineContext warm(cfg);
  EXPECT_EQ(artifact_digest(warm), reference);
  EXPECT_GE(warm.stats().checkpoint_corrupt, 3u);
  EXPECT_EQ(warm.stats().doc_artifacts_recomputed, 3u);
  EXPECT_EQ(warm.stats().doc_artifacts_restored,
            cold.stats().documents - 3u);
}

// --- per-document keys -------------------------------------------------------

TEST(IncrementalKeys, DocKeysChangeOnlyForEditedDocs) {
  const auto base = test_config(1);
  const auto edited = edited_config(base, kEdits, 1);
  const corpus::KnowledgeBase kb = corpus::KnowledgeBase::generate(base.kb);
  const corpus::SyntheticCorpus c0 = corpus::build_corpus(kb, base.corpus);
  const corpus::SyntheticCorpus c1 = corpus::build_corpus(kb, edited.corpus);
  ASSERT_EQ(c0.documents.size(), c1.documents.size());

  const auto k0 = core::derive_doc_keys(base, c0, 256);
  const auto k1 = core::derive_doc_keys(edited, c1, 256);
  const auto changed =
      corpus::edited_doc_indexes(edited.corpus, c1.documents.size());
  ASSERT_EQ(changed.size(), kEdits);

  std::size_t diff = 0;
  for (std::size_t i = 0; i < k0.size(); ++i) {
    if (k0[i] != k1[i]) ++diff;
  }
  EXPECT_EQ(diff, kEdits);
  for (const std::size_t i : changed) EXPECT_NE(k0[i], k1[i]);

  // Revisions of the same family share a manifest slot; a config
  // change does not.
  EXPECT_EQ(core::derive_manifest_key(base, 256),
            core::derive_manifest_key(edited, 256));
  auto other = base;
  other.chunker.target_words += 10;
  EXPECT_NE(core::derive_manifest_key(base, 256),
            core::derive_manifest_key(other, 256));
}

// --- prune -------------------------------------------------------------------

TEST(IncrementalCache, PruneDropsStaleRevisionsKeepsCurrent) {
  const TempDir dir;
  const auto base = test_config(2, dir.path.string());
  const PipelineContext cold(base);

  // Revision 1 leaves revision 0's edited-doc artifacts and store
  // blobs stranded in the directory.
  const auto edited = edited_config(base, kEdits, 1);
  const PipelineContext incr(edited);

  const core::ArtifactCache cache(dir.path.string());
  const std::uint64_t manifest_key =
      core::derive_manifest_key(edited, incr.embedder().dim());
  const auto blob = cache.load("manifest", manifest_key);
  ASSERT_TRUE(blob.has_value());
  const core::ManifestArtifact manifest = core::deserialize_manifest(*blob);
  ASSERT_EQ(manifest.doc_keys.size(), incr.stats().documents);

  const core::PruneReport report =
      core::prune_cache(dir.path.string(), manifest, manifest_key);
  EXPECT_GT(report.removed, 0u);  // the stranded revision-0 blobs
  EXPECT_GT(report.kept, 0u);

  // Everything the pruned cache kept is sufficient for a full restore.
  const PipelineContext warm(edited);
  EXPECT_EQ(warm.stats().doc_artifacts_recomputed, 0u);
  EXPECT_EQ(warm.stats().doc_artifacts_restored, incr.stats().documents);
  EXPECT_EQ(artifact_digest(warm), artifact_digest(incr));

  // Pruning is deterministic: a second sweep finds nothing to remove.
  const core::PruneReport again =
      core::prune_cache(dir.path.string(), manifest, manifest_key);
  EXPECT_EQ(again.removed, 0u);
}

// --- delta eval --------------------------------------------------------------

bool sweeps_equal(const eval::SweepResult& a, const eval::SweepResult& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    if (a.cells[i].model != b.cells[i].model) return false;
    if (a.cells[i].condition != b.cells[i].condition) return false;
    if (a.cells[i].accuracy.correct != b.cells[i].accuracy.correct)
      return false;
    if (a.cells[i].accuracy.total != b.cells[i].accuracy.total) return false;
    if (a.cells[i].accuracy.unparseable != b.cells[i].accuracy.unparseable)
      return false;
  }
  return true;
}

TEST(IncrementalEval, GroupedSweepMatchesPlainAndRestoresGroups) {
  const PipelineContext ctx(test_config(2));
  const auto& records = ctx.benchmark();
  ASSERT_FALSE(records.empty());

  // Two models keep the grid small; all five conditions.
  const auto all_models = ctx.student_ptrs();
  const auto all_specs = ctx.student_specs();
  const std::vector<const llm::LanguageModel*> models(all_models.begin(),
                                                      all_models.begin() + 2);
  const std::vector<llm::ModelSpec> specs(all_specs.begin(),
                                          all_specs.begin() + 2);
  const auto conditions = eval::all_conditions();

  parallel::ThreadPool pool(2);
  const eval::EvalHarness plain(ctx.rag(), {.pool = &pool});
  const eval::SweepResult reference =
      plain.sweep(models, specs, records, conditions);

  const std::vector<eval::RecordGroup> groups =
      core::record_groups(ctx, records);
  ASSERT_GT(groups.size(), 1u);

  const TempDir dir;
  const std::uint64_t sweep_key = core::EvalCellCache::sweep_key(ctx, records);
  const std::uint64_t group_base = core::EvalCellCache::group_base_key(ctx);

  // Cold grouped sweep: every group computed, result identical.
  {
    const core::EvalCellCache cache(dir.path.string(), sweep_key, group_base);
    eval::HarnessConfig hc;
    hc.pool = &pool;
    hc.cell_cache = &cache;
    hc.groups = &groups;
    const eval::EvalHarness harness(ctx.rag(), hc);
    eval::SweepStats stats;
    const auto cold = harness.sweep(models, specs, records, conditions, &stats);
    EXPECT_TRUE(sweeps_equal(cold, reference));
    EXPECT_EQ(stats.groups_restored, 0u);
    EXPECT_EQ(stats.groups_computed,
              groups.size() * models.size() * conditions.size());
    EXPECT_EQ(stats.records_evaluated,
              records.size() * models.size() * conditions.size());
  }

  // A different sweep key (e.g. the swept subset changed) misses every
  // cell, but the group tier — keyed by content+hits, not by the sweep
  // — restores everything: zero records re-answered.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    // A distinct sweep key per run: completed cells from the previous
    // iteration must not short-circuit the group tier under test.
    const core::EvalCellCache cache(dir.path.string(),
                                    sweep_key ^ (0x5a5au + threads),
                                    group_base);
    parallel::ThreadPool sized(threads);
    eval::HarnessConfig hc;
    hc.pool = &sized;
    hc.cell_cache = &cache;
    hc.groups = &groups;
    const eval::EvalHarness harness(ctx.rag(), hc);
    eval::SweepStats stats;
    const auto warm = harness.sweep(models, specs, records, conditions, &stats);
    EXPECT_TRUE(sweeps_equal(warm, reference))
        << "grouped sweep diverged at " << threads << " threads";
    EXPECT_EQ(stats.cells_restored, 0u);
    EXPECT_EQ(stats.groups_computed, 0u);
    EXPECT_EQ(stats.records_evaluated, 0u);
    EXPECT_EQ(stats.groups_restored,
              groups.size() * models.size() * conditions.size());
  }
}

TEST(IncrementalEval, GroupedSweepMatchesUncachedAcrossChainedRevisions) {
  // Revision 0 is the unedited corpus; revisions 1 and 2 each edit
  // kEdits documents, so each one's benchmark (and sweep key) moves.
  const PipelineConfig base = test_config(2);
  std::vector<std::unique_ptr<PipelineContext>> revs;
  revs.push_back(std::make_unique<PipelineContext>(base));
  for (const std::uint64_t revision : {1u, 2u}) {
    revs.push_back(std::make_unique<PipelineContext>(
        edited_config(base, kEdits, revision)));
  }
  const auto conditions = eval::all_conditions();
  const auto two = [](const auto& all) {
    return std::vector(all.begin(), all.begin() + 2);
  };

  // The uncached sweep of each revision: no groups, no cache.
  parallel::ThreadPool ref_pool(2);
  std::vector<eval::SweepResult> uncached;
  for (const auto& ctx : revs) {
    uncached.push_back(eval::EvalHarness(ctx->rag(), {.pool = &ref_pool})
                           .sweep(two(ctx->student_ptrs()),
                                  two(ctx->student_specs()), ctx->benchmark(),
                                  conditions));
  }

  for (const std::size_t threads : {1u, 8u}) {
    parallel::ThreadPool pool(threads);
    const TempDir dir;  // one cache directory for the whole chain
    for (std::size_t r = 0; r < revs.size(); ++r) {
      const PipelineContext& ctx = *revs[r];
      const auto& records = ctx.benchmark();
      const auto groups = core::record_groups(ctx, records);
      const core::EvalCellCache cache(
          dir.path.string(), core::EvalCellCache::sweep_key(ctx, records),
          core::EvalCellCache::group_base_key(ctx));
      eval::HarnessConfig hc;
      hc.pool = &pool;
      hc.cell_cache = &cache;
      hc.groups = &groups;
      eval::SweepStats stats;
      const auto grouped = eval::EvalHarness(ctx.rag(), hc).sweep(
          two(ctx.student_ptrs()), two(ctx.student_specs()), records,
          conditions, &stats);
      EXPECT_TRUE(sweeps_equal(grouped, uncached[r]))
          << "revision " << r << " at " << threads << " threads";
      EXPECT_EQ(stats.cells_restored, 0u) << "revision " << r;
      const std::size_t full = records.size() * 2 * conditions.size();
      if (r == 0) {
        EXPECT_EQ(stats.groups_restored, 0u);
        EXPECT_EQ(stats.records_evaluated, full);
      } else {
        EXPECT_GT(stats.groups_restored, 0u) << "revision " << r;
        EXPECT_LT(stats.records_evaluated, full) << "revision " << r;
      }
    }
  }
}

TEST(IncrementalEval, GroupsPartitionTheRecordSet) {
  const PipelineContext ctx(test_config(2));
  const auto& records = ctx.benchmark();
  const auto groups = core::record_groups(ctx, records);
  std::vector<char> seen(records.size(), 0);
  for (const auto& g : groups) {
    EXPECT_NE(g.content_fp, 0u);
    for (const std::size_t i : g.indexes) {
      ASSERT_LT(i, records.size());
      EXPECT_EQ(seen[i], 0);
      seen[i] = 1;
    }
  }
  for (const char s : seen) EXPECT_EQ(s, 1);

  // Exam records are not part of the chunk table: singleton groups.
  const auto exam_groups = core::record_groups(ctx, ctx.exam_all());
  EXPECT_EQ(exam_groups.size(), ctx.exam_all().size());
}

}  // namespace
