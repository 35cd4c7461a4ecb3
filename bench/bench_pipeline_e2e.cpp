// End-to-end pipeline build benchmark: the one build path with and
// without the content-addressed checkpoint cache.
//
// Shape checks (smoke and full):
//   * checkpointed cold and warm builds are byte-identical to a
//     no-cache build (the digest over the checkpoint serializers covers
//     every artifact), with full hit/miss accounting,
//   * an edit-K incremental rebuild restores exactly N-K per-document
//     artifacts, recomputes exactly K, and matches a fresh rebuild
//     byte-for-byte.
//
// Full mode additionally:
//   * measures real cold-vs-warm wall clock for a checkpointed build
//     and requires the warm rebuild to be >= 5x faster,
//   * writes BENCH_pipeline.json with the build times, the edit-K rows
//     and the checkpoint traffic.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
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

PipelineConfig scaled_config(double scale, std::string checkpoint_dir = {}) {
  PipelineConfig cfg = PipelineConfig::paper_scale(scale);
  cfg.checkpoint_dir = std::move(checkpoint_dir);
  return cfg;
}

/// One digest over every build artifact, via the checkpoint serializers:
/// digest equality is byte equality of parsed docs, chunks, both kinds
/// of vector store, the benchmark, and all per-mode traces.
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
           ("mcqa-bench-e2e-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

void print_build(const char* label, const core::PipelineStats& s) {
  std::printf("%s: %.3fs  (checkpoint hits %zu, misses %zu)\n", label,
              s.build_seconds, s.checkpoint_hits, s.checkpoint_misses);
}

json::Value build_json(const core::PipelineStats& s) {
  json::Value v = json::Value::object();
  v["total_s"] = s.build_seconds;
  v["checkpoint_hits"] = s.checkpoint_hits;
  v["checkpoint_misses"] = s.checkpoint_misses;
  v["checkpoint_corrupt"] = s.checkpoint_corrupt;
  v["doc_artifacts_restored"] = s.doc_artifacts_restored;
  v["doc_artifacts_recomputed"] = s.doc_artifacts_recomputed;
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  mcqa::bench::parse_args(argc, argv);
  // Smoke shrinks the corpus; full mode runs the reproduction scale the
  // other benches use, so the timing rows are comparable to them.
  const double scale = bench::smoke() ? 0.008 : 0.025;

  std::printf("Pipeline executor end-to-end (scale %.3f)\n\n", scale);

  // --- byte identity: no-cache vs checkpointed cold and warm ---------------
  const auto plain = std::make_unique<PipelineContext>(scaled_config(scale));
  const std::uint64_t plain_digest = artifact_digest(*plain);
  print_build("no-cache build ", plain->stats());
  const auto plain_build = build_json(plain->stats());

  const TempDir ckpt_dir;
  const auto cold_cfg = scaled_config(scale, ckpt_dir.path.string());
  const auto cold = std::make_unique<PipelineContext>(cold_cfg);
  print_build("checkpoint cold", cold->stats());
  check("checkpointed cold build byte-identical to no-cache build",
        artifact_digest(*cold) == plain_digest);
  check("cold build saw only checkpoint misses",
        cold->stats().checkpoint_hits == 0 &&
            cold->stats().checkpoint_misses > 0);
  const double cold_seconds = cold->stats().build_seconds;
  const auto cold_build = build_json(cold->stats());

  const auto warm = std::make_unique<PipelineContext>(cold_cfg);
  print_build("checkpoint warm", warm->stats());
  check("checkpoint-restored artifacts byte-identical",
        artifact_digest(*warm) == plain_digest);
  check("warm build saw only checkpoint hits",
        warm->stats().checkpoint_hits > 0 &&
            warm->stats().checkpoint_misses == 0);
  const double warm_seconds = warm->stats().build_seconds;
  const double warm_speedup = warm_seconds > 0.0
                                  ? cold_seconds / warm_seconds
                                  : 0.0;
  const auto warm_build = build_json(warm->stats());
  std::printf("\ncheckpoint-warm rebuild: %.3fs vs %.3fs cold (%.1fx)\n\n",
              warm_seconds, cold_seconds, warm_speedup);

  // --- incremental edit-K rebuilds -------------------------------------------
  // Each row edits K documents (revision = K, so every row's edited
  // content is distinct and the restored / recomputed counters stay
  // exact even though the cache accumulates blobs across rows).  The
  // identity row also builds a fresh no-cache reference with the same
  // edits and requires byte-identical artifacts.
  const std::size_t doc_count = warm->stats().documents;
  const std::vector<std::size_t> edit_ks =
      bench::smoke() ? std::vector<std::size_t>{3}
                     : std::vector<std::size_t>{1, 10, 100};
  const std::size_t identity_k = bench::smoke() ? 3 : 10;
  eval::TableWriter edit_table(
      {"Edited K", "Seconds", "Speedup", "Restored", "Recomputed"});
  json::Array edit_rows;
  bool edit_counters_ok = true;
  bool edit_identical = false;
  for (const std::size_t k : edit_ks) {
    auto incr_cfg = cold_cfg;
    incr_cfg.corpus.edits.count = k;
    incr_cfg.corpus.edits.revision = k;
    const auto incr = std::make_unique<PipelineContext>(incr_cfg);
    const auto& st = incr->stats();
    edit_counters_ok = edit_counters_ok &&
                       st.doc_artifacts_restored == doc_count - k &&
                       st.doc_artifacts_recomputed == k &&
                       st.checkpoint_corrupt == 0;
    const double incr_seconds = st.build_seconds;
    const double incr_speedup =
        incr_seconds > 0.0 ? cold_seconds / incr_seconds : 0.0;
    if (k == identity_k) {
      auto ref_cfg = scaled_config(scale);
      ref_cfg.corpus.edits.count = k;
      ref_cfg.corpus.edits.revision = k;
      const auto ref = std::make_unique<PipelineContext>(ref_cfg);
      edit_identical = artifact_digest(*incr) == artifact_digest(*ref);
    }
    edit_table.add_row({std::to_string(k), eval::fmt_acc(incr_seconds),
                        eval::fmt_acc(incr_speedup) + "x",
                        std::to_string(st.doc_artifacts_restored),
                        std::to_string(st.doc_artifacts_recomputed)});
    json::Value row = json::Value::object();
    row["k"] = k;
    row["seconds"] = incr_seconds;
    row["speedup_vs_cold"] = incr_speedup;
    row["doc_artifacts_restored"] = st.doc_artifacts_restored;
    row["doc_artifacts_recomputed"] = st.doc_artifacts_recomputed;
    edit_rows.push_back(std::move(row));
  }
  std::printf("Incremental rebuild after editing K of %zu documents:\n\n%s\n",
              doc_count, edit_table.render().c_str());
  check("edit-K rebuilds restored N-K and recomputed K",
        edit_counters_ok);
  check("edit-K incremental byte-identical to fresh rebuild",
        edit_identical);

  if (bench::smoke()) {
    std::printf("\n%s\n", g_all_pass ? "ALL CHECKS PASSED" : "FAILURES");
    return g_all_pass ? 0 : 1;
  }

  // The warm-speedup check runs at full scale only: the warm restore
  // amortizes a fixed kb+corpus cost over a bigger build.
  check("checkpoint-warm rebuild >= 5x faster (wall clock)",
        warm_speedup >= 5.0);

  json::Value report = json::Value::object();
  report["bench"] = "pipeline_e2e";
  bench::add_kernel_metadata(report);
  report["scale"] = scale;
  report["documents"] = warm->stats().documents;
  report["chunks"] = warm->stats().chunks;
  report["questions"] = warm->benchmark().size();
  report["checkpoint_warm_speedup"] = warm_speedup;
  report["no_cache_build"] = plain_build;
  report["checkpoint_cold_build"] = cold_build;
  report["checkpoint_warm_build"] = warm_build;
  report["edit_k_rows"] = json::Value(std::move(edit_rows));
  report["artifacts_byte_identical"] =
      artifact_digest(*warm) == plain_digest;

  std::ofstream out("BENCH_pipeline.json");
  out << report.dump(2) << "\n";
  std::printf("\nwrote BENCH_pipeline.json\n");
  std::printf("%s\n", g_all_pass ? "ALL CHECKS PASSED" : "FAILURES");
  return g_all_pass ? 0 : 1;
}
