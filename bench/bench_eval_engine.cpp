// Memoized cell-parallel evaluation engine benchmark.
//
// Shape checks (smoke and full):
//   * the shared-plan grid sweep is fieldwise-identical to the naive
//     per-cell sweep (serial double loop over evaluate(), the seed
//     semantics),
//   * store queries drop >= 4x versus the per-cell path (retrieval is
//     computed once per condition and shared by all 8 models),
//   * the sweep is identical at 1/2/8 worker threads,
//   * a cache-backed sweep equals the uncached one, restores every
//     cell on the second run, and the warm re-sweep is >= 5x faster
//     than the cold one (wall clock).
//
// Writes BENCH_eval.json with the retrieval and task-preparation
// accounting and the cold/warm timings (smoke and full).
//
// --paper-scale (outside the smoke lane; about 20 s and 1.2 GiB) builds
// the paper's corpus (scale 1.0) on 4 threads and times the cold build
// and the full frozen-8 x 5 grid, then each retrieval condition's plan
// fill alone.  It prints wall times, peak RSS and the rows the
// certified flat scan reranked per query (counted by the scan itself),
// writes BENCH_eval_paper.json, and checks the sweep digest of the
// first 1/64 of the benchmark against the value pinned before the scan
// had an int8 first pass.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "../tests/artifact_digest.hpp"
#include "bench_common.hpp"
#include "core/eval_cache.hpp"
#include "core/pipeline.hpp"
#include "index/vector_index.hpp"
#include "json/json.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace mcqa;

bool g_all_pass = true;

void check(const char* name, bool pass) {
  std::printf("shape check: %-58s %s\n", name, pass ? "PASS" : "FAIL");
  g_all_pass = g_all_pass && pass;
}

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("mcqa-bench-eval-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The seed harness semantics: a serial double loop over evaluate(),
/// one cell at a time (retrieval re-done per cell).
eval::SweepResult naive_sweep(const core::PipelineContext& ctx,
                              const std::vector<qgen::McqRecord>& records,
                              parallel::ThreadPool& pool) {
  eval::HarnessConfig hc;
  hc.pool = &pool;
  const eval::EvalHarness harness(ctx.rag(), hc);
  const auto models = ctx.student_ptrs();
  const auto specs = ctx.student_specs();
  eval::SweepResult out;
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (const rag::Condition c : eval::all_conditions()) {
      eval::CellResult cell;
      cell.model = std::string(models[m]->name());
      cell.condition = c;
      cell.accuracy = harness.evaluate(*models[m], specs[m], records, c);
      out.cells.push_back(std::move(cell));
    }
  }
  return out;
}

eval::SweepResult grid_sweep(const core::PipelineContext& ctx,
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

/// Peak resident set of this process (VmHWM), in MiB; 0 if unreadable.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Per flat-scan query since `from`: rows scanned and rows the
/// certified scan reranked with dot_fp16.
struct ScanLoad {
  double rows = 0.0;
  double reranked = 0.0;
};

ScanLoad scan_load_since(const index::FlatScanCounts& from) {
  const index::FlatScanCounts to = index::flat_scan_counts();
  const double queries = static_cast<double>(to.queries - from.queries);
  if (queries == 0.0) return {};
  return {static_cast<double>(to.rows - from.rows) / queries,
          static_cast<double>(to.reranked - from.reranked) / queries};
}

int run_paper_scale() {
  constexpr std::size_t kThreads = 4;
  // sweep_digest of the first ceil(n / 64) benchmark records at scale
  // 1.0, frozen-8 x 5 conditions, pinned with the full fp16 scan.
  constexpr std::uint64_t kSliceDigest = 0x92b856f26e12d663ULL;

  core::PipelineConfig config = core::PipelineConfig::paper_scale(1.0);
  config.threads = kThreads;
  const auto t_build = std::chrono::steady_clock::now();
  const core::PipelineContext ctx(config);
  const double build_seconds = seconds_since(t_build);
  const std::vector<qgen::McqRecord>& records = ctx.benchmark();
  std::printf("Paper scale: %zu docs, %zu chunks, %zu benchmark records, "
              "%zu threads\n", ctx.stats().documents, ctx.stats().chunks,
              records.size(), kThreads);
  std::printf("cold build %.2f s\n", build_seconds);

  parallel::ThreadPool pool(kThreads);
  const index::FlatScanCounts grid_from = index::flat_scan_counts();
  eval::SweepStats stats;
  const auto t_grid = std::chrono::steady_clock::now();
  grid_sweep(ctx, records, pool, nullptr, &stats);
  const double grid_seconds = seconds_since(t_grid);
  const ScanLoad grid_load = scan_load_since(grid_from);
  std::printf("frozen-8 x 5 grid %.2f s (%zu of %zu tasks prepared), "
              "%.1f of %.0f rows reranked per flat query\n",
              grid_seconds, stats.tasks_prepared, stats.records_evaluated,
              grid_load.reranked, grid_load.rows);

  // Each retrieval condition's plan fill on its own: the grid's tiled
  // store scans, in blocks of 8 tiles across the pool.
  json::Array fills;
  for (const rag::Condition c : eval::all_conditions()) {
    rag::RetrievalPlan plan = ctx.rag().make_plan(records, c);
    if (!plan.active) continue;
    constexpr std::size_t kBlock = 8 * index::kernels::kTileQ;
    const std::size_t blocks = (records.size() + kBlock - 1) / kBlock;
    const index::FlatScanCounts from = index::flat_scan_counts();
    const auto t_fill = std::chrono::steady_clock::now();
    parallel::parallel_for(
        pool, 0, blocks,
        [&](std::size_t b) {
          ctx.rag().fill_plan(plan, records, b * kBlock,
                              std::min(records.size(), (b + 1) * kBlock));
        },
        /*grain=*/1);
    const double fill_seconds = seconds_since(t_fill);
    const ScanLoad load = scan_load_since(from);
    std::printf("  fill %-12s %6.2f s, %.1f of %.0f rows reranked per "
                "query\n",
                std::string(rag::condition_name(c)).c_str(), fill_seconds,
                load.reranked, load.rows);
    json::Value entry = json::Value::object();
    entry["condition"] = rag::condition_name(c);
    entry["rows"] = load.rows;
    entry["fill_seconds"] = fill_seconds;
    entry["reranked_per_query"] = load.reranked;
    fills.push_back(std::move(entry));
  }

  const std::vector<qgen::McqRecord> slice(
      records.begin(),
      records.begin() + static_cast<std::ptrdiff_t>((records.size() + 63) / 64));
  const std::uint64_t digest = test::sweep_digest(grid_sweep(ctx, slice, pool));
  const double rss = peak_rss_mib();
  std::printf("peak RSS %.0f MiB\n", rss);
  std::printf("slice sweep digest %016llx (%zu records)\n",
              static_cast<unsigned long long>(digest), slice.size());
  check("1/64 slice sweep digest == the full fp16 scan's",
        digest == kSliceDigest);

  json::Value report = json::Value::object();
  report["bench"] = "eval_engine_paper_scale";
  bench::add_kernel_metadata(report);
  report["threads"] = kThreads;
  report["records"] = records.size();
  report["build_seconds"] = build_seconds;
  report["grid_seconds"] = grid_seconds;
  report["grid_reranked_per_query"] = grid_load.reranked;
  report["tasks_prepared"] = stats.tasks_prepared;
  report["records_evaluated"] = stats.records_evaluated;
  report["fills"] = json::Value(std::move(fills));
  report["peak_rss_mib"] = rss;
  report["slice_digest_ok"] = digest == kSliceDigest;
  std::ofstream out("BENCH_eval_paper.json");
  out << report.dump(2) << "\n";
  std::printf("\nwrote BENCH_eval_paper.json\n");
  std::printf("%s\n", g_all_pass ? "ALL CHECKS PASSED" : "FAILURES");
  return g_all_pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--paper-scale") == 0) return run_paper_scale();
  }
  mcqa::bench::parse_args(argc, argv);
  const core::PipelineContext& ctx = bench::shared_context();
  const std::vector<qgen::McqRecord> records =
      bench::smoke_subset(ctx.benchmark());

  std::printf("Evaluation engine (%zu records x 8 models x 5 conditions)\n\n",
              records.size());

  // --- shared-plan grid vs naive per-cell sweep ------------------------------
  parallel::ThreadPool pool(0);
  const auto t_naive = std::chrono::steady_clock::now();
  const eval::SweepResult naive = naive_sweep(ctx, records, pool);
  const double naive_seconds = seconds_since(t_naive);

  eval::SweepStats stats;
  const auto t_grid = std::chrono::steady_clock::now();
  const eval::SweepResult grid = grid_sweep(ctx, records, pool, nullptr,
                                            &stats);
  const double grid_seconds = seconds_since(t_grid);
  check("shared-plan grid sweep == naive per-cell sweep",
        sweeps_equal(grid, naive));

  const double query_drop =
      stats.retrieval_queries > 0
          ? static_cast<double>(stats.naive_retrieval_queries) /
                static_cast<double>(stats.retrieval_queries)
          : 0.0;
  std::printf(
      "\nretrieval queries: %zu shared-plan vs %zu per-cell (%.1fx fewer)\n"
      "tasks prepared: %zu, one per distinct context cut, vs %zu per-cell\n"
      "grid sweep %.3fs vs naive %.3fs\n\n",
      stats.retrieval_queries, stats.naive_retrieval_queries, query_drop,
      stats.tasks_prepared, stats.records_evaluated, grid_seconds,
      naive_seconds);
  check("retrieval queries drop >= 4x (plan shared by 8 models)",
        query_drop >= 4.0);

  // --- thread-count invariance -----------------------------------------------
  bool thread_identical = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    parallel::ThreadPool small(threads);
    thread_identical = thread_identical &&
                       sweeps_equal(grid_sweep(ctx, records, small), grid);
  }
  check("sweep identical at 1/2/8 worker threads", thread_identical);

  // --- eval-cell cache: identity, full restore, warm speedup -----------------
  const TempDir cache_dir;
  const core::EvalCellCache cache(
      cache_dir.path.string(), core::EvalCellCache::sweep_key(ctx, records),
      core::EvalCellCache::group_base_key(ctx));
  eval::SweepStats cold_stats;
  const auto t_cold = std::chrono::steady_clock::now();
  const eval::SweepResult cold = grid_sweep(ctx, records, pool, &cache,
                                            &cold_stats);
  const double cold_seconds = seconds_since(t_cold);

  eval::SweepStats warm_stats;
  const auto t_warm = std::chrono::steady_clock::now();
  const eval::SweepResult warm = grid_sweep(ctx, records, pool, &cache,
                                            &warm_stats);
  const double warm_seconds = seconds_since(t_warm);
  const double warm_speedup =
      warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0;

  check("cache-backed sweep == uncached sweep (cold and warm)",
        sweeps_equal(cold, grid) && sweeps_equal(warm, grid));
  check("cold run computed every cell, warm run restored every cell",
        cold_stats.cells_restored == 0 &&
            cold_stats.cells_computed == grid.cells.size() &&
            warm_stats.cells_restored == grid.cells.size() &&
            warm_stats.cells_computed == 0 &&
            warm_stats.retrieval_queries == 0);
  std::printf("\nwarm re-sweep: %.4fs vs %.4fs cold (%.1fx)\n\n",
              warm_seconds, cold_seconds, warm_speedup);
  check("warm-cache re-sweep >= 5x faster (wall clock)", warm_speedup >= 5.0);

  json::Value report = json::Value::object();
  report["bench"] = "eval_engine";
  bench::add_kernel_metadata(report);
  report["smoke"] = bench::smoke();
  report["records"] = records.size();
  report["models"] = ctx.students().size();
  report["conditions"] = eval::all_conditions().size();
  report["retrieval_queries"] = stats.retrieval_queries;
  report["naive_retrieval_queries"] = stats.naive_retrieval_queries;
  report["retrieval_query_drop"] = query_drop;
  report["tasks_prepared"] = stats.tasks_prepared;
  report["naive_tasks_prepared"] = stats.records_evaluated;
  report["naive_sweep_seconds"] = naive_seconds;
  report["grid_sweep_seconds"] = grid_seconds;
  report["cold_sweep_seconds"] = cold_seconds;
  report["warm_sweep_seconds"] = warm_seconds;
  report["warm_speedup"] = warm_speedup;
  report["cells_restored_warm"] = warm_stats.cells_restored;

  std::ofstream out("BENCH_eval.json");
  out << report.dump(2) << "\n";
  std::printf("\nwrote BENCH_eval.json\n");
  std::printf("%s\n", g_all_pass ? "ALL CHECKS PASSED" : "FAILURES");
  return g_all_pass ? 0 : 1;
}
