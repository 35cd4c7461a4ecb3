#pragma once
// Shared plumbing for the repository benchmark: options, seed
// derivation, the run report, timing helpers and the traced build
// replay every workload's traced run starts with.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "json/json.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace mcqa;

/// Every workload runs the pipeline at this corpus scale (2255 docs at
/// the default seeds) on a pool of this many threads.
inline constexpr double kScale = 0.1;
inline constexpr std::size_t kThreads = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path (traced runs)
  std::string work_dir;   ///< scratch directory for checkpoint caches
  /// Which of a run's processes this is (run.py splits an untraced run
  /// over several); selects the edit sets and the cross-checked cell.
  std::uint64_t part = 0;
  std::string git_sha;
  std::string source_digest;
};

/// Every input a workload draws at random derives from the one seed.
struct Seeds {
  std::uint64_t corpus = 0;    ///< CorpusConfig::seed
  std::uint64_t edit = 0;      ///< CorpusEdits::seed (which docs edit_cycle edits)
  std::uint64_t revision = 0;  ///< first CorpusEdits::revision of edit_cycle
  std::uint64_t requests = 0;  ///< serve::WorkloadConfig::seed
  std::uint64_t writer = 0;    ///< serve_mixed writer's upsert order
};
Seeds derive_seeds(std::uint64_t seed);

/// The pipeline configuration every workload builds: scale kScale,
/// kThreads threads, no checkpoint directory, seeded corpus.
core::PipelineConfig workload_config(const Seeds& seeds);

/// One digest over every build artifact, via the checkpoint serializers
/// (parsed docs, chunks, the four stores, the benchmark, the traces).
std::uint64_t artifact_digest(const core::PipelineContext& ctx);

/// Nearest-rank quantile (q in [0,1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Call `op` back to back until `seconds` of wall time have passed (at
/// least once); `op` returns the ms it measured for itself (its
/// untimed checks and teardown count toward the run, not the sample).
std::vector<double> run_for(double seconds, const std::function<double()>& op);

/// Wall seconds `f` takes.
double time_s(const std::function<void()>& f);

/// Per-layer metrics of a traced run.  Every workload reports every
/// field (the key set is fixed by BENCHMARK.json); a layer the workload
/// does not call reports 0 calls and a 0 share.
struct PerLayer {
  // The traced build: a replay of PipelineContext's cold build through
  // the per-item public calls (build_cold's operation, the other
  // workloads' set-up).
  double corpus_wall_s = 0, corpus_docs = 0;
  double parse_busy_s = 0, parse_docs = 0, parse_escalated_frac = 0;
  double chunk_busy_s = 0, chunk_chunks = 0;
  double embed_busy_s = 0, embed_texts = 0, embed_cache_hit_frac = 0;
  double index_build_s = 0, index_rows = 0;
  double qgen_busy_s = 0, qgen_candidates = 0, qgen_accept_frac = 0;
  double trace_busy_s = 0, trace_records = 0, trace_kept_frac = 0;
  double core_build_s = 0;
  double build_sum_frac = 0;       ///< layer walls / traced build wall
  double build_overhead_frac = 0;  ///< traced / untraced build wall - 1
  // The traced operation of the workload.
  double op_traced_s = 0;
  double op_sum_frac = 0;       ///< layer walls / traced operation wall
  double op_overhead_frac = 0;  ///< traced / untraced operation wall - 1
  double parallel_util = 0;     ///< busy / (traced wall x threads)
  std::array<double, kLayerCount> op_share{};  ///< busy share per layer
  double rag_queries = 0, rag_query_drop = 0;
  double eval_cells = 0, eval_records_evaluated = 0, eval_group_restore_frac = 0;
  double ckpt_bytes_read = 0, ckpt_hits = 0, ckpt_misses = 0, ckpt_corrupt = 0;
  double docs_restored = 0, docs_recomputed = 0;
  double group_hits = 0, group_stores = 0;
  double live_epochs = 0, live_compactions = 0;
};

/// What one run reports: correctness tally, the metrics for the final
/// line, and a detail record (host stamp, samples, layer tables).
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  json::Value detail = json::Value::object();
  json::Value checks = json::Value::object();
  PerLayer layers;
  /// The Chrome export covers spans recorded before this instant (the
  /// first traced operation), keeping the file small.
  std::int64_t export_until_ns = 0;

  void check(const std::string& name, bool ok);
  /// Count operations (builds, cycles, sweeps, requests) toward attempted.
  void attempt(std::size_t n, std::size_t failures = 0);
  void metric(const std::string& name, double value, const std::string& unit);
};

/// The end-to-end metric set every workload reports (trace off):
/// setup_s, op_p50_ms, op_tail_ms, ops_per_s, peak_rss_mb.
void report_end_to_end(Report& report, double setup_s, double p50_ms,
                       double tail_ms, double ops_per_s);

/// The same from back-to-back operation times (the batch workloads).
void report_end_to_end(Report& report, double setup_s,
                       const std::vector<double>& op_ms);

/// The traced-run accounting check: replayed layer walls (phase walls)
/// sum to within 5% of the traced wall, i.e. `sum_frac` in [0.95, 1.05].
inline bool within_5_percent(double sum_frac) {
  return sum_frac >= 0.95 && sum_frac <= 1.05;
}

/// Per-layer summary of one traced window, folded into report.layers'
/// operation fields and report.detail["layers"].
void report_op_layers(Report& report, const std::vector<SpanRecord>& spans,
                      double traced_wall_s, double untraced_wall_s);

// --- traced build replay --------------------------------------------------

struct BuildReplay {
  std::uint64_t digest = 0;  ///< artifact_digest of what the replay built
  double wall_s = 0.0;
  std::int64_t t0_ns = 0;  ///< window holding the replay's spans
  std::int64_t t1_ns = 0;
};

/// Replay PipelineContext's cold build of `config` with spans around
/// every per-item call, on a fresh kThreads pool.  Fills the build fields
/// of report.layers (given the untraced build wall it is compared to)
/// and checks the replay's artifacts against `expected_digest`.
BuildReplay traced_build(const core::PipelineConfig& config,
                         std::uint64_t expected_digest,
                         double untraced_build_s, Report& report);

// --- workloads --------------------------------------------------------------

void run_build_cold(const Options& opt, Report& report);
void run_edit_cycle(const Options& opt, Report& report);
void run_eval_grid(const Options& opt, Report& report);
void run_serve_mixed(const Options& opt, Report& report);

}  // namespace perfbench
