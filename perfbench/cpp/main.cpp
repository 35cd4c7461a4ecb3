// The repository benchmark's executable.  run.py builds it and runs
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--work-dir DIR] [--part I]
//             [--git-sha SHA] [--source-digest HEX]
//
// It prints one detail record (host stamp, seeds, samples, checks,
// layer tables) and then, as the last line, the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (trace 0) or every per-layer metric
// (trace 1) of BENCHMARK.json.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <string_view>
#include <thread>

#include "bench_common.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

using WorkloadFn = void (*)(const Options&, Report&);

const std::map<std::string_view, WorkloadFn>& workloads() {
  static const std::map<std::string_view, WorkloadFn> kWorkloads{
      {"build_cold", &run_build_cold},
      {"edit_cycle", &run_edit_cycle},
      {"eval_grid", &run_eval_grid},
      {"serve_mixed", &run_serve_mixed},
  };
  return kWorkloads;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "build_cold|edit_cycle|eval_grid|serve_mixed --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--work-dir DIR] "
               "[--part I] [--git-sha SHA] [--source-digest HEX]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key(argv[i]);
    if (i + 1 >= argc) usage("missing value");
    const std::string value(argv[++i]);
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && opt.seconds > 0 &&
                     opt.seconds <= 3600;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else if (key == "--git-sha") {
      opt.git_sha = value;
    } else if (key == "--source-digest") {
      opt.source_digest = value;
    } else if (key == "--part") {
      opt.part = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("--part must be an integer");
    } else {
      usage("unknown argument");
    }
  }
  if (workloads().count(opt.workload) == 0) usage("unknown --workload");
  if (!have_seed) usage("--seed must be a non-negative integer");
  if (!have_seconds) usage("--seconds must be in (0, 3600]");
  if (!have_trace) usage("--trace must be 0 or 1");
  if (opt.work_dir.empty()) opt.work_dir = ".";
  return opt;
}

/// Timings are only meaningful from an optimized, uninstrumented build.
const char* unfit_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  const std::string_view type(PERFBENCH_BUILD_TYPE);
  if (type != "Release" && type != "RelWithDebInfo") return "not an optimized build";
  return nullptr;
#endif
}

json::Value host_stamp(const Options& opt) {
  json::Value host = json::Value::object();
  cpu_set_t set;
  CPU_ZERO(&set);
  const int allowed =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  host["nproc"] = allowed;
  host["hardware_concurrency"] =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  bench::add_kernel_metadata(host);
  host["build_type"] = PERFBENCH_BUILD_TYPE;
  host["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  host["compiler"] = PERFBENCH_COMPILER;
  host["git_sha"] = opt.git_sha.empty() ? "unknown" : opt.git_sha;
  host["source_digest"] = opt.source_digest.empty() ? "unknown" : opt.source_digest;
  return host;
}

void emit_per_layer(Report& r) {
  const PerLayer& L = r.layers;
  const auto m = [&r](const char* name, double v, const char* unit) {
    r.metric(name, v, unit);
  };
  m("corpus.wall_s", L.corpus_wall_s, "s");
  m("corpus.docs", L.corpus_docs, "count");
  m("parse.busy_s", L.parse_busy_s, "s");
  m("parse.docs", L.parse_docs, "count");
  m("parse.escalated_frac", L.parse_escalated_frac, "frac");
  m("chunk.busy_s", L.chunk_busy_s, "s");
  m("chunk.chunks", L.chunk_chunks, "count");
  m("embed.busy_s", L.embed_busy_s, "s");
  m("embed.texts", L.embed_texts, "count");
  m("embed.cache_hit_frac", L.embed_cache_hit_frac, "frac");
  m("index.build_s", L.index_build_s, "s");
  m("index.rows", L.index_rows, "count");
  m("qgen.busy_s", L.qgen_busy_s, "s");
  m("qgen.candidates", L.qgen_candidates, "count");
  m("qgen.accept_frac", L.qgen_accept_frac, "frac");
  m("trace.busy_s", L.trace_busy_s, "s");
  m("trace.records", L.trace_records, "count");
  m("trace.kept_frac", L.trace_kept_frac, "frac");
  m("core.build_s", L.core_build_s, "s");
  m("spans.build_sum_frac", L.build_sum_frac, "frac");
  m("spans.build_overhead_frac", L.build_overhead_frac, "frac");
  m("op.traced_s", L.op_traced_s, "s");
  m("spans.op_sum_frac", L.op_sum_frac, "frac");
  m("spans.op_overhead_frac", L.op_overhead_frac, "frac");
  m("parallel.util", L.parallel_util, "frac");
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    r.metric(std::string(layer_name(static_cast<Layer>(l))) + ".op_share",
             L.op_share[l], "frac");
  }
  m("rag.queries", L.rag_queries, "count");
  m("rag.query_drop", L.rag_query_drop, "frac");
  m("eval.cells", L.eval_cells, "count");
  m("eval.records_evaluated", L.eval_records_evaluated, "count");
  m("eval.group_restore_frac", L.eval_group_restore_frac, "frac");
  m("core.checkpoint.bytes_read", L.ckpt_bytes_read, "bytes");
  m("core.checkpoint.hits", L.ckpt_hits, "count");
  m("core.checkpoint.misses", L.ckpt_misses, "count");
  m("core.checkpoint.corrupt", L.ckpt_corrupt, "count");
  m("core.docs_restored", L.docs_restored, "count");
  m("core.docs_recomputed", L.docs_recomputed, "count");
  m("core.eval_cache.group_hits", L.group_hits, "count");
  m("core.eval_cache.group_stores", L.group_stores, "count");
  m("serve.live.epochs", L.live_epochs, "count");
  m("serve.live.compactions", L.live_compactions, "count");
}

int run(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  if (const char* why = unfit_build()) {
    std::fprintf(stderr, "perfbench: refusing to time a %s (%s)\n", why,
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  set_tracing(opt.trace);

  Report report;
  workloads().at(opt.workload)(opt, report);
  if (opt.trace) emit_per_layer(report);

  json::Value record = json::Value::object();
  record["workload"] = opt.workload;
  record["seed"] = opt.seed;
  record["part"] = opt.part;
  const Seeds seeds = derive_seeds(opt.seed);
  json::Value derived = json::Value::object();
  derived["corpus"] = std::to_string(seeds.corpus);
  derived["edit"] = std::to_string(seeds.edit);
  derived["revision"] = std::to_string(seeds.revision);
  derived["requests"] = std::to_string(seeds.requests);
  derived["writer"] = std::to_string(seeds.writer);
  record["derived_seeds"] = std::move(derived);
  record["trace"] = opt.trace;
  record["seconds"] = opt.seconds;
  record["host"] = host_stamp(opt);
  if (opt.trace && !opt.trace_out.empty()) {
    constexpr std::size_t kMaxEvents = 100000;  // about 15 MB of JSON
    const long events = write_chrome_trace(
        opt.trace_out,
        report.export_until_ns > 0 ? report.export_until_ns : now_ns(), kMaxEvents);
    report.check("chrome trace written", events > 0);
    record["chrome_trace"] = opt.trace_out;
    record["chrome_trace_events"] = static_cast<std::int64_t>(events);
  }
  record["checks"] = report.checks;
  record["detail"] = report.detail;

  json::Value metrics = json::Value::object();
  for (const auto& [name, value] : report.metrics) {
    json::Value v = json::Value::object();
    v["value"] = value.first;
    v["unit"] = value.second;
    metrics[name] = std::move(v);
  }
  json::Value result = json::Value::object();
  result["correct"] = report.failed == 0;
  result["attempted"] = report.attempted;
  result["failed"] = report.failed;
  result["metrics"] = std::move(metrics);

  const std::string record_line = "{\"record\":" + record.dump() + "}";
  std::printf("%s\n%s\n", record_line.c_str(), result.dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
