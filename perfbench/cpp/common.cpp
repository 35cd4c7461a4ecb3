#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "core/checkpoint.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {
namespace {

std::uint64_t derive(std::uint64_t seed, std::string_view salt) {
  util::Rng rng = util::Rng(seed).fork(salt);
  const std::uint64_t hi = rng();
  return (hi << 32) | rng();
}

}  // namespace

Seeds derive_seeds(std::uint64_t seed) {
  Seeds s;
  s.corpus = derive(seed, "corpus");
  s.edit = derive(seed, "edit");
  // Revision 0 is the unedited corpus; keep clear of it and leave room
  // for one fresh revision per edit cycle.
  s.revision = (derive(seed, "revision") >> 16) + 1;
  s.requests = derive(seed, "requests");
  s.writer = derive(seed, "writer");
  return s;
}

core::PipelineConfig workload_config(const Seeds& seeds) {
  core::PipelineConfig cfg = core::PipelineConfig::paper_scale(kScale);
  cfg.checkpoint_dir.clear();  // paper_scale reads $MCQA_CHECKPOINT_DIR
  cfg.threads = kThreads;
  cfg.corpus.seed = seeds.corpus;
  cfg.corpus.edits.seed = seeds.edit;
  return cfg;
}

std::uint64_t artifact_digest(const core::PipelineContext& ctx) {
  const auto& s = ctx.stats();
  core::ParsedArtifact parsed{ctx.parsed(), s.routing, s.parse_failures,
                              s.documents};
  core::BenchmarkArtifact bench{ctx.benchmark(), s.funnel};
  std::uint64_t h = util::fnv1a64(core::serialize_parsed(parsed));
  h = util::hash_combine(h, util::fnv1a64(core::serialize_chunks(ctx.chunks())));
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

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<double> run_for(double seconds, const std::function<double()>& op) {
  std::vector<double> ms;
  const util::Stopwatch total;
  do {
    ms.push_back(op());
  } while (total.seconds() < seconds);
  return ms;
}

double time_s(const std::function<void()>& f) {
  const util::Stopwatch watch;
  f();
  return watch.seconds();
}

void Report::check(const std::string& name, bool ok) {
  ++attempted;
  if (!ok) ++failed;
  json::Value* prev = checks.as_object().find(name);
  const bool was_ok = prev == nullptr || prev->as_bool();
  checks[name] = was_ok && ok;
}

void Report::attempt(std::size_t n, std::size_t failures) {
  attempted += n;
  failed += failures;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

void report_end_to_end(Report& report, double setup_s, double p50_ms,
                       double tail_ms, double ops_per_s) {
  report.metric("setup_s", setup_s, "s");
  report.metric("op_p50_ms", p50_ms, "ms");
  report.metric("op_tail_ms", tail_ms, "ms");
  report.metric("ops_per_s", ops_per_s, "1/s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

void report_end_to_end(Report& report, double setup_s,
                       const std::vector<double>& op_ms) {
  // The highest percentile (at most p99) with at least ten samples
  // beyond it; runs with fewer than 20 operations have none above the
  // median.
  const double n = static_cast<double>(op_ms.size());
  const double tail_q = n < 20 ? 0.5 : std::min(0.99, 1.0 - 10.0 / n);
  double total_s = 0.0;
  for (const double ms : op_ms) total_s += ms * 1e-3;
  report_end_to_end(report, setup_s, quantile(op_ms, 0.5), quantile(op_ms, tail_q),
                    n / total_s);
  report.detail["op_tail_quantile"] = tail_q;
  report.detail["op_samples_ms"] = json::Value(json::Array(op_ms.begin(), op_ms.end()));
}

void report_op_layers(Report& report, const std::vector<SpanRecord>& spans,
                      double traced_wall_s, double untraced_wall_s) {
  const LayerSummary sum = summarize(spans);
  PerLayer& L = report.layers;
  L.op_traced_s = traced_wall_s;
  L.op_sum_frac = traced_wall_s > 0 ? sum.phase_wall_s / traced_wall_s : 0.0;
  L.op_overhead_frac =
      untraced_wall_s > 0 ? traced_wall_s / untraced_wall_s - 1.0 : 0.0;
  L.parallel_util = traced_wall_s > 0
                        ? sum.busy_total_s /
                              (traced_wall_s * static_cast<double>(kThreads))
                        : 0.0;
  json::Value layers = json::Value::object();
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    L.op_share[l] = sum.busy_total_s > 0 ? sum.busy_s[l] / sum.busy_total_s : 0.0;
    if (sum.items[l] == 0) continue;
    json::Value row = json::Value::object();
    row["busy_s"] = sum.busy_s[l];
    row["wall_s"] = sum.wall_s[l];
    row["calls"] = sum.items[l];
    row["share"] = L.op_share[l];
    layers[layer_name(static_cast<Layer>(l))] = std::move(row);
  }
  report.detail["op_layers"] = std::move(layers);
  report.detail["op_traced_s"] = traced_wall_s;
  report.detail["op_untraced_s"] = untraced_wall_s;
}

}  // namespace perfbench
