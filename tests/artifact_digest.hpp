#pragma once
// The digests the golden tests compare.  artifact_digest is one fnv1a
// chain over every stage-1..5 artifact, taken through the checkpoint's
// set-level encoders, so digest equality is byte equality of the
// parsed documents, chunks, benchmark, per-mode traces and all four
// stores.  sweep_digest chains every cell of an evaluation sweep.  Both
// formulas match perfbench's, so pinned values carry across.
// task_digest chains every field of a list of assembled tasks.
//
// Lives in a test header on purpose: a `core::artifact_digest` taking
// a PipelineContext, or an `eval::sweep_digest` taking a SweepResult,
// would make perfbench's unqualified calls to its own helpers ambiguous
// through argument-dependent lookup.

#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "eval/harness.hpp"
#include "llm/language_model.hpp"
#include "util/hash.hpp"

namespace mcqa::test {

/// Golden digest of `PipelineConfig::paper_scale(0.008)` with
/// checkpointing off and default settings otherwise — the scale the
/// executor and incremental tests build at (provenance in
/// golden_digest_test.cpp).
inline constexpr std::uint64_t kDigestScale0008 = 0x8d8c02c92f187b7aULL;

inline std::uint64_t artifact_digest(const core::PipelineContext& ctx) {
  const auto& s = ctx.stats();
  const core::ParsedArtifact parsed{ctx.parsed(), s.routing, s.parse_failures,
                                    s.documents};
  const core::BenchmarkArtifact bench{ctx.benchmark(), s.funnel};
  std::uint64_t h = util::fnv1a64(core::serialize_parsed(parsed));
  h = util::hash_combine(h,
                         util::fnv1a64(core::serialize_chunks(ctx.chunks())));
  h = util::hash_combine(h, util::fnv1a64(ctx.chunk_store().save()));
  h = util::hash_combine(h, util::fnv1a64(core::serialize_benchmark(bench)));
  for (int m = 0; m < trace::kTraceModeCount; ++m) {
    const auto mode = static_cast<trace::TraceMode>(m);
    const core::TraceArtifact traces{ctx.traces(mode), {}};
    h = util::hash_combine(h, util::fnv1a64(core::serialize_traces(traces)));
    h = util::hash_combine(h, util::fnv1a64(ctx.trace_store(mode).save()));
  }
  return h;
}

/// Digest of a sweep: each cell's model, condition and tallies, in
/// cell order.
inline std::uint64_t sweep_digest(const eval::SweepResult& sweep) {
  std::uint64_t h = util::fnv1a64("sweep");
  for (const auto& cell : sweep.cells) {
    h = util::hash_combine(h, util::fnv1a64(cell.model));
    h = util::hash_combine(
        h, util::fnv1a64(static_cast<std::uint64_t>(cell.condition)));
    h = util::hash_combine(h, util::fnv1a64(cell.accuracy.correct));
    h = util::hash_combine(h, util::fnv1a64(cell.accuracy.total));
    h = util::hash_combine(h, util::fnv1a64(cell.accuracy.unparseable));
  }
  return h;
}

/// Digest of assembled tasks, in order: every prompt- and
/// simulation-layer field the serve-tier task equality compares.
/// Doubles enter by bit pattern and lists by length then elements.
inline std::uint64_t task_digest(const std::vector<llm::McqTask>& tasks) {
  std::uint64_t h = util::fnv1a64("tasks");
  const auto word = [&h](std::uint64_t v) {
    h = util::hash_combine(h, util::fnv1a64(v));
  };
  const auto text = [&h](std::string_view s) {
    h = util::hash_combine(h, util::fnv1a64(s));
  };
  const auto real = [&word](double x) { word(std::bit_cast<std::uint64_t>(x)); };
  const auto integer = [&word](int v) {
    word(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  };
  for (const llm::McqTask& t : tasks) {
    text(t.id);
    text(t.stem);
    word(t.options.size());
    for (const std::string& option : t.options) text(option);
    text(t.context);
    integer(t.correct_index);
    word(t.fact);
    word(t.has_fact);
    word(t.math);
    real(t.fact_importance);
    real(t.ambiguity);
    word(t.exam_item);
    word(t.context_is_trace);
    word(t.context_is_terse);
    word(t.context_has_fact);
    real(t.context_saliency);
    word(t.context_has_elimination);
    word(t.context_has_worked_math);
    word(t.context_misleading_options.size());
    for (const int option : t.context_misleading_options) integer(option);
    real(t.context_mislead_strength);
  }
  return h;
}

}  // namespace mcqa::test
