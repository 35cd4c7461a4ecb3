#pragma once
// The artifact digest the build tests compare: one fnv1a chain over
// every stage-1..5 artifact, taken through the checkpoint's set-level
// encoders, so digest equality is byte equality of the parsed
// documents, chunks, benchmark, per-mode traces and all four stores.
// The formula matches perfbench's, so pinned values carry across.
//
// Lives in a test header on purpose: a `core::artifact_digest` taking
// a PipelineContext would make perfbench's unqualified calls to its own
// `artifact_digest` ambiguous through argument-dependent lookup.

#include <cstdint>

#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
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

}  // namespace mcqa::test
