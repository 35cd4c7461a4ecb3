#pragma once
// Continuous benchmark expansion (paper §1: "This design enables
// continuous expansion of benchmarks as new publications appear,
// ensuring evaluations remain timely, reproducible, and extensible").
//
// An ExpansionBatch ingests newly arrived raw documents through the
// same parse -> chunk -> generate -> filter -> distill stages and emits
// *additional* records and traces that merge into an existing benchmark
// without disturbing prior ids (chunk ids are content-addressed, so
// re-ingesting an already-seen document is a detected no-op).

#include <array>
#include <unordered_set>
#include <vector>

#include "chunk/chunker.hpp"
#include "corpus/corpus_builder.hpp"
#include "embed/hashed_embedder.hpp"
#include "llm/teacher_model.hpp"
#include "parse/adaptive.hpp"
#include "qgen/benchmark_builder.hpp"
#include "trace/trace_generator.hpp"

namespace mcqa::parallel {
class ThreadPool;
}

namespace mcqa::core {

struct ExpansionConfig {
  parse::AdaptiveConfig parser;
  chunk::ChunkerConfig chunker;
  qgen::BuilderConfig builder;
  trace::TraceGenConfig tracegen;
};

struct ExpansionResult {
  std::size_t documents_in = 0;
  std::size_t documents_parsed = 0;
  std::size_t documents_skipped = 0;  ///< already in the benchmark
  std::size_t new_chunks = 0;
  qgen::FunnelStats funnel;
  std::vector<qgen::McqRecord> new_records;
  /// New traces per mode, aligned with trace::TraceMode values.
  std::array<std::vector<trace::TraceRecord>, trace::kTraceModeCount>
      new_traces;
};

/// Process a batch of newly arrived documents against an existing
/// benchmark.  `existing_chunk_ids` identifies already-ingested content
/// (pass the chunk_ids of the current benchmark's chunks); records for
/// those chunks are not regenerated.  Every parallel stage runs on
/// `pool`.
ExpansionResult expand_benchmark(
    const std::vector<corpus::RawDocument>& new_documents,
    const std::unordered_set<std::string>& existing_chunk_ids,
    const embed::Embedder& embedder, const llm::TeacherModel& teacher,
    parallel::ThreadPool& pool, const ExpansionConfig& config = {});

}  // namespace mcqa::core
