#include "core/expansion.hpp"

#include "trace/trace_grading.hpp"

#include "parallel/thread_pool.hpp"

namespace mcqa::core {

ExpansionResult expand_benchmark(
    const std::vector<corpus::RawDocument>& new_documents,
    const std::unordered_set<std::string>& existing_chunk_ids,
    const embed::Embedder& embedder, const llm::TeacherModel& teacher,
    parallel::ThreadPool& pool, const ExpansionConfig& config) {
  ExpansionResult result;
  result.documents_in = new_documents.size();

  // Stage 1: parse the batch.
  const parse::AdaptiveParser parser(config.parser);
  std::vector<parse::ParsedDocument> parsed(new_documents.size());
  // One byte per document: the parse tasks write their own elements,
  // and std::vector<bool> would pack neighbours into one shared word.
  std::vector<char> ok(new_documents.size(), 0);
  parallel::parallel_for(pool, 0, new_documents.size(), [&](std::size_t i) {
    parse::ParseOutcome outcome = parser.parse(new_documents[i].bytes);
    if (!outcome.ok) return;
    if (outcome.document.doc_id.empty()) {
      outcome.document.doc_id = new_documents[i].doc_id;
    }
    parsed[i] = std::move(outcome.document);
    ok[i] = 1;
  });

  // Stage 2: chunk, dropping content already present in the benchmark
  // (content-addressed chunk ids make re-ingestion idempotent).
  const chunk::SemanticChunker chunker(embedder, config.chunker);
  std::vector<chunk::Chunk> fresh_chunks;
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    if (!ok[i]) continue;
    ++result.documents_parsed;
    const auto chunks = chunker.chunk(parsed[i]);
    bool any_fresh = false;
    for (const auto& c : chunks) {
      if (existing_chunk_ids.contains(c.chunk_id)) continue;
      fresh_chunks.push_back(c);
      any_fresh = true;
    }
    if (!any_fresh && !chunks.empty()) ++result.documents_skipped;
  }
  result.new_chunks = fresh_chunks.size();

  // Stage 3: generate + filter questions for the fresh chunks only.
  const qgen::BenchmarkBuilder builder(teacher, config.builder);
  result.new_records = builder.build(fresh_chunks, pool, &result.funnel);

  // Stage 4: distill traces for the new records.
  const trace::TraceGenerator tracer(teacher, config.tracegen);
  for (int m = 0; m < trace::kTraceModeCount; ++m) {
    result.new_traces[static_cast<std::size_t>(m)] =
        tracer.generate_all(result.new_records,
                            static_cast<trace::TraceMode>(m), pool);
    trace::grade_all(result.new_traces[static_cast<std::size_t>(m)]);
  }
  return result;
}

}  // namespace mcqa::core
