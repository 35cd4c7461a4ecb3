// Continuous-expansion example: the framework's "benchmarks that keep
// pace with the literature" workflow.  Simulates three publication
// waves arriving over time; each wave extends the benchmark and the
// trace stores incrementally, and a fixed student is re-evaluated on the
// growing question set.
//
//   ./build/examples/continuous_expansion

#include <cstdio>
#include <unordered_set>

#include "core/expansion.hpp"
#include "corpus/fact_matcher.hpp"
#include "eval/harness.hpp"
#include "eval/judge.hpp"
#include "eval/report.hpp"
#include "index/vector_store.hpp"
#include "llm/student_model.hpp"
#include "parallel/thread_pool.hpp"
#include "rag/rag_pipeline.hpp"

int main() {
  using namespace mcqa;

  const corpus::KnowledgeBase kb = corpus::KnowledgeBase::generate({});
  const corpus::FactMatcher matcher(kb);
  const embed::HashedNGramEmbedder embedder = embed::make_biomed_encoder();
  const llm::TeacherModel teacher(kb, matcher);
  parallel::ThreadPool pool(0);  // machine-sized; every stage runs on it

  std::vector<qgen::McqRecord> benchmark;
  std::array<std::vector<trace::TraceRecord>, trace::kTraceModeCount> traces;
  std::unordered_set<std::string> seen_chunks;

  const auto& card = llm::student_card("SmolLM3-3B");
  const llm::StudentModel student(card);

  std::printf("Continuous benchmark expansion: three publication waves\n\n");
  eval::TableWriter table({"Wave", "New docs", "New questions",
                           "Benchmark size", "RT-Focused accuracy"});

  for (std::uint64_t wave = 1; wave <= 3; ++wave) {
    // Each wave: a fresh slice of "newly published" documents.
    corpus::CorpusConfig cfg;
    cfg.scale = 0.004;
    cfg.seed = 1000 + wave;  // different publications each wave
    const auto docs = build_corpus(kb, cfg).documents;

    const core::ExpansionResult result = core::expand_benchmark(
        docs, seen_chunks, embedder, teacher, pool);

    // Merge: extend the benchmark, remember ingested chunk content.
    for (const auto& r : result.new_records) {
      benchmark.push_back(r);
    }
    for (int m = 0; m < trace::kTraceModeCount; ++m) {
      for (const auto& t : result.new_traces[static_cast<std::size_t>(m)]) {
        traces[static_cast<std::size_t>(m)].push_back(t);
      }
    }
    // Content ledger: a production deployment persists this set; here we
    // re-derive it from record provenance plus the fresh chunk count.
    for (const auto& r : result.new_records) seen_chunks.insert(r.chunk_id);

    // Rebuild retrieval stores over the merged artifacts (stores are
    // cheap relative to generation; FAISS-style rebuilds are how the
    // paper's pipeline refreshes too).
    index::VectorStore chunk_store(embedder);
    for (const auto& r : benchmark) chunk_store.add(r.chunk_id, r.text);
    chunk_store.build();
    std::array<std::unique_ptr<index::VectorStore>, trace::kTraceModeCount>
        trace_stores;
    rag::RetrievalStores stores;
    stores.chunks = &chunk_store;
    for (int m = 0; m < trace::kTraceModeCount; ++m) {
      trace_stores[static_cast<std::size_t>(m)] =
          std::make_unique<index::VectorStore>(embedder);
      for (const auto& t : traces[static_cast<std::size_t>(m)]) {
        trace_stores[static_cast<std::size_t>(m)]->add(t.trace_id,
                                                       t.retrieval_text());
      }
      trace_stores[static_cast<std::size_t>(m)]->build();
      stores.traces[static_cast<std::size_t>(m)] =
          trace_stores[static_cast<std::size_t>(m)].get();
    }
    const rag::RagPipeline rag(kb, matcher, stores, rag::RagConfig{});
    eval::HarnessConfig hc;
    hc.pool = &pool;
    const eval::EvalHarness harness(rag, hc);
    const eval::Accuracy acc = harness.evaluate(
        student, card.spec, benchmark, rag::Condition::kTraceFocused);

    table.add_row({std::to_string(wave), std::to_string(docs.size()),
                   std::to_string(result.new_records.size()),
                   std::to_string(benchmark.size()),
                   eval::fmt_acc(acc.value()) + " ±" +
                       eval::fmt_acc(acc.ci95_halfwidth())});
  }

  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Each wave's questions carry provenance to their own wave's "
      "documents; earlier record ids are never regenerated or disturbed "
      "(content-addressed chunk ids make re-ingestion idempotent).\n");
  return 0;
}
