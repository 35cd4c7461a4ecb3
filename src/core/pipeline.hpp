#pragma once
// End-to-end pipeline orchestration (Fig. 1 of the paper):
//
//   corpus synthesis -> adaptive parsing -> semantic chunking ->
//   FP16 embedding + vector store -> MCQ generation + quality filter ->
//   reasoning-trace distillation (3 modes, 3 stores) ->
//   Astro-exam synthesis -> evaluation-ready retrieval pipeline.
//
// PipelineContext owns every artifact and is non-movable so internal
// references stay valid; build it once per process (it is the expensive
// step) and share across benches/tests.  Stages 1-5 have one producer,
// the dataflow in core/executor.hpp; pinned golden digests
// (tests/golden_digest_test.cpp) anchor its bytes.

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "chunk/chunker.hpp"
#include "corpus/corpus_builder.hpp"
#include "corpus/fact_matcher.hpp"
#include "corpus/knowledge_base.hpp"
#include "embed/embedding_cache.hpp"
#include "embed/hashed_embedder.hpp"
#include "eval/harness.hpp"
#include "exam/astro_exam.hpp"
#include "index/vector_store.hpp"
#include "llm/student_model.hpp"
#include "llm/teacher_model.hpp"
#include "llm/trained_student.hpp"
#include "parse/adaptive.hpp"
#include "qgen/benchmark_builder.hpp"
#include "rag/rag_pipeline.hpp"
#include "trace/trace_generator.hpp"
#include "trace/trace_grading.hpp"

namespace mcqa::core {

struct PipelineConfig {
  corpus::KbConfig kb;
  corpus::CorpusConfig corpus;
  parse::AdaptiveConfig parser;
  chunk::ChunkerConfig chunker;
  bool semantic_chunking = true;  ///< false = fixed-size baseline (A2)
  qgen::BuilderConfig builder;
  trace::TraceGenConfig tracegen;
  exam::ExamConfig exam;
  rag::RagConfig rag;
  index::IndexKind index_kind = index::IndexKind::kFlat;
  llm::SimulationCoefficients sim;
  /// Build pool size (0 = hardware concurrency).  A speed knob only:
  /// artifacts are byte-identical at any thread count (tested).
  std::size_t threads = 0;
  /// Memoize embeddings by content hash.  Purely a speed knob: the cache
  /// returns vectors computed by the same embedder for the same bytes,
  /// so every artifact is byte-identical with it on or off (tested).
  bool embed_cache = true;

  /// Content-addressed artifact checkpoint directory; empty disables
  /// checkpointing.  Each document's build subtree (parse outcome,
  /// chunks, embeddings, record, trace lanes) is keyed individually by
  /// (config fingerprint, doc id, doc bytes) plus the executable
  /// identity, so a warm run restores every unchanged document and
  /// recomputes only the dirty ones — byte-identical to a cold build
  /// at any thread count (tested).  Never part of artifact content, so
  /// it cannot affect results.
  std::string checkpoint_dir;

  /// Incremental IVF-PQ rebuild policy (ignored by other index kinds):
  /// when at most this fraction of a store's rows changed since the
  /// previous revision, the quantizers are not retrained — rows are
  /// re-encoded against the previous store's frozen codebooks.  Query
  /// results stay exact either way (the fp16 rerank contract), so this
  /// is a speed knob, excluded from artifact keys; only the saved
  /// IVF-PQ store bytes may differ from a cold retrain's.
  double ivfpq_retrain_threshold = 0.25;

  /// The default configuration used by all paper-reproduction benches:
  /// 1/40-scale corpus, flat index, semantic chunking.  Checkpointing
  /// goes to $MCQA_CHECKPOINT_DIR when that is set and non-empty.
  static PipelineConfig paper_scale(double scale = 0.025);
};

/// $MCQA_CHECKPOINT_DIR, or empty (checkpointing disabled) when unset.
std::string default_checkpoint_dir();

struct PipelineStats {
  std::size_t documents = 0;
  std::size_t parse_failures = 0;
  parse::RoutingStats routing;
  std::size_t chunks = 0;
  qgen::FunnelStats funnel;
  /// Post-filter retrieval-store trace counts, indexed by TraceMode.
  std::array<std::size_t, trace::kTraceModeCount> traces_per_mode{};
  /// Teacher self-grading pass rate, indexed by TraceMode.
  std::array<double, trace::kTraceModeCount> trace_grading_accuracy{};
  std::size_t embedding_bytes = 0;  ///< chunk store, FP16 at rest
  embed::EmbeddingCacheStats embed_cache;  ///< zeros when the cache is off
  /// Artifact checkpoint traffic (zeros when checkpointing is off).
  std::size_t checkpoint_hits = 0;
  std::size_t checkpoint_misses = 0;
  /// Blobs that loaded but failed to decode; each was silently
  /// recomputed (and also counts as a miss, never a hit).
  std::size_t checkpoint_corrupt = 0;
  /// Per-document artifact accounting for the incremental build: on a
  /// warm run with K of N documents changed, restored == N-K and
  /// recomputed == K.  Both zero when checkpointing is off.
  std::size_t doc_artifacts_restored = 0;
  std::size_t doc_artifacts_recomputed = 0;
  double build_seconds = 0.0;
};

class PipelineContext {
 public:
  explicit PipelineContext(const PipelineConfig& config);

  PipelineContext(const PipelineContext&) = delete;
  PipelineContext& operator=(const PipelineContext&) = delete;

  const PipelineConfig& config() const { return config_; }
  const PipelineStats& stats() const { return stats_; }

  const corpus::KnowledgeBase& kb() const { return kb_; }
  const corpus::FactMatcher& matcher() const { return matcher_; }
  const corpus::SyntheticCorpus& corpus() const { return corpus_; }
  const std::vector<parse::ParsedDocument>& parsed() const { return parsed_; }
  const std::vector<chunk::Chunk>& chunks() const { return chunks_; }
  const embed::HashedNGramEmbedder& embedder() const { return embedder_; }
  /// The embedder the pipeline actually routes through: the content-hash
  /// cache when `config.embed_cache` is on, the raw embedder otherwise.
  const embed::Embedder& active_embedder() const {
    return embed_cache_ ? static_cast<const embed::Embedder&>(*embed_cache_)
                        : embedder_;
  }
  const index::VectorStore& chunk_store() const { return *chunk_store_; }
  const index::VectorStore& trace_store(trace::TraceMode mode) const {
    return *trace_stores_[static_cast<std::size_t>(mode)];
  }
  const llm::TeacherModel& teacher() const { return *teacher_; }
  const std::vector<qgen::McqRecord>& benchmark() const { return benchmark_; }
  const std::vector<trace::TraceRecord>& traces(trace::TraceMode mode) const {
    return traces_[static_cast<std::size_t>(mode)];
  }
  const exam::Exam& astro_exam() const { return exam_; }
  const std::vector<qgen::McqRecord>& exam_all() const { return exam_all_; }
  const std::vector<qgen::McqRecord>& exam_no_math() const {
    return exam_no_math_;
  }
  const std::unordered_set<corpus::FactId>& covered_facts() const {
    return covered_facts_;
  }
  const rag::RagPipeline& rag() const { return *rag_; }

  /// The eight simulated students (registry order), plus their specs.
  const std::vector<std::unique_ptr<llm::StudentModel>>& students() const {
    return students_;
  }
  std::vector<const llm::LanguageModel*> student_ptrs() const;
  std::vector<llm::ModelSpec> student_specs() const;

  /// The trainable roster extension (DESIGN.md §16): two TrainedStudent
  /// rows — "lbl-traces" minibatch-SGD-trained on distilled reasoning-
  /// trace text and "lbl-chunks" on chunk text, equal byte budget.
  struct TrainedRoster {
    std::unique_ptr<llm::TrainedStudent> traces;
    std::unique_ptr<llm::TrainedStudent> chunks;
  };

  /// Lazily trains (or, with checkpointing on, warm-restores — byte-
  /// identical) the trainable rows on first use and registers their
  /// (config, training text) fingerprints with the eval-cell cache.
  /// The frozen eight never pay for this; benches that only sweep the
  /// calibrated roster never call it.  Thread-safe.
  const TrainedRoster& trained_roster() const;

  /// Training corpora for the trainable rows: (trace text, chunk text)
  /// concatenated in artifact order and trimmed to an equal byte
  /// budget — the bench_trace_pretraining discipline.
  std::pair<std::string, std::string> training_texts() const;

  /// The frozen TrainConfig the roster rows train under.
  static train::TrainConfig roster_train_config();

  /// 8 frozen + 2 trainable rows, in that order, for extended sweeps
  /// (bench_train, train tests).  run_full_sweep and every pre-existing
  /// bench stay on the frozen-8 student_ptrs().
  std::vector<const llm::LanguageModel*> extended_student_ptrs() const;
  std::vector<llm::ModelSpec> extended_student_specs() const;

  /// Process-wide shared context at the default paper scale; built on
  /// first use.  Benches share it to avoid rebuilding per binary run.
  static const PipelineContext& shared();

 private:
  friend class OverlappedBuilder;

  /// Stages 6-7: exam synthesis, retrieval wiring, students.
  void finalize_exam_and_rag();

  PipelineConfig config_;
  PipelineStats stats_;

  corpus::KnowledgeBase kb_;
  corpus::FactMatcher matcher_;
  corpus::SyntheticCorpus corpus_;
  std::vector<parse::ParsedDocument> parsed_;
  std::vector<chunk::Chunk> chunks_;
  embed::HashedNGramEmbedder embedder_;
  std::unique_ptr<embed::CachingEmbedder> embed_cache_;
  std::unique_ptr<index::VectorStore> chunk_store_;
  std::unique_ptr<llm::TeacherModel> teacher_;
  std::vector<qgen::McqRecord> benchmark_;
  std::array<std::vector<trace::TraceRecord>, trace::kTraceModeCount> traces_;
  std::array<std::unique_ptr<index::VectorStore>, trace::kTraceModeCount>
      trace_stores_;
  std::unordered_set<corpus::FactId> covered_facts_;
  exam::Exam exam_;
  std::vector<qgen::McqRecord> exam_all_;
  std::vector<qgen::McqRecord> exam_no_math_;
  std::unique_ptr<rag::RagPipeline> rag_;
  std::vector<std::unique_ptr<llm::StudentModel>> students_;
  mutable std::mutex trained_mu_;
  mutable TrainedRoster trained_;  ///< lazily built; guarded by trained_mu_
};

}  // namespace mcqa::core
