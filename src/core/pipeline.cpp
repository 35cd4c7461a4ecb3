#include "core/pipeline.hpp"

#include <cstdlib>
#include <optional>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/checkpoint.hpp"
#include "core/eval_cache.hpp"
#include "core/executor.hpp"
#include "train/train_io.hpp"
#include "parallel/thread_pool.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace mcqa::core {

std::string default_checkpoint_dir() {
  const char* env = std::getenv("MCQA_CHECKPOINT_DIR");
  return (env != nullptr && *env != '\0') ? std::string(env) : std::string();
}

PipelineConfig PipelineConfig::paper_scale(double scale) {
  PipelineConfig cfg;
  cfg.corpus.scale = scale;
  cfg.checkpoint_dir = default_checkpoint_dir();
  return cfg;
}

PipelineContext::HeapTrim::~HeapTrim() {
#if defined(__GLIBC__)
  // A context's pages are freed into the glibc arenas of the threads
  // that allocated them, and those arenas keep them.  A process that
  // drops a context and builds another (perfbench's eval_grid sweeps
  // past its slices and rebuilds) builds on new pool threads, which
  // take fresh arenas while threads that outlive the context still
  // hold the old ones: without this trim its peak RSS grows by most of
  // a context per rebuild.  malloc_trim returns every arena's free
  // pages to the OS.
  malloc_trim(0);
#endif
}

PipelineContext::PipelineContext(const PipelineConfig& config)
    : config_(config),
      kb_(corpus::KnowledgeBase::generate(config.kb)),
      matcher_(kb_),
      embedder_(embed::make_biomed_encoder()),
      query_cache_(embedder_) {
  util::Stopwatch total;
  corpus_ = corpus::build_corpus(kb_, config_.corpus, config_.threads);

  parallel::ThreadPool pool(config_.threads);
  teacher_ = std::make_unique<llm::TeacherModel>(kb_, matcher_);

  // One producer for stages 1-5.  With a checkpoint directory it
  // restores the per-document artifacts that still match and
  // recomputes only the dirty subtrees; either way the artifacts are
  // byte-identical (tested against pinned digests).
  std::optional<ArtifactCache> cache;
  if (!config_.checkpoint_dir.empty()) cache.emplace(config_.checkpoint_dir);
  OverlappedBuilder(*this).run(pool, cache ? &*cache : nullptr);
  bool restored = false;
  if (cache) {
    const ArtifactCache::Stats cs = cache->stats();
    stats_.checkpoint_hits = cs.hits;
    stats_.checkpoint_misses = cs.misses;
    stats_.checkpoint_corrupt = cs.corrupt_blobs;
    restored = stats_.doc_artifacts_recomputed == 0;
  }

  finalize_exam_and_rag();

  stats_.build_seconds = total.seconds();
  MCQA_INFO("pipeline") << "built" << (restored ? " (checkpoint-restored)" : "")
                        << ": " << stats_.documents << " docs, "
                        << stats_.chunks << " chunks, " << benchmark_.size()
                        << " questions, " << exam_all_.size()
                        << " exam items in " << stats_.build_seconds << "s";
}

void PipelineContext::finalize_exam_and_rag() {
  // --- Stage 6: retrieval fact coverage + Astro exam -------------------------
  {
    // A fact is "covered" for exam purposes when the benchmark probes it:
    // such facts have both a retrievable source chunk and distilled
    // reasoning traces.  (Chunk-only coverage is broader, but traces are
    // the retrieval source whose exam behaviour the paper measures.)
    for (const auto& record : benchmark_) {
      covered_facts_.insert(record.fact);
    }

    const exam::AstroExamBuilder exam_builder(kb_, config_.exam);
    exam_ = exam_builder.build(covered_facts_);
    exam_all_ = exam_.usable();
    const exam::MathClassifier classifier;
    exam_no_math_ = classifier.no_math_subset(exam_);
  }

  // --- Stage 7: retrieval pipeline + students --------------------------------
  {
    rag::RetrievalStores stores;
    stores.chunks = chunk_store_.get();
    for (int m = 0; m < trace::kTraceModeCount; ++m) {
      stores.traces[static_cast<std::size_t>(m)] = trace_stores_[m].get();
    }
    rag_ = std::make_unique<rag::RagPipeline>(kb_, matcher_, stores,
                                              config_.rag);
  }
  for (const auto& card : llm::student_registry()) {
    students_.push_back(
        std::make_unique<llm::StudentModel>(card, config_.sim));
  }
}

std::vector<const llm::LanguageModel*> PipelineContext::student_ptrs() const {
  std::vector<const llm::LanguageModel*> out;
  out.reserve(students_.size());
  for (const auto& s : students_) out.push_back(s.get());
  return out;
}

std::vector<llm::ModelSpec> PipelineContext::student_specs() const {
  std::vector<llm::ModelSpec> out;
  out.reserve(students_.size());
  for (const auto& s : students_) out.push_back(s->card().spec);
  return out;
}

std::pair<std::string, std::string> PipelineContext::training_texts() const {
  // Efficient-mode traces only: the densest medium (one distilled fact
  // line per record), and the one where equal-byte budgets cover every
  // benchmark topic.  Concatenating all three verbosity tiers mostly
  // restates the same records with more boilerplate per fact, which
  // measured worse per training byte.
  std::string trace_text;
  for (const auto& t : traces_[static_cast<std::size_t>(
           trace::TraceMode::kEfficient)]) {
    trace_text += t.retrieval_text();  // answers withheld, as stored
    trace_text += '\n';
  }
  std::string chunk_text;
  for (const auto& chunk : chunks_) {
    chunk_text += chunk.text;
    chunk_text += '\n';
  }
  // Equal byte budget, so accuracy differences measure the medium, not
  // the amount of text.
  const std::size_t budget = std::min(trace_text.size(), chunk_text.size());
  trace_text.resize(budget);
  chunk_text.resize(budget);
  return {std::move(trace_text), std::move(chunk_text)};
}

train::TrainConfig PipelineContext::roster_train_config() {
  // Frozen alongside the student profiles: re-tune only via bench_train
  // (the shape checks there pin trace >= chunk > untrained).
  train::TrainConfig cfg;
  cfg.bpe_vocab = 1500;
  cfg.epochs = 8;
  cfg.minibatch = 256;
  cfg.step_size = 0.3;
  return cfg;
}

namespace {

/// Train or warm-restore one trainable roster row.  The checkpoint key
/// chain pins (format, executable, config, training bytes); corrupt or
/// truncated blobs fall through to a retrain, §12-style.
std::unique_ptr<llm::TrainedStudent> build_trained_row(
    std::string name, const std::string& text, const train::TrainConfig& tc,
    const std::string& checkpoint_dir, parallel::ThreadPool& pool) {
  llm::TrainedStudentConfig cfg;
  cfg.train = tc;
  cfg.name = std::move(name);
  const std::uint64_t fp = train::trained_model_fingerprint(tc, text);
  if (!checkpoint_dir.empty()) {
    const ArtifactCache cache(checkpoint_dir);
    const std::uint64_t key =
        train::trained_checkpoint_key(code_fingerprint(), tc, text);
    if (const auto blob = cache.load("trained-lbl", key)) {
      try {
        return std::make_unique<llm::TrainedStudent>(
            llm::TrainedStudent::restore(*blob, cfg, fp));
      } catch (const std::exception& e) {
        // Corrupt blob: count it, then retrain and overwrite below.
        cache.note_corrupt();
        MCQA_INFO("pipeline") << "corrupt trained-lbl checkpoint ("
                              << e.what() << "); retraining";
      }
    }
    auto model = std::make_unique<llm::TrainedStudent>(
        llm::TrainedStudent::train(text, cfg, pool));
    cache.store("trained-lbl", key, model->serialize());
    return model;
  }
  return std::make_unique<llm::TrainedStudent>(
      llm::TrainedStudent::train(text, cfg, pool));
}

}  // namespace

const PipelineContext::TrainedRoster& PipelineContext::trained_roster() const {
  const std::lock_guard<std::mutex> lock(trained_mu_);
  if (trained_.traces == nullptr) {
    const auto [trace_text, chunk_text] = training_texts();
    const train::TrainConfig tc = roster_train_config();
    parallel::ThreadPool pool(config_.threads);
    trained_.traces = build_trained_row("lbl-traces", trace_text, tc,
                                        config_.checkpoint_dir, pool);
    trained_.chunks = build_trained_row("lbl-chunks", chunk_text, tc,
                                        config_.checkpoint_dir, pool);
    // Eval-cell keys for these rows must move when the training inputs
    // move (and only then) — see core/eval_cache.
    register_model_fingerprint(trained_.traces->name(),
                               trained_.traces->fingerprint());
    register_model_fingerprint(trained_.chunks->name(),
                               trained_.chunks->fingerprint());
  }
  return trained_;
}

std::vector<const llm::LanguageModel*> PipelineContext::extended_student_ptrs()
    const {
  const TrainedRoster& roster = trained_roster();
  std::vector<const llm::LanguageModel*> out = student_ptrs();
  out.push_back(roster.traces.get());
  out.push_back(roster.chunks.get());
  return out;
}

std::vector<llm::ModelSpec> PipelineContext::extended_student_specs() const {
  const TrainedRoster& roster = trained_roster();
  std::vector<llm::ModelSpec> out = student_specs();
  out.push_back(roster.traces->spec());
  out.push_back(roster.chunks->spec());
  return out;
}

const PipelineContext& PipelineContext::shared() {
  static const PipelineContext ctx(PipelineConfig::paper_scale());
  return ctx;
}

}  // namespace mcqa::core
