#pragma once
// Retrieval-augmented generation pipeline.
//
// Implements the paper's three evaluation conditions (§2.2):
//   Baseline    — the bare question;
//   RAG-Chunks  — top-k semantic chunks from the paper-derived store;
//   RAG-Traces  — top-k reasoning traces from one of the three
//                 mode-specific stores (detailed / focused / efficient).
//
// The assembler budgets retrieved text against the model's context
// window (Table 1) with room reserved for the question and the answer,
// truncating at word granularity — this is where 2K-window models lose
// chunk content that 32K-window models keep.  The window decides only
// the cut (how many hits stay whole, how many words of the next one
// stay), so models whose windows give one cut share one assembled task
// (prepare_shared).
//
// After assembly it annotates the task with the simulation-layer
// diagnostics (is the probed fact still present, how salient is it, do
// the traces dismiss wrong options, which wrong options does the
// context lend false support to).  Annotation is pure text analysis
// against the ground-truth KB.

#include <array>
#include <span>
#include <string>
#include <vector>

#include "corpus/fact_matcher.hpp"
#include "corpus/knowledge_base.hpp"
#include "index/vector_store.hpp"
#include "llm/language_model.hpp"
#include "llm/model_spec.hpp"
#include "qgen/mcq_record.hpp"
#include "trace/trace_record.hpp"

namespace mcqa::rag {

enum class Condition {
  kBaseline,
  kChunks,
  kTraceDetailed,
  kTraceFocused,
  kTraceEfficient,
};
constexpr int kConditionCount = 5;

std::string_view condition_name(Condition c);
bool is_trace_condition(Condition c);

struct RagConfig {
  /// Retrieval depth per store.  Chunks benefit from a deeper cut (the
  /// needle is often not the top hit); traces are near-duplicates of
  /// their question, so a shallow cut is cleaner.
  std::size_t top_k_chunks = 10;
  std::size_t top_k_traces = 3;
  /// Tokens reserved for the question+options and the generated answer
  /// when budgeting context into the window.
  std::size_t reserve_tokens = 384;

  std::size_t top_k_for(Condition c) const {
    return c == Condition::kChunks ? top_k_chunks : top_k_traces;
  }
};

/// Bundle of retrieval databases for one experiment.
struct RetrievalStores {
  const index::VectorStore* chunks = nullptr;
  /// Indexed by TraceMode.
  std::array<const index::VectorStore*, trace::kTraceModeCount> traces{};

  const index::VectorStore* store_for(Condition c) const;
};

/// Retrieval results for one (record set, condition) pair.  Hits depend
/// only on the record and the condition's store — never on the model —
/// so one plan is computed once and shared across every model evaluated
/// under that condition (the evaluation grid's 8-way retrieval reuse).
struct RetrievalPlan {
  Condition condition = Condition::kBaseline;
  /// False for baseline or an absent/empty store: tasks are the bare
  /// question and `hits` stays empty.
  bool active = false;
  /// Per-record top-k hits, indexed like the record set.
  std::vector<std::vector<index::Hit>> hits;

  /// Record i's hits: none when the plan is inactive.
  const std::vector<index::Hit>& hits_for(std::size_t i) const;
};

/// The tasks of one record under several model specs, assembled from
/// one hit list.  A spec reaches assembly only through its context
/// window, and the window only decides how much of the hit list the
/// context keeps (the cut); specs with the same cut share one task.
struct SharedTasks {
  /// One task per distinct cut, in the order the specs first reach it.
  std::vector<llm::McqTask> tasks;
  /// Per spec, the index of its task in `tasks`.
  std::vector<std::size_t> task_of;
};

class RagPipeline {
 public:
  RagPipeline(const corpus::KnowledgeBase& kb,
              const corpus::FactMatcher& matcher, RetrievalStores stores,
              RagConfig config = {});

  /// Build the evaluation task for (record, condition, model): retrieve,
  /// budget into the window, annotate diagnostics.
  llm::McqTask prepare(const qgen::McqRecord& record, Condition condition,
                       const llm::ModelSpec& spec) const;

  /// Empty plan for (records, condition): condition resolved against the
  /// stores (`active`) and `hits` sized to the record set, no queries
  /// issued yet.  Fill with fill_plan (a range or record group at a
  /// time, e.g. from spawned tasks).
  RetrievalPlan make_plan(const std::vector<qgen::McqRecord>& records,
                          Condition condition) const;

  /// Compute hits for records [lo, hi) into `plan` (no-op when the plan
  /// is inactive) with one tiled store scan (VectorStore::query_batch).
  /// Disjoint ranges are safe to fill concurrently, and
  /// plan.hits[i] == store->query(query_for(records[i], c), k) exactly.
  void fill_plan(RetrievalPlan& plan,
                 const std::vector<qgen::McqRecord>& records, std::size_t lo,
                 std::size_t hi) const;

  /// The same for the records at `indexes`, in any order (a grid
  /// block: a contiguous range or a delta-eval record group).
  void fill_plan(RetrievalPlan& plan,
                 const std::vector<qgen::McqRecord>& records,
                 const std::vector<std::size_t>& indexes) const;

  /// Assembly + annotation of record i against a shared plan.  Equal to
  /// prepare(records[i], plan.condition, spec) fieldwise — the plan only
  /// hoists the model-independent retrieval.
  llm::McqTask prepare_from_plan(const qgen::McqRecord& record,
                                 const RetrievalPlan& plan, std::size_t i,
                                 const llm::ModelSpec& spec) const;

  const RagConfig& config() const { return config_; }

  /// Retrieval key for (record, condition) — see prepare() for why
  /// chunks key on the stem and traces on the full rendering.  Public
  /// so the serving engine issues the exact query prepare() would.
  std::string query_for(const qgen::McqRecord& record,
                        Condition condition) const;

  /// Assembly + annotation for retrieval hits computed elsewhere (the
  /// non-retrieval tail of prepare, shared with the plan path).
  /// The serving engine's entry point after sharded retrieval:
  /// prepare(r, c, s) == prepare_from_hits(r, c, s,
  /// store->query(query_for(r, c), k)) by construction.
  llm::McqTask prepare_from_hits(const qgen::McqRecord& record,
                                 Condition condition,
                                 const llm::ModelSpec& spec,
                                 const std::vector<index::Hit>& hits) const;

  /// Assembly + annotation of one record for every spec in `specs`, each
  /// distinct cut of `hits` assembled and annotated once.
  /// tasks[task_of[s]] == prepare_from_hits(record, condition, *specs[s],
  /// hits) fieldwise; prepare_from_hits and prepare_from_plan are its
  /// one-spec case.  A hit's token count and word split are each
  /// computed at most once per call, and only for hits a cut reaches.
  SharedTasks prepare_shared(const qgen::McqRecord& record,
                             Condition condition,
                             std::span<const llm::ModelSpec* const> specs,
                             const std::vector<index::Hit>& hits) const;

 private:
  void annotate(llm::McqTask& task, const qgen::McqRecord& record,
                Condition condition,
                const std::vector<std::string>& kept_ids) const;

  const corpus::KnowledgeBase& kb_;
  const corpus::FactMatcher& matcher_;
  RetrievalStores stores_;
  RagConfig config_;
};

}  // namespace mcqa::rag
