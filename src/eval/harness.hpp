#pragma once
// Evaluation harness: model x condition accuracy sweeps (the engine
// behind Tables 2-4 and Figures 4-6).
//
// sweep() is one grid on one thread pool.  The records split into
// blocks — the caller's RecordGroups when HarnessConfig::groups is set,
// contiguous index ranges otherwise — and one parallel::TaskGroup task
// per (condition, block):
//
//   * fills that block's rows of the condition's rag::RetrievalPlan
//     (hits never depend on the model, so one plan serves every model:
//     with 8 models that removes 7/8 of all retrieval work);
//   * then, for each model whose cell the CellCache did not restore
//     whole, restores the block's tally from the cache (groups and a
//     cache only) or runs the prepare -> answer -> grade loop over the
//     block's records.
//
// A serial merge sums the blocks of each cell in partition order and
// does every cache store.  Tallies are integer sums, so the SweepResult
// is bitwise-identical at any thread count, with or without the cache
// and groups (tested).  evaluate() is the 1 x 1 sweep.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/judge.hpp"
#include "llm/language_model.hpp"
#include "llm/model_spec.hpp"
#include "qgen/mcq_record.hpp"
#include "rag/rag_pipeline.hpp"

namespace mcqa::parallel {
class ThreadPool;
}

namespace mcqa::eval {

struct Accuracy {
  std::size_t correct = 0;
  std::size_t total = 0;
  std::size_t unparseable = 0;  ///< judge could not extract an option

  double value() const {
    return total == 0 ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(total);
  }

  /// Wilson 95% confidence half-width.
  double ci95_halfwidth() const;
};

struct CellResult {
  std::string model;
  rag::Condition condition = rag::Condition::kBaseline;
  Accuracy accuracy;
};

struct SweepResult {
  std::vector<CellResult> cells;

  const Accuracy& at(std::string_view model, rag::Condition c) const;
  /// Highest-accuracy trace condition for a model ("RAG-RTs (best)").
  /// Ties break toward the earliest trace cell in `cells` order — i.e.
  /// the first trace condition swept (detailed before focused before
  /// efficient under all_conditions()), deterministically.
  std::pair<rag::Condition, Accuracy> best_trace(std::string_view model) const;

 private:
  /// Lazily-built (model, condition) -> cell index, rebuilt whenever the
  /// cell count changes, so at() is O(1) amortized instead of the seed's
  /// O(cells) scan per lookup (benches call it per printed cell).
  mutable std::unordered_map<std::string, std::size_t> index_;
  mutable std::size_t indexed_cells_ = 0;
};

/// One delta-eval record group: a slice of the swept record set whose
/// members share a provenance unit (one source document, or a single
/// exam item).  `content_fp` fingerprints the group's record bytes; the
/// harness combines it with a fingerprint of the group's actual
/// retrieval hits per condition, so a group's cached tally can only hit
/// when neither its questions nor anything it retrieves changed —
/// including documents *other* than its own that rank into its hits.
struct RecordGroup {
  std::uint64_t content_fp = 0;
  std::vector<std::size_t> indexes;  ///< into the swept record vector
};

/// Content-addressed accuracy cache.  The harness only sees load/store;
/// the concrete implementation (core::EvalCellCache) keys cells by the
/// fnv1a chain over the benchmark/store checkpoint keys, the swept
/// record set, the model fingerprint, the condition and the
/// judge/RAG/simulation config fingerprints, and group tallies by a
/// revision-stable base plus the harness's (content, hits) fingerprint.
class CellCache {
 public:
  virtual ~CellCache() = default;

  /// The cached accuracy for (model, condition), or nullopt on miss.
  /// `expected_total` is the swept record count — a stored cell with a
  /// different total is treated as a miss (all-or-nothing per cell).
  virtual std::optional<Accuracy> load(std::string_view model,
                                       rag::Condition condition,
                                       std::size_t expected_total) const = 0;

  virtual void store(std::string_view model, rag::Condition condition,
                     const Accuracy& accuracy) const = 0;

  /// Group-granular tallies (delta eval).  `group_fp` is the
  /// harness-combined (content, hits) fingerprint; `expected_total` the
  /// group size.  load_group is called concurrently from grid tasks;
  /// store_group and store only from the serial merge.
  virtual std::optional<Accuracy> load_group(
      std::string_view model, rag::Condition condition,
      std::uint64_t group_fp, std::size_t expected_total) const = 0;
  virtual void store_group(std::string_view model, rag::Condition condition,
                           std::uint64_t group_fp,
                           const Accuracy& accuracy) const = 0;
};

/// Work accounting for one sweep() call (cache effectiveness and the
/// retrieval-sharing win; never part of the SweepResult itself).
struct SweepStats {
  /// Store queries this sweep actually issued (once per record for each
  /// retrieval-active condition that had at least one uncached cell).
  std::size_t retrieval_queries = 0;
  /// Queries a per-cell prepare path would have issued for the same
  /// grid (once per record per *cell* under retrieval conditions).
  std::size_t naive_retrieval_queries = 0;
  std::size_t cells_computed = 0;
  std::size_t cells_restored = 0;  ///< filled from the cell cache
  /// Delta-eval accounting (zeros without HarnessConfig::groups): per
  /// uncached cell, how many record groups were restored from the
  /// cache versus answered+graded.
  std::size_t groups_restored = 0;
  std::size_t groups_computed = 0;
  /// (cell, record) evaluations actually executed.
  std::size_t records_evaluated = 0;
};

struct HarnessConfig {
  /// Caller-owned pool; evaluate()/sweep() run on it, so nested or
  /// repeated calls never oversubscribe the machine.  Not owned; must
  /// outlive the harness calls that use it.  When null, each call runs
  /// on its own hardware-sized pool.
  parallel::ThreadPool* pool = nullptr;
  /// Optional content-addressed eval-cell cache (not owned).
  const CellCache* cell_cache = nullptr;
  /// Optional delta-eval partition of the swept record set (not owned;
  /// must cover every record index exactly once).  When set, the grid's
  /// blocks are these groups, and with a cell_cache an uncached cell
  /// restores its unchanged groups' tallies and answers only the dirty
  /// groups — the summed counts are bitwise-identical to a sweep
  /// without groups or cache, at any thread count.
  const std::vector<RecordGroup>* groups = nullptr;
};

class EvalHarness {
 public:
  EvalHarness(const rag::RagPipeline& rag, HarnessConfig config = {});

  /// Accuracy of one model under one condition over the records: the
  /// 1 x 1 sweep under the same config (pool, cache and groups).
  Accuracy evaluate(const llm::LanguageModel& model,
                    const llm::ModelSpec& spec,
                    const std::vector<qgen::McqRecord>& records,
                    rag::Condition condition) const;

  /// Full sweep: every model in `models` under every condition in
  /// `conditions`.  Cells land in (model, condition) order.  `stats`
  /// (optional) receives the work accounting for this call.
  SweepResult sweep(
      const std::vector<const llm::LanguageModel*>& models,
      const std::vector<llm::ModelSpec>& specs,
      const std::vector<qgen::McqRecord>& records,
      const std::vector<rag::Condition>& conditions,
      SweepStats* stats = nullptr) const;

 private:
  const rag::RagPipeline& rag_;
  Judge judge_;
  HarnessConfig config_;
};

/// All five conditions of Table 2.
std::vector<rag::Condition> all_conditions();
/// Baseline / chunks / the three trace modes for exam tables (3 and 4
/// report best-of-traces).
std::vector<rag::Condition> trace_conditions();

}  // namespace mcqa::eval
