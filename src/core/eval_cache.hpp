#pragma once
// Content-addressed eval-cell cache (the evaluation-grid counterpart of
// core/checkpoint's build-artifact cache).
//
// One cached cell is the Accuracy tally of (model, condition) over a
// fixed record set.  The key chain mirrors derive_checkpoint_keys:
//
//   sweep key = fnv1a( format version , code fingerprint
//                    , benchmark + chunk/trace store checkpoint keys
//                    , record-set content fingerprint (the swept subset
//                      — full benchmark, exam_all and exam_no_math all
//                      key differently)
//                    , RAG config , judge fingerprint
//                    , simulation coefficients )
//   cell key  = fnv1a( sweep key , model name + card fingerprint
//                    , condition )
//
// so a cached cell can only hit when every input that could change its
// counts is unchanged.  Loads are all-or-nothing per cell: a missing,
// corrupt or mismatched blob is a miss and the harness recomputes.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "eval/harness.hpp"
#include "qgen/mcq_record.hpp"

namespace mcqa::core {

class PipelineContext;

/// Process-wide fingerprint registry for *trainable* models.  The
/// frozen roster's cell keys derive from the calibrated model cards;
/// a trained model's behaviour is instead pinned by its (training
/// config, training text) fingerprint.  Whoever builds such a model
/// registers that fingerprint under the model's roster name, and
/// cell_key() folds it in — so flipping one training document
/// invalidates exactly the trainable rows and nothing else.
/// Re-registering a name overwrites (latest wins); thread-safe.
void register_model_fingerprint(std::string_view name, std::uint64_t fp);

/// The registered fingerprint for `name`, or 0 when none (frozen
/// profiles and custom backends take the card/name-only path).
std::uint64_t registered_model_fingerprint(std::string_view name);

class EvalCellCache final : public eval::CellCache {
 public:
  /// `sweep_key` scopes every cell to one (pipeline, record set,
  /// harness config) combination — see sweep_key().  `group_base` (from
  /// group_base_key()) scopes per-group tallies.  Unlike the sweep key
  /// it deliberately excludes the benchmark/store checkpoint keys and
  /// the swept subset — a group's own content and retrieval-hit
  /// fingerprints carry that dependence, which is exactly what lets
  /// unchanged groups hit across corpus revisions that would flip the
  /// sweep key.
  EvalCellCache(std::string dir, std::uint64_t sweep_key,
                std::uint64_t group_base);

  /// The sweep-scope key for evaluating `records` against `ctx`'s
  /// stores, RAG config, judge and simulation coefficients.
  static std::uint64_t sweep_key(const PipelineContext& ctx,
                                 const std::vector<qgen::McqRecord>& records);

  /// The revision-stable scope for group tallies: format version, code
  /// fingerprint, KB config, RAG config, judge and simulation
  /// coefficients — everything that affects a group's counts *except*
  /// its content and hits (the harness fingerprints those per group).
  static std::uint64_t group_base_key(const PipelineContext& ctx);

  std::optional<eval::Accuracy> load(std::string_view model,
                                     rag::Condition condition,
                                     std::size_t expected_total) const override;

  void store(std::string_view model, rag::Condition condition,
             const eval::Accuracy& accuracy) const override;

  std::optional<eval::Accuracy> load_group(
      std::string_view model, rag::Condition condition,
      std::uint64_t group_fp, std::size_t expected_total) const override;
  void store_group(std::string_view model, rag::Condition condition,
                   std::uint64_t group_fp,
                   const eval::Accuracy& accuracy) const override;

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t stores = 0;
    std::size_t group_hits = 0;
    std::size_t group_misses = 0;
    std::size_t group_stores = 0;
    /// Blobs that loaded but failed to decode (counted as misses).
    std::size_t corrupt_blobs = 0;
  };
  Stats stats() const {
    return {hits_.load(),        misses_.load(),       stores_.load(),
            group_hits_.load(),  group_misses_.load(), group_stores_.load(),
            cache_.stats().corrupt_blobs};
  }

 private:
  std::uint64_t cell_key(std::string_view model,
                         rag::Condition condition) const;
  std::uint64_t group_key(std::string_view model, rag::Condition condition,
                          std::uint64_t group_fp) const;

  ArtifactCache cache_;
  std::uint64_t sweep_key_;
  std::uint64_t group_base_;
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
  mutable std::atomic<std::size_t> stores_{0};
  mutable std::atomic<std::size_t> group_hits_{0};
  mutable std::atomic<std::size_t> group_misses_{0};
  mutable std::atomic<std::size_t> group_stores_{0};
};

/// The delta-eval partition of `records` for sweeping against `ctx`:
/// one group per source document (records grouped by the chunk's
/// doc_id, first-appearance order), with records whose chunk_id is not
/// in ctx.chunks() — exam items — as singleton groups.  Each group's
/// content_fp covers its records' serialized bytes.
std::vector<eval::RecordGroup> record_groups(
    const PipelineContext& ctx, const std::vector<qgen::McqRecord>& records);

}  // namespace mcqa::core
