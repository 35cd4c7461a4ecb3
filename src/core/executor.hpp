#pragma once
// The pipeline's one build producer.  Stages 1-5 of the build run as
// one dataflow on a single ThreadPool.  Each document's parse+chunk
// task spawns that document's per-chunk embed and MCQ generation tasks
// the moment its chunks exist; every accepted record immediately
// spawns its three trace-mode tasks (generate + grade + retrieval-text
// embed, fused), so the detailed/focused/efficient lanes run
// concurrently.  All results land in per-item slots and are merged in
// (document, chunk, mode) order afterwards, which makes every artifact
// byte-identical at any thread count; pinned golden digests
// (tests/golden_digest_test.cpp) hold those bytes fixed.

#include <vector>

#include "core/pipeline.hpp"

namespace mcqa::parallel {
class ThreadPool;
}

namespace mcqa::core {

class ArtifactCache;
struct DocArtifact;

/// Runs stages 1-5 (parse .. trace stores) for a PipelineContext whose
/// corpus and embedder are already in place.
class OverlappedBuilder {
 public:
  explicit OverlappedBuilder(PipelineContext& ctx) : ctx_(ctx) {}

  /// Build every document subtree, merge, and assemble the four stores
  /// (chunks + one per trace mode) as concurrent pool tasks.
  ///
  /// With `cache == nullptr` nothing is serialized: every document is
  /// computed and every store built cold.  With a cache the build is
  /// incremental (DESIGN.md §17): it restores every document whose
  /// artifact key still matches, recomputes only the dirty subtrees
  /// through the same dataflow tree, rebuilds the stores (delta-aware
  /// for IVF-PQ), and rewrites the manifest.  Artifacts are
  /// byte-identical either way at any thread count: restored slots hold
  /// exactly the bytes the dataflow would have produced, and the merge
  /// is index-ordered.  Fills stats.doc_artifacts_* on the cache path.
  void run(parallel::ThreadPool& pool, const ArtifactCache* cache);

 private:
  struct TraceSlot;
  struct DocSlots;
  struct StoreRows;

  /// Run the per-document dataflow tree into `slots` for the documents
  /// flagged in `dirty`.
  void build_slots(parallel::ThreadPool& pool, std::vector<DocSlots>& slots,
                   const std::vector<char>& dirty);
  /// Merge `slots` into the context in (document, chunk, mode) order and
  /// return the store-ready rows.  Consumes the slots' payloads.
  StoreRows merge_slots(std::vector<DocSlots>& slots);

  static DocArtifact to_artifact(const DocSlots& slot);
  static void fill_slot(DocSlots& slot, DocArtifact&& artifact);

  PipelineContext& ctx_;
};

}  // namespace mcqa::core
