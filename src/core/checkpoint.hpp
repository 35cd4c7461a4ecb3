#pragma once
// Content-addressed artifact checkpointing.
//
// The build persists three kinds of blob (DESIGN.md §12, §17):
//
//   * docart   — one per document: its whole build subtree (parse
//                outcome, chunks, embeddings, record, trace lanes),
//                keyed by (doc config fingerprint, doc id, doc bytes);
//   * stores   — the chunk store and the three trace stores, keyed by
//                the aggregate hash chain below;
//   * manifest — the corpus -> artifact-set map of one configuration
//                family, which finds delta donors and drives pruning.
//
// The aggregate chain is
//
//   key(artifact) = fnv1a( format version
//                        , code fingerprint (executable identity)
//                        , fingerprint(configs the artifact depends on)
//                        , key(upstream artifact) )
//
// and every blob is an index_io-style length-prefixed binary record.
// Restored artifacts are byte-identical to built ones (tested),
// because a key only decides hit/miss — artifact bytes never depend
// on it.
//
// Determinism contract: keys contain no wall-clock, no thread counts,
// no scheduling state.  The executable fingerprint (path, size, mtime
// of /proc/self/exe) is invalidation metadata — it conservatively
// retires entries whenever the binary is relinked, so stale caches can
// never survive a code change.

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "chunk/chunker.hpp"
#include "embed/embedder.hpp"
#include "parse/adaptive.hpp"
#include "parse/document.hpp"
#include "qgen/benchmark_builder.hpp"
#include "qgen/mcq_record.hpp"
#include "trace/trace_grading.hpp"
#include "trace/trace_record.hpp"

namespace mcqa::corpus {
struct SyntheticCorpus;
}

namespace mcqa::core {

struct PipelineConfig;

/// Bump when any serialization format or generation semantics change
/// without a relink being enough (e.g. hand-edited cache files).
constexpr std::uint64_t kCheckpointFormatVersion = 1;

/// Stable fingerprint of the running executable (path + size + mtime
/// of /proc/self/exe; falls back to the format version alone when the
/// platform hides the executable).  Computed once per process.
std::uint64_t code_fingerprint();

/// Per-artifact cache keys, chained through the build DAG.
struct CheckpointKeys {
  std::uint64_t parsed = 0;
  std::uint64_t chunks = 0;
  std::uint64_t chunk_store = 0;
  std::uint64_t benchmark = 0;
  std::array<std::uint64_t, trace::kTraceModeCount> traces{};
  std::array<std::uint64_t, trace::kTraceModeCount> trace_stores{};
};

/// Derive the key chain from the build configuration.  Thread counts
/// and the embed cache flag are deliberately excluded: they never
/// change artifact bytes (tested), so builds that differ only in them
/// share cache entries.
CheckpointKeys derive_checkpoint_keys(const PipelineConfig& config,
                                      std::size_t embed_dim);

// --- per-document artifact DAG -----------------------------------------------
//
// The aggregate keys above would give all-or-nothing restores.  The
// per-document layer keys each document's whole build subtree — parse
// outcome, chunks, chunk embeddings, accepted record and the three
// trace lanes — individually:
//
//   doc key = H("docart", doc config fingerprint, doc id, doc bytes)
//
// so editing K of N documents dirties exactly K keys.  A manifest blob
// (keyed by the config *family*, excluding corpus-edit knobs) maps the
// corpus to its current artifact set and aggregate store keys, which is
// how a warm run finds the previous revision's stores to delta against
// and how `prune_cache` decides reachability.

/// Fingerprint of every configuration knob that can change a single
/// document's build outputs, independent of the rest of the corpus:
/// parser routing/acceptance, chunker geometry + semantic flag, the
/// embedder identity/dimension, builder thresholds, the knowledge base
/// (the teacher reads it) and the trace generator seed.  Corpus-level
/// knobs are deliberately absent — the document's own bytes carry them.
std::uint64_t doc_config_fingerprint(const PipelineConfig& config,
                                     std::size_t embed_dim);

/// Per-document artifact keys, aligned with `corpus.documents`.
std::vector<std::uint64_t> derive_doc_keys(
    const PipelineConfig& config, const corpus::SyntheticCorpus& corpus,
    std::size_t embed_dim);

/// The manifest slot for this configuration family.  Corpus-edit knobs
/// (seed/count/revision) are excluded on purpose: every revision of the
/// same corpus writes the same slot, so the newest manifest always
/// names the latest artifact set — the previous revision's stores stay
/// reachable through the old aggregate keys until the slot is
/// overwritten, which is exactly the window the IVF-PQ delta path needs
/// its donor in.
std::uint64_t derive_manifest_key(const PipelineConfig& config,
                                  std::size_t embed_dim);

/// A directory of content-addressed artifact files
/// (`<name>-<hexkey>.ckpt`).  Writes are atomic (temp file + rename),
/// so concurrent processes building the same configuration race
/// benignly: both produce identical bytes for identical keys.
class ArtifactCache {
 public:
  /// Load/store/corruption counters for one cache handle (process-local,
  /// not persisted).  `corrupt_blobs` counts blobs that loaded but
  /// failed to decode — the caller reports decode failures through
  /// note_corrupt(), which also reclassifies the load as a miss, so
  /// `hits` only ever counts restores that actually stuck.
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t stores = 0;
    std::size_t corrupt_blobs = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
  };

  /// Creates `dir` (and parents) when missing.
  explicit ArtifactCache(std::string dir);

  const std::string& dir() const { return dir_; }

  /// The blob stored for (name, key), or nullopt on miss.
  std::optional<std::string> load(std::string_view name,
                                  std::uint64_t key) const;

  /// Atomically persist `blob` under (name, key).
  void store(std::string_view name, std::uint64_t key,
             std::string_view blob) const;

  /// Record that the most recent successful load held a corrupt blob
  /// the caller had to discard (it recomputes instead): counts it in
  /// corrupt_blobs and reclassifies the hit as a miss.
  void note_corrupt() const;

  Stats stats() const;

  std::string path_for(std::string_view name, std::uint64_t key) const;

 private:
  std::string dir_;
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
  mutable std::atomic<std::size_t> stores_{0};
  mutable std::atomic<std::size_t> corrupt_{0};
  mutable std::atomic<std::uint64_t> bytes_read_{0};
  mutable std::atomic<std::uint64_t> bytes_written_{0};
};

// --- set-level artifact encoders --------------------------------------------
//
// Encode-only: the build never reads these formats back (it restores
// docart blobs).  They define the artifact digest the golden tests pin,
// core/eval_cache's content fingerprints, and perfbench's digest.

struct ParsedArtifact {
  std::vector<parse::ParsedDocument> documents;  ///< successes, doc order
  parse::RoutingStats routing;
  std::size_t parse_failures = 0;
  std::size_t total_documents = 0;  ///< corpus size incl. failures
};

struct BenchmarkArtifact {
  std::vector<qgen::McqRecord> records;
  qgen::FunnelStats funnel;
};

struct TraceArtifact {
  std::vector<trace::TraceRecord> traces;  ///< post-filter, record order
  trace::TraceGradingStats grading;        ///< pre-filter grading tally
};

std::string serialize_parsed(const ParsedArtifact& a);
std::string serialize_chunks(const std::vector<chunk::Chunk>& chunks);
std::string serialize_benchmark(const BenchmarkArtifact& a);
std::string serialize_traces(const TraceArtifact& a);

/// One evaluation-grid cell: the accuracy tally of (model, condition)
/// over a fixed record set.  Plain counters so the codec stays free of
/// eval-layer types; core::EvalCellCache adapts it to eval::Accuracy.
struct EvalCellArtifact {
  std::string model;            ///< student model name
  std::int64_t condition = 0;   ///< rag::Condition as an integer
  std::uint64_t correct = 0;
  std::uint64_t total = 0;
  std::uint64_t unparseable = 0;
};

std::string serialize_eval_cell(const EvalCellArtifact& a);
EvalCellArtifact deserialize_eval_cell(std::string_view blob);

// --- per-document artifacts --------------------------------------------------

/// One trace-mode lane of one record: present (kept) only when the
/// teacher's trace graded correct — exactly the filter the executor's
/// fused trace task applies.
struct DocTraceArtifact {
  bool kept = false;
  trace::TraceRecord trace;
  std::string retrieval;  ///< trace.retrieval_text(), captured post-grade
  embed::Vector vector;   ///< embed(retrieval), raw fp32 bits
};

/// One chunk's slice of the document subtree.
struct DocChunkArtifact {
  chunk::Chunk chunk;
  embed::Vector vector;  ///< embed(chunk.text), raw fp32 bits
  bool has_record = false;
  qgen::McqRecord record;  ///< valid iff has_record
  std::array<DocTraceArtifact, trace::kTraceModeCount> traces;
};

/// Everything one document's build subtree produces, self-contained so
/// a warm run can restore it without touching any other document.  The
/// per-document funnel deltas sum (in document order) to the global
/// FunnelStats; grading tallies are derived at merge time (graded ==
/// record count per mode, correct == kept count).
struct DocArtifact {
  bool parsed_ok = false;
  std::string route;  ///< AdaptiveParser routing label
  double compute_cost = 0.0;
  parse::ParsedDocument document;  ///< valid iff parsed_ok
  std::vector<DocChunkArtifact> chunks;
  std::uint64_t funnel_candidates = 0;
  std::uint64_t funnel_rejected_no_fact = 0;
  std::uint64_t funnel_rejected_quality = 0;
  std::uint64_t funnel_rejected_relevance = 0;
};

std::string serialize_docart(const DocArtifact& a);
DocArtifact deserialize_docart(std::string_view blob);

/// The corpus -> artifact-set map for one configuration family: the
/// aggregate store keys of the latest revision plus every document's
/// (id, key) pair.  `prune_cache` treats exactly this set as reachable.
struct ManifestArtifact {
  CheckpointKeys keys;
  std::vector<std::string> doc_ids;
  std::vector<std::uint64_t> doc_keys;  ///< aligned with doc_ids
};

std::string serialize_manifest(const ManifestArtifact& a);
ManifestArtifact deserialize_manifest(std::string_view blob);

/// Cache-entry name for a per-mode artifact, e.g. "traces-detailed".
std::string trace_mode_blob_name(std::string_view prefix,
                                 trace::TraceMode mode);

// --- cache maintenance (`mcqa cache`) ----------------------------------------

struct CacheInventoryRow {
  std::string prefix;  ///< blob name ("docart", "eval-cell", ...)
  std::size_t files = 0;
  std::uintmax_t bytes = 0;
};

struct CacheInventory {
  std::vector<CacheInventoryRow> rows;  ///< sorted by prefix
  std::size_t total_files = 0;
  std::uintmax_t total_bytes = 0;
};

/// Per-prefix file/byte counts over the `.ckpt` files in `dir`
/// (deterministic: aggregated by name, never by directory order).
CacheInventory inventory_cache(const std::string& dir);

struct PruneReport {
  std::size_t scanned = 0;
  std::size_t kept = 0;
  std::size_t removed = 0;
  std::uintmax_t removed_bytes = 0;
};

/// Deterministic mark-and-sweep over `dir`: keeps exactly the blobs
/// reachable from `manifest` (the manifest file itself, its per-doc
/// artifacts, and its aggregate store blobs) and removes every other
/// build-artifact blob — including stale revisions and other
/// configurations' manifests.  Eval-cell/eval-group blobs and trained
/// model weights are left alone unless `prune_eval_cells` is set (they
/// are keyed independently of the manifest).  No atime, no wall-clock:
/// two prunes of the same directory state remove the same files.
PruneReport prune_cache(const std::string& dir,
                        const ManifestArtifact& manifest,
                        std::uint64_t manifest_key,
                        bool prune_eval_cells = false);

}  // namespace mcqa::core
