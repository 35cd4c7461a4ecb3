#pragma once
// Vector similarity indexes (FAISS-equivalent substrate).
//
// Three implementations with the classic accuracy/speed/memory
// trade-offs:
//   FlatIndex    exact brute force over FP16-at-rest vectors
//   Sq8Index     scalar-quantized (uint8/dim) scan + exact fp16 rerank
//   IvfPqIndex   IVF cells over product-quantized codes + exact rerank
// (the quantized tier lives in quantized.hpp; this header carries the
// interface and the exact flat index).
//
// All operate on unit-norm vectors with inner-product scoring (cosine),
// computed by the blocked fixed-lane-order kernels in kernels.hpp —
// scores are bit-identical across runs, thread counts and build flags.
//
// Serialization: every index saves to a version-stamped blob
// (index_io.cpp).  Blobs load either resident (payload copied) or as a
// borrowed view over caller-owned bytes — the mmap path (mmap_file.hpp)
// that opens stores larger than RAM without copying the payload.
// try_load_index() is the fail-soft dispatcher: unknown magic,
// truncated payloads or out-of-range codes return nullptr instead of
// throwing, which the checkpoint cache treats as a corrupt-blob miss.
//
// The index ablation bench (A1) sweeps recall@k versus queries/second
// and bytes/vector across all three kinds x {resident, mmap},
// reproducing the trade-off surface the paper delegates to FAISS.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "embed/embedder.hpp"
#include "index/kernels.hpp"
#include "index/mmap_file.hpp"
#include "index/row_storage.hpp"
#include "util/fp16.hpp"
#include "util/rng.hpp"

namespace mcqa::parallel {
class ThreadPool;
}

namespace mcqa::index {

/// Values 1 and 2 are retired, not reused: value-parameterized tests
/// print a kind's raw bytes in their names, and checkpoint keys hash
/// the value, so renumbering would rename tests and re-key stores.
enum class IndexKind { kFlat = 0, kSq8 = 3, kIvfPq = 4 };

std::string_view index_kind_name(IndexKind kind);

struct SearchResult {
  std::size_t row = 0;
  float score = 0.0f;  ///< inner product (cosine for unit vectors)
};

class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  virtual std::string_view name() const = 0;
  virtual IndexKind kind() const = 0;
  virtual std::size_t dim() const = 0;
  virtual std::size_t size() const = 0;

  /// Append a vector; rows number 0..n-1 in insertion order.
  virtual void add(const embed::Vector& v) = 0;

  /// Append a batch of vectors.  Equivalent to calling add() row by row
  /// in order — bit-identical resulting index — but reserves storage
  /// once up front (bulk construction path).
  virtual void add_batch(const std::vector<embed::Vector>& vs) = 0;

  /// Finalize after adds (train quantizers, encode rows).  Must be
  /// called before search for the quantized tier; no-op for flat.
  virtual void build() {}

  /// Finalize using `pool` for the parallelizable build phases (row
  /// encoding).  The result is bit-identical to build() at any thread
  /// count; the default forwards to the sequential build().
  virtual void build(parallel::ThreadPool& pool);

  /// Serialize to the version-stamped blob format (index_io.cpp).
  virtual std::string save() const = 0;

  /// Bytes of the structures a query scan touches (rows or codes plus
  /// codebooks/centroids) — the "bytes/vector" numerator of the
  /// ablation bench.  Excludes the exact-rerank source; see
  /// rerank_bytes().
  virtual std::size_t payload_bytes() const = 0;

  /// Bytes of the exact fp16 rerank source held by the quantized tier
  /// (0 for the flat index).  Under mmap these pages stay cold
  /// except for the oversampled candidates each query touches.
  virtual std::size_t rerank_bytes() const { return 0; }

  /// True when the primary payload is a borrowed view over an mmap'd
  /// blob (no resident copy was made at load time).
  virtual bool mmap_backed() const { return false; }

  /// Top-k rows by score, descending; ties broken by row id.
  virtual std::vector<SearchResult> search(const embed::Vector& query,
                                           std::size_t k) const = 0;

  /// Score queries [begin, end) on the calling thread, writing
  /// out[begin..end) — the sequential unit the batched paths are built
  /// from.  Contract: out[i] is identical (rows and scores) to
  /// search(queries[i], k).  Every kind runs Q x R tiled scans (kTileQ
  /// queries share each row load — kernels.hpp) whose per-query
  /// results the tile kernels keep bit-identical.
  virtual void search_block(
      const std::vector<embed::Vector>& queries, std::size_t begin,
      std::size_t end, std::size_t k,
      std::vector<std::vector<SearchResult>>& out) const = 0;

  /// Tiled batch search on the calling thread (no pool): one
  /// search_block over the whole batch.  Result i is bit-identical to
  /// search(queries[i], k).
  std::vector<std::vector<SearchResult>> search_tiled(
      const std::vector<embed::Vector>& queries, std::size_t k) const;

  /// Batched search: whole query tiles fan out across `pool` workers
  /// in deterministic tile-aligned blocks (each task owns a contiguous
  /// query range and writes its own result slots), each with its own
  /// scratch, and results land in query order.  Result i is identical
  /// (rows and scores) to `search(queries[i], k)` regardless of the
  /// pool's thread count.
  std::vector<std::vector<SearchResult>> search_batch(
      const std::vector<embed::Vector>& queries, std::size_t k,
      parallel::ThreadPool& pool) const;

  /// Batched search on the process-wide default pool.
  std::vector<std::vector<SearchResult>> search_batch(
      const std::vector<embed::Vector>& queries, std::size_t k) const;
};

// --- blob IO (index_io.cpp) --------------------------------------------------

/// Load any index blob, dispatching on the version-stamped magic.
/// Throws std::runtime_error on unknown magic or malformed payload.
std::unique_ptr<VectorIndex> load_index(std::string_view blob);

/// Fail-soft variant: nullptr on unknown magic, truncated payload, or
/// any other defect — never throws.  The checkpoint restore path treats
/// nullptr as a corrupt-blob cache miss and rebuilds.
std::unique_ptr<VectorIndex> try_load_index(std::string_view blob) noexcept;

/// View-mode variant: row/code payloads borrow from `blob` instead of
/// being copied, so the caller must keep `blob`'s bytes alive (and
/// suitably aligned — guaranteed when `blob` is a whole mapped file)
/// for the index's lifetime.  Small metadata (headers, quantizer
/// parameters, IVF-PQ lists) is still materialized.
std::unique_ptr<VectorIndex> load_index_view(std::string_view blob);

/// An index opened straight from a file: the mapping and the index
/// (whose payloads view the mapping) travel together.
struct MappedIndex {
  std::shared_ptr<MappedFile> file;
  std::unique_ptr<VectorIndex> index;
};

/// Map `path` and open the index inside it in view mode — no payload
/// copy, and O(1) in the payload size except for the IVF-PQ code check
/// of a codebook smaller than 256 entries (one pass over the codes).
/// Throws std::runtime_error on IO errors or bad blobs.
MappedIndex open_index_mmap(const std::string& path);

// --- Flat ------------------------------------------------------------------

class FlatIndex final : public VectorIndex {
 public:
  explicit FlatIndex(std::size_t dim) : dim_(dim), data_(dim) {}

  std::string_view name() const override { return "flat"; }
  IndexKind kind() const override { return IndexKind::kFlat; }
  std::size_t dim() const override { return dim_; }
  std::size_t size() const override { return data_.size(); }
  void add(const embed::Vector& v) override;
  void add_batch(const std::vector<embed::Vector>& vs) override;
  std::vector<SearchResult> search(const embed::Vector& query,
                                   std::size_t k) const override;
  /// Tiled: each fp16 row is widened once per kTileQ queries.
  void search_block(const std::vector<embed::Vector>& queries,
                    std::size_t begin, std::size_t end, std::size_t k,
                    std::vector<std::vector<SearchResult>>& out) const override;

  std::string save() const override;
  static FlatIndex load(std::string_view blob);
  /// Payload views `blob` (caller keeps the bytes alive).
  static FlatIndex load_view(std::string_view blob);

  std::size_t payload_bytes() const override {
    return data_.value_count() * sizeof(util::fp16_t);
  }
  bool mmap_backed() const override { return data_.is_view(); }

  /// Widened copy of a stored row.
  embed::Vector vector(std::size_t row) const;

  /// The FP16-at-rest rows — the quantized tier's exact-rerank source
  /// stores the same bits, so rerank scores match these bit-for-bit.
  const Fp16Rows& rows() const { return data_; }

 private:
  friend struct IndexIo;

  float score_row(std::size_t row, const embed::Vector& q) const;

  std::size_t dim_;
  Fp16Rows data_;  ///< row-major FP16 at rest (resident or mmap view)
};

/// Exact ground truth for recall measurement: brute force over raw
/// vectors (float precision).
std::vector<SearchResult> exact_search(const std::vector<embed::Vector>& data,
                                       const embed::Vector& query,
                                       std::size_t k);

/// recall@k of `got` against exact `want` (fraction of want rows present).
double recall_at_k(const std::vector<SearchResult>& got,
                   const std::vector<SearchResult>& want);

}  // namespace mcqa::index
