#pragma once
// Vector similarity indexes (FAISS-equivalent substrate).
//
// Two implementations with the classic accuracy/speed/memory
// trade-off:
//   FlatIndex    exact brute force over FP16-at-rest vectors
//   IvfPqIndex   IVF cells over product-quantized codes + exact rerank
// (the quantized tier lives in quantized.hpp; this header carries the
// interface and the exact flat index).
//
// All operate on unit-norm vectors with inner-product scoring (cosine),
// computed by the blocked fixed-lane-order kernels in kernels.hpp —
// scores are bit-identical across runs, thread counts and build flags.
//
// FlatIndex answers through a certified scan (DESIGN.md §10): an exact
// int8 first pass bounds every row's fp16 score from above, and only
// rows whose bound reaches the query's current k-th score are scored
// by dot_fp16.  The hits are the full fp16 scan's, id for id and bit
// for bit.
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
// and bytes/vector across both kinds x {resident, mmap},
// reproducing the trade-off surface the paper delegates to FAISS.

#include <cstdint>
#include <memory>
#include <mutex>
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

/// Values 1 to 3 are retired, not reused: value-parameterized tests
/// print a kind's raw bytes in their names, and checkpoint keys hash
/// the value, so renumbering would rename tests and re-key stores.
enum class IndexKind { kFlat = 0, kIvfPq = 4 };

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

  /// Finalize after adds (train quantizers, encode rows) on `pool`.
  /// Must be called before search for the quantized tier; no-op for
  /// flat.  The result is bit-identical at any pool width.
  virtual void build(parallel::ThreadPool& /*pool*/) {}

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

/// Process-wide tallies of FlatIndex scans: queries answered, rows they
/// covered, and rows the certified scan scored with dot_fp16.  Relaxed
/// counters for reporting (reranked / queries is the rerank load).
struct FlatScanCounts {
  std::uint64_t queries = 0;
  std::uint64_t rows = 0;
  std::uint64_t reranked = 0;
};
FlatScanCounts flat_scan_counts();

class FlatIndex final : public VectorIndex {
 public:
  explicit FlatIndex(std::size_t dim) : dim_(dim), data_(dim) {}

  std::string_view name() const override { return "flat"; }
  IndexKind kind() const override { return IndexKind::kFlat; }
  std::size_t dim() const override { return dim_; }
  std::size_t size() const override { return data_.size(); }
  void add(const embed::Vector& v) override;
  void add_batch(const std::vector<embed::Vector>& vs) override;
  /// Certified scan of one query: the full fp16 scan's top-k.
  std::vector<SearchResult> search(const embed::Vector& query,
                                   std::size_t k) const override;
  /// Tiled: the int8 first pass reads each code row once per kTileQ
  /// queries; each query then reranks its own candidates.
  void search_block(const std::vector<embed::Vector>& queries,
                    std::size_t begin, std::size_t end, std::size_t k,
                    std::vector<std::vector<SearchResult>>& out) const override;

  std::string save() const override;
  static FlatIndex load(std::string_view blob);
  /// Payload views `blob` (caller keeps the bytes alive).
  static FlatIndex load_view(std::string_view blob);

  /// The fp16 rows; the int8 codes derived from them are not persisted
  /// and not counted.
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

  /// What the certified scan keeps per row, derived from the fp16 rows
  /// (never persisted): int8 codes c = round(x / s_r) with
  /// s_r = max|x| / 127, offset-binary (c + 128), and the bound's row
  /// coefficients, each rounded up to float.
  struct Codes {
    std::vector<std::uint8_t> bytes;  ///< rows x dim
    std::vector<float> scale;         ///< s_r
    std::vector<float> alpha;         ///< >= |s_r c|
    /// >= (rho_r + gamma |x|) (1 + 4u): the residual rho_r = |x - s_r c|
    /// and the fp32 kernel's rounding both multiply |q|.
    std::vector<float> slack;
    float max_norm = 0.0f;  ///< >= max_r |x_r|
    bool finite = true;     ///< no row holds a non-finite value

    void reserve(std::size_t rows, std::size_t dim);
    void append(const util::fp16_t* row, std::size_t dim);
    static Codes of(const Fp16Rows& rows);
  };

  /// An mmap view's codes, derived on its first scan.  Shared by
  /// copies, which view the same immutable rows.
  struct ViewCodes {
    std::once_flag once;
    Codes codes;
  };

  const Codes& codes() const;
  /// After a load: resident rows derive their codes now, a view on its
  /// first scan.
  void derive_codes();

  /// The certified scan of qn (<= kTileQ) queries, on the calling
  /// thread; out[q] receives query q's top-k.
  void scan(const float* const* qs, std::size_t qn, std::size_t k,
            std::vector<SearchResult>* out) const;

  std::size_t dim_;
  Fp16Rows data_;  ///< row-major FP16 at rest (resident or mmap view)
  Codes codes_;    ///< resident rows: derived at add, add_batch and load
  std::shared_ptr<ViewCodes> view_codes_;  ///< mmap views only
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
