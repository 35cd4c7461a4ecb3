#pragma once
// Quantized index tier: IVF-PQ (inverted lists over product-quantized
// codes, m bytes/row), followed by an exact FP16 rerank pass.
//
// Rerank contract (property-tested): the approximate scan only selects
// an oversampled candidate set — max(min_candidates, k * oversample)
// rows.  Final scores always come from kernels::dot_fp16 over rows
// stored with the exact float->fp16 conversion FlatIndex uses, ranked
// by the same (score desc, row asc) comparator.  Whenever the candidate
// set covers the true top-k (always when it spans the whole store), the
// returned rows AND scores are bit-identical to FlatIndex::search.
// When it does not, the miss is a recall loss, never a score
// perturbation — measured as the recall@k floor in the ablation bench.
//
// Determinism: quantizer training consumes util::Rng streams forked
// from the config seed by stable ids; row encoding parallelizes over a
// pool but writes disjoint pre-sized slots, so built indexes are
// byte-identical across 1/2/8 threads and across add() vs add_batch()
// construction.
//
// Memory accounting (bytes/vector in the ablation bench): IVF-PQ scans
// m-byte codes plus amortized centroids/codebooks (<= 0.35x flat at the
// 1M scale).  The FP16 rerank source is reported separately
// (rerank_bytes()); under mmap those pages stay cold except for the
// few candidate rows each query touches.

#include <cstdint>
#include <string>
#include <vector>

#include "index/vector_index.hpp"

namespace mcqa::index {

struct IvfPqConfig {
  std::size_t nlist = 64;   ///< coarse cells
  std::size_t nprobe = 8;   ///< cells visited per query
  std::size_t m = 16;       ///< subquantizers (bytes/row); clamped to a
                            ///< divisor of dim at build time
  std::size_t ksub = 256;   ///< centroids per subquantizer (<= 256)
  std::size_t coarse_iters = 12;
  std::size_t train_iters = 12;
  std::size_t train_sample = 32768;  ///< PQ codebook training sample cap
  std::size_t oversample = 8;
  std::size_t min_candidates = 64;
  std::uint64_t seed = 77;
};

/// IVF cells over PQ codes: coarse spherical k-means routes queries to
/// nprobe inverted lists; rows inside are scored by the ADC table
/// lookup kernels::pq_lookup, then exact-reranked.  No residual
/// encoding — codebooks quantize the raw sub-vectors, which keeps
/// encode/search simple and is accurate enough for unit-norm rows.
class IvfPqIndex final : public VectorIndex {
 public:
  explicit IvfPqIndex(std::size_t dim, IvfPqConfig config = {});

  std::string_view name() const override { return "ivfpq"; }
  IndexKind kind() const override { return IndexKind::kIvfPq; }
  std::size_t dim() const override { return dim_; }
  std::size_t size() const override { return rows_.size(); }
  void add(const embed::Vector& v) override;
  void add_batch(const std::vector<embed::Vector>& vs) override;
  void build(parallel::ThreadPool& pool) override;

  /// Delta build: reuse `donor`'s trained coarse centroids and PQ
  /// codebooks verbatim (no k-means) and only re-assign cells and
  /// re-encode this index's own rows against them.  Search stays exact
  /// regardless — the fp16 rerank never reads the quantizers' training
  /// provenance — so results remain bit-identical to FlatIndex whenever
  /// the candidate set covers the true top-k.  Falls back to a full
  /// build(pool) when the donor is unusable (dimension mismatch or
  /// untrained).  The donor's quantizers are copied out, so the donor
  /// may be destroyed afterwards (it may view an mmap'd blob).
  void build_frozen(const IvfPqIndex& donor, parallel::ThreadPool& pool);

  std::vector<SearchResult> search(const embed::Vector& query,
                                   std::size_t k) const override;
  /// Tiled: centroid ranking and list scans share row loads across the
  /// tile; each query still scores exactly the rows of its own probed
  /// cells (per-cell sub-tiles), so candidate sets — and therefore the
  /// reranked results — match the per-query path bit-for-bit.
  void search_block(const std::vector<embed::Vector>& queries,
                    std::size_t begin, std::size_t end, std::size_t k,
                    std::vector<std::vector<SearchResult>>& out) const override;

  std::string save() const override;
  static IvfPqIndex load(std::string_view blob);
  /// Codes and rerank rows view `blob` (caller keeps the bytes alive).
  static IvfPqIndex load_view(std::string_view blob);

  std::size_t payload_bytes() const override {
    return codes_.value_count() * sizeof(std::uint8_t) +
           (centroids_.value_count() + codebooks_.value_count()) *
               sizeof(float) +
           size() * sizeof(std::uint32_t);  // one list slot per row
  }
  std::size_t rerank_bytes() const override {
    return rows_.value_count() * sizeof(util::fp16_t);
  }
  bool mmap_backed() const override { return codes_.is_view(); }

  void set_nprobe(std::size_t nprobe) { config_.nprobe = nprobe; }
  void set_oversample(std::size_t oversample) {
    config_.oversample = oversample;
  }
  void set_min_candidates(std::size_t min_candidates) {
    config_.min_candidates = min_candidates;
  }
  std::size_t nlist() const { return centroids_.size(); }

  // --- introspection (tests) -------------------------------------------------

  /// Effective subquantizer count (largest divisor of dim <= config.m).
  std::size_t subquantizers() const { return m_; }
  std::size_t codebook_size() const { return ksub_; }
  /// Trained codebooks, [m * ksub] rows of dim/m floats — byte-stable
  /// across thread counts (determinism property tests compare these).
  const RowStorage& codebooks() const { return codebooks_; }
  const CodeRows& codes() const { return codes_; }
  const Fp16Rows& rows() const { return rows_; }

  std::vector<SearchResult> approx_candidates(const embed::Vector& query,
                                              std::size_t count) const;

 private:
  friend struct IndexIo;

  void encode_rows(parallel::ThreadPool& pool, const RowStorage& floats);

  std::size_t dim_;
  IvfPqConfig config_;
  std::size_t m_ = 0;     ///< effective subquantizers (divisor of dim)
  std::size_t ksub_ = 0;  ///< effective codebook size
  bool built_ = false;
  Fp16Rows rows_;         ///< exact-rerank source
  CodeRows codes_;        ///< m_ codes per row
  RowStorage centroids_;  ///< coarse quantizer (dim floats per row)
  RowStorage codebooks_;  ///< m_*ksub_ rows of dim/m_ floats
  std::vector<std::vector<std::uint32_t>> lists_;  ///< rows per cell
};

}  // namespace mcqa::index
