#pragma once
// Blocked similarity kernels + bounded top-k selection for the vector
// indexes (the FAISS-equivalent hot path).
//
// Determinism contract (see DESIGN.md "Similarity kernels"): every
// kernel accumulates into kLanes == 8 partial sums — lane l takes
// elements l, l+8, l+16, ... (the tail continues the same lane
// rotation) — and combines them in one fixed tree:
//
//   ((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))
//
// That blocked order is the ONLY summation order on every build
// configuration.  The kernel translation units are always compiled
// with -ffp-contract=off, so vector ISA flags merely let the compiler
// map the 8 independent lanes onto SIMD registers; they cannot fuse
// multiply-adds or reassociate, and scores stay bit-identical across
// ISAs, thread counts and runs.
//
// Two layers sit on that contract:
//
//  * Tiled multi-query variants (`*_tile`): score one row against a
//    block of up to kTileQ queries in a single pass, loading /
//    fp16-widening / ADC-indexing the row ONCE per tile instead of
//    once per query.  Each query's accumulator sees exactly
//    the per-element operation sequence of the single-query kernel, so
//    tiling can change throughput but never a score bit (property-
//    tested in tiled_scan_test).
//
//  * Runtime ISA dispatch: the same loop bodies are compiled into a
//    baseline scalar TU and AVX2 TUs (-mavx2 -mf16c, two of them also
//    with AVX-VNNI or AVX512-VNNI for the integer first pass) — and a
//    function-pointer table (KernelOps) picks one at startup via cpuid
//    (the AVX2 tables need both AVX2 and F16C).  MCQA_KERNEL_ISA=
//    scalar|avx2 overrides the choice for testing; unavailable requests
//    fail soft to scalar.  Because every TU shares one -ffp-contract=off
//    source, and F16C widening equals util::fp16_to_float on every
//    code, every float entry point is bit-identical across the tables.
//
//  * The certified flat scan's integer first pass (encode_i8,
//    dot_i8_rows): int8 row codes against int8 query codes, summed
//    exactly in int32, so every body (scalar, AVX2 vpmaddwd, VNNI
//    vpdpbusd) returns the same integers.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/fp16.hpp"

namespace mcqa::index {

struct SearchResult;  // vector_index.hpp

namespace kernels {

/// Lane count of the blocked accumulation (fixed by the determinism
/// contract; chosen to fill one AVX2 register of floats).
inline constexpr std::size_t kLanes = 8;

/// Maximum query-tile width of the `*_tile` kernels.  Callers pass
/// qn <= kTileQ per call; ragged final tiles (qn < kTileQ) are fine.
inline constexpr std::size_t kTileQ = 8;

/// Blocked inner product over two float rows.
float dot(const float* a, const float* b, std::size_t n);

/// Blocked squared Euclidean distance over two float rows.
float l2_sq(const float* a, const float* b, std::size_t n);

/// Fused fp16-dequantize + blocked inner product: `a` is an FP16-at-rest
/// row, widened by F16C (AVX2 table) or a 64K-entry lookup table
/// (scalar table), both bit-identical to util::fp16_to_float.
float dot_fp16(const util::fp16_t* a, const float* b, std::size_t n);

/// PQ asymmetric-distance lookup: sum_{j<m} tables[j * ksub + codes[j]]
/// in the fixed 8-lane order.  `tables` is the per-query score table
/// laid out [subquantizer][centroid].
float pq_lookup(const std::uint8_t* codes, const float* tables,
                std::size_t m, std::size_t ksub);

// --- tiled multi-query variants ---------------------------------------------
//
// Each scores ONE row against qn (<= kTileQ) queries in a single pass,
// writing out[q] for q in [0, qn).  Guarantee: out[q] is bit-identical
// to the corresponding single-query kernel on (row, query q) — the
// per-query accumulator lanes see the same elements in the same order;
// only the row-side loads/decodes are shared across the tile.

/// out[q] = dot(row, qs[q], n).
void dot_tile(const float* row, const float* const* qs, std::size_t qn,
              std::size_t n, float* out);

/// out[q] = dot_fp16(row, qs[q], n) — the row is widened once.
void dot_fp16_tile(const util::fp16_t* row, const float* const* qs,
                   std::size_t qn, std::size_t n, float* out);

/// out[q] = pq_lookup(codes, tables[q], m, ksub) — code bytes and table
/// offsets are computed once per tile.
void pq_lookup_tile(const std::uint8_t* codes, const float* const* tables,
                    std::size_t qn, std::size_t m, std::size_t ksub,
                    float* out);

// --- integer first pass of the certified flat scan (DESIGN.md §10) ----------

/// What encode_i8 reports about one row besides its codes.  The sums
/// run in the fixed 8-lane order, so they are the same on every table.
struct I8RowSums {
  float scale = 0.0f;   ///< s = max|x| / 127 (0 for a zero row)
  float sum_x2 = 0.0f;  ///< blocked float sum of x_i^2 (non-finite iff
                        ///< the row holds a non-finite value)
  float sum_e2 = 0.0f;  ///< blocked float sum of (x_i - fl(s * c_i))^2
  /// Exact sum of c_i^2 (each of the eight int32 lane sums stays below
  /// 2^31 for n <= 2^20, the largest dim a blob may declare).
  std::int64_t sum_c2 = 0;
};

/// Codes of one fp16 row: c_i = round(x_i / s) clamped to [-127, 127],
/// stored offset-binary (codes[i] = c_i + 128), plus the sums the scan's
/// bound is built from.  A row holding a non-finite value gets all-zero
/// codes (128) and a non-finite sum_x2.
I8RowSums encode_i8(const util::fp16_t* row, std::size_t n,
                    std::uint8_t* codes);

/// Exact integer dots of `rows` consecutive offset-binary code rows
/// (n bytes each) against qn (<= kTileQ) signed query code vectors:
/// out[q * rows + r] = sum_i codes[r * n + i] * qs[q][i].  The caller
/// subtracts 128 * sum_i qs[q][i] to get sum_i c_i * d_i.  Exact for
/// n < 66,000 (255 * 127 * n < 2^31).
void dot_i8_rows(const std::uint8_t* codes, std::size_t rows, std::size_t n,
                 const std::int8_t* const* qs, std::size_t qn,
                 std::int32_t* out);

// --- runtime ISA dispatch ---------------------------------------------------

enum class KernelIsa { kScalar, kAvx2 };

/// Which instructions a table's dot_i8_rows runs: plain C++, AVX2
/// vpmaddwd on widened codes, or vpdpbusd (AVX-VNNI or AVX512-VNNI).
enum class Int8Body { kScalar, kAvx2, kVnni };

/// One resolved kernel table: the free functions above forward through
/// the active one.  Exposed so tests/benches can drive a specific ISA
/// directly (ops_for, usable_ops) and compare tables bit-for-bit.
struct KernelOps {
  KernelIsa isa;   ///< what the float kernels were compiled for
  Int8Body int8;   ///< what dot_i8_rows runs
  float (*dot)(const float*, const float*, std::size_t);
  float (*l2_sq)(const float*, const float*, std::size_t);
  float (*dot_fp16)(const util::fp16_t*, const float*, std::size_t);
  float (*pq_lookup)(const std::uint8_t*, const float*, std::size_t,
                     std::size_t);
  void (*dot_tile)(const float*, const float* const*, std::size_t,
                   std::size_t, float*);
  void (*dot_fp16_tile)(const util::fp16_t*, const float* const*,
                        std::size_t, std::size_t, float*);
  void (*pq_lookup_tile)(const std::uint8_t*, const float* const*,
                         std::size_t, std::size_t, std::size_t, float*);
  I8RowSums (*encode_i8)(const util::fp16_t*, std::size_t, std::uint8_t*);
  void (*dot_i8_rows)(const std::uint8_t*, std::size_t, std::size_t,
                      const std::int8_t* const*, std::size_t, std::int32_t*);
};

/// Table for `isa`, or nullptr when it is unusable here (compiler had
/// no -mavx2 -mf16c, or the CPU lacks AVX2 or F16C).  kScalar never
/// fails.  For kAvx2 it is the AVX2 table with the best integer body
/// the CPU runs (VNNI when cpuid reports AVX-VNNI or AVX512-VNNI).
const KernelOps* ops_for(KernelIsa isa);

/// Every table this binary compiled and this CPU can run, scalar first:
/// one per integer body, and both VNNI encodings when both are usable.
std::vector<const KernelOps*> usable_ops();

/// The ISA the free functions currently forward to.  Resolved once on
/// first kernel call: MCQA_KERNEL_ISA=scalar|avx2 if set (unusable or
/// unknown values fail soft), else the best cpuid-supported table.
KernelIsa dispatched_isa();

/// "scalar" / "avx2".
std::string_view isa_name(KernelIsa isa);

/// The integer body the active table runs.
Int8Body dispatched_int8_body();

/// "scalar" / "avx2" / "vnni".
std::string_view int8_body_name(Int8Body body);

/// Pure resolution rule (unit-testable): what dispatched_isa() would
/// pick given an MCQA_KERNEL_ISA value (nullptr = unset) and whether
/// the AVX2 table is usable.
KernelIsa resolve_isa(const char* override_name, bool avx2_usable);

/// True when this CPU reports AVX2 and F16C support (what the AVX2
/// table executes).
bool cpu_supports_avx2();

/// Swap the active table (tests/benches comparing ISAs in-process).
/// Returns false — leaving dispatch unchanged — when `isa` is
/// unusable.  Not safe to call concurrently with running kernels.
bool set_dispatch_for_testing(KernelIsa isa);

/// Same, for one table of usable_ops() (false on nullptr).
bool set_dispatch_for_testing(const KernelOps* table);

}  // namespace kernels

/// Bounded-heap top-k selector: keeps the best k results by
/// (score descending, row ascending) without materializing or sorting
/// the full candidate set.  Replaces sort-everything-then-trim on the
/// search hot paths; `take_sorted()` yields exactly the order the old
/// full sort produced.
///
/// The kept set — and therefore take_sorted() — is a pure function of
/// the (row, score) multiset pushed: the comparator is a total order,
/// so push order cannot change the outcome.  The tiled scan paths rely
/// on this to regroup row visits across a query tile without
/// perturbing any query's results (tested in tiled_scan_test).
class TopK {
 public:
  explicit TopK(std::size_t k) : k_(k) {}

  /// Drop accumulated results and change capacity (scratch reuse).
  void reset(std::size_t k);

  void push(std::size_t row, float score);

  std::size_t size() const { return heap_.size(); }

  /// Worst kept score (only meaningful once size() == k).
  float threshold() const;

  /// True when a candidate with `score` cannot enter the heap.
  bool full() const { return heap_.size() >= k_; }

  /// Results in descending score order (ties by ascending row).
  /// Leaves the selector empty.
  std::vector<SearchResult> take_sorted();

 private:
  std::size_t k_;
  std::vector<SearchResult> heap_;  ///< worst-kept-on-top heap
};

}  // namespace mcqa::index
