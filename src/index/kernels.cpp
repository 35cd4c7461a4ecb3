// Kernel dispatch layer.  The loop bodies live in kernels_impl.inc and
// are compiled into one table per TU — kernels_scalar.cpp (baseline
// flags), kernels_avx2.cpp (-mavx2 -mf16c) and the two VNNI variants of
// the AVX2 table — all with -ffp-contract=off, so the float kernels are
// bit-identical across tables, the integer ones exact on each, and
// dispatch is purely a throughput choice.  This TU resolves which table
// the public free functions forward to: MCQA_KERNEL_ISA=scalar|avx2 if
// set (unusable or unknown values fail soft to auto), otherwise the
// best table cpuid supports.

#include "index/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>

#include "index/kernels_detail.hpp"
#include "index/vector_index.hpp"

namespace mcqa::index {

namespace kernels {

const float* detail::fp16_table() {
  // The scalar table's 256 KB widening table: fp16 bit pattern ->
  // float, identical to util::fp16_to_float (and so to the AVX2
  // table's F16C widening) for every one of the 65536 inputs (asserted
  // by the kernel-equivalence tests).  Turns the branchy software
  // conversion into a single load on the scan paths.
  static const std::vector<float> table = [] {
    std::vector<float> t(1u << 16);
    for (std::uint32_t i = 0; i < (1u << 16); ++i) {
      t[i] = util::fp16_to_float(static_cast<util::fp16_t>(i));
    }
    return t;
  }();
  return table.data();
}

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

namespace {

bool cpu_supports_avxvnni() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avxvnni");
#else
  return false;
#endif
}

bool cpu_supports_avx512vnni() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512vnni") &&
         __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

/// The VNNI tables this CPU runs, preferred first.
std::vector<const KernelOps*> usable_vnni_ops() {
  std::vector<const KernelOps*> out;
  if (!cpu_supports_avx2()) return out;
  if (detail::avxvnni_ops() != nullptr && cpu_supports_avxvnni()) {
    out.push_back(detail::avxvnni_ops());
  }
  if (detail::avx512vnni_ops() != nullptr && cpu_supports_avx512vnni()) {
    out.push_back(detail::avx512vnni_ops());
  }
  return out;
}

}  // namespace

const KernelOps* ops_for(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return &detail::scalar_ops();
    case KernelIsa::kAvx2: {
      const std::vector<const KernelOps*> vnni = usable_vnni_ops();
      if (!vnni.empty()) return vnni.front();
      const KernelOps* table = detail::avx2_ops();
      return (table != nullptr && cpu_supports_avx2()) ? table : nullptr;
    }
  }
  return nullptr;
}

std::vector<const KernelOps*> usable_ops() {
  std::vector<const KernelOps*> out{&detail::scalar_ops()};
  if (detail::avx2_ops() != nullptr && cpu_supports_avx2()) {
    out.push_back(detail::avx2_ops());
  }
  for (const KernelOps* table : usable_vnni_ops()) out.push_back(table);
  return out;
}

KernelIsa resolve_isa(const char* override_name, bool avx2_usable) {
  if (override_name != nullptr) {
    const std::string_view v(override_name);
    if (v == "scalar") return KernelIsa::kScalar;
    if (v == "avx2") {
      return avx2_usable ? KernelIsa::kAvx2 : KernelIsa::kScalar;
    }
    // Unknown names fall through to auto detection (fail soft: results
    // are bit-identical either way, only throughput differs).
  }
  return avx2_usable ? KernelIsa::kAvx2 : KernelIsa::kScalar;
}

namespace {

/// The active table.  Starts unresolved; the first kernel call runs
/// the env + cpuid resolution.  A racing first call resolves to the
/// same pointer, so the store is idempotent.
std::atomic<const KernelOps*> g_active{nullptr};

}  // namespace

const KernelOps& detail::active_ops() {
  const KernelOps* table = g_active.load(std::memory_order_acquire);
  if (table != nullptr) return *table;
  const KernelIsa isa = resolve_isa(std::getenv("MCQA_KERNEL_ISA"),
                                    ops_for(KernelIsa::kAvx2) != nullptr);
  table = ops_for(isa);
  g_active.store(table, std::memory_order_release);
  return *table;
}

KernelIsa dispatched_isa() { return detail::active_ops().isa; }

std::string_view isa_name(KernelIsa isa) {
  return isa == KernelIsa::kAvx2 ? "avx2" : "scalar";
}

Int8Body dispatched_int8_body() { return detail::active_ops().int8; }

std::string_view int8_body_name(Int8Body body) {
  switch (body) {
    case Int8Body::kScalar:
      return "scalar";
    case Int8Body::kAvx2:
      return "avx2";
    case Int8Body::kVnni:
      return "vnni";
  }
  return "scalar";
}

bool set_dispatch_for_testing(KernelIsa isa) {
  return set_dispatch_for_testing(ops_for(isa));
}

bool set_dispatch_for_testing(const KernelOps* table) {
  if (table == nullptr) return false;
  g_active.store(table, std::memory_order_release);
  return true;
}

// --- public entry points (forward through the active table) -----------------

float dot(const float* a, const float* b, std::size_t n) {
  return detail::active_ops().dot(a, b, n);
}

float l2_sq(const float* a, const float* b, std::size_t n) {
  return detail::active_ops().l2_sq(a, b, n);
}

float dot_fp16(const util::fp16_t* a, const float* b, std::size_t n) {
  return detail::active_ops().dot_fp16(a, b, n);
}

float pq_lookup(const std::uint8_t* codes, const float* tables,
                std::size_t m, std::size_t ksub) {
  return detail::active_ops().pq_lookup(codes, tables, m, ksub);
}

void dot_tile(const float* row, const float* const* qs, std::size_t qn,
              std::size_t n, float* out) {
  detail::active_ops().dot_tile(row, qs, qn, n, out);
}

void dot_fp16_tile(const util::fp16_t* row, const float* const* qs,
                   std::size_t qn, std::size_t n, float* out) {
  detail::active_ops().dot_fp16_tile(row, qs, qn, n, out);
}

void pq_lookup_tile(const std::uint8_t* codes, const float* const* tables,
                    std::size_t qn, std::size_t m, std::size_t ksub,
                    float* out) {
  detail::active_ops().pq_lookup_tile(codes, tables, qn, m, ksub, out);
}

I8RowSums encode_i8(const util::fp16_t* row, std::size_t n,
                    std::uint8_t* codes) {
  return detail::active_ops().encode_i8(row, n, codes);
}

void dot_i8_rows(const std::uint8_t* codes, std::size_t rows, std::size_t n,
                 const std::int8_t* const* qs, std::size_t qn,
                 std::int32_t* out) {
  detail::active_ops().dot_i8_rows(codes, rows, n, qs, qn, out);
}

}  // namespace kernels

// --- TopK --------------------------------------------------------------------

namespace {

/// Ranking order of the indexes: higher score first, ties by row id.
/// Used as the heap "less" so the WORST kept result sits on top.
inline bool better(const SearchResult& a, const SearchResult& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.row < b.row;
}

}  // namespace

void TopK::reset(std::size_t k) {
  k_ = k;
  heap_.clear();
}

float TopK::threshold() const {
  return heap_.empty() ? -std::numeric_limits<float>::infinity()
                       : heap_.front().score;
}

void TopK::push(std::size_t row, float score) {
  if (k_ == 0) return;
  const SearchResult cand{row, score};
  if (heap_.size() < k_) {
    heap_.push_back(cand);
    std::push_heap(heap_.begin(), heap_.end(), better);
    return;
  }
  if (!better(cand, heap_.front())) return;
  std::pop_heap(heap_.begin(), heap_.end(), better);
  heap_.back() = cand;
  std::push_heap(heap_.begin(), heap_.end(), better);
}

std::vector<SearchResult> TopK::take_sorted() {
  std::sort_heap(heap_.begin(), heap_.end(), better);
  // sort_heap leaves ascending order w.r.t. `better`, i.e. best first.
  return std::move(heap_);
}

}  // namespace mcqa::index

// --- embed-layer similarity shims -------------------------------------------
//
// embed::dot / embed::l2_sq are declared in embed/embedder.hpp but
// defined here so there is exactly one similarity implementation in the
// codebase: the blocked fixed-lane-order kernels above.  (The embed
// library cannot host them without inverting the embed <- index
// dependency.)  Callers on mismatched lengths keep the historical
// behaviour of comparing the common prefix.

namespace mcqa::embed {

float dot(const Vector& a, const Vector& b) {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  return index::kernels::dot(a.data(), b.data(), n);
}

float l2_sq(const Vector& a, const Vector& b) {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  return index::kernels::l2_sq(a.data(), b.data(), n);
}

}  // namespace mcqa::embed
