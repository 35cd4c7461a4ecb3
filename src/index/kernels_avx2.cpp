// AVX2 kernel table: the same -ffp-contract=off loop bodies as the
// scalar TU, compiled with -mavx2 -mf16c so the 8 independent lanes map
// onto 256-bit registers and the fp16 kernels widen with vcvtph2ps
// instead of the 256 KB table (kernels_impl.inc).  Selected at runtime
// only when cpuid reports both AVX2 and F16C (kernels.cpp).  When the
// compiler cannot target them the body compiles away and avx2_ops()
// reports the table unavailable.

#include "index/kernels_detail.hpp"

#if defined(__AVX2__) && defined(__F16C__)
#define MCQA_KERNEL_IMPL_NAMESPACE avx2_impl
#include "index/kernels_impl.inc"
#undef MCQA_KERNEL_IMPL_NAMESPACE
#endif

namespace mcqa::index::kernels::detail {

const KernelOps* avx2_ops() {
#if defined(__AVX2__) && defined(__F16C__)
  return &avx2_impl::ops();
#else
  return nullptr;
#endif
}

}  // namespace mcqa::index::kernels::detail
