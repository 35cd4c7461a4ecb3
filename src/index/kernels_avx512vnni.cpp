// AVX2 kernel table whose integer first pass runs AVX512-VNNI vpdpbusd
// on 256-bit registers (EVEX encoding, AVX512-VL): the same
// -ffp-contract=off loop bodies as the other tables, compiled with
// -mavx2 -mf16c -mavx512vnni -mavx512vl.  Selected at runtime only when
// cpuid reports AVX2, F16C, AVX512-VNNI and AVX512-VL and not AVX-VNNI
// (kernels.cpp).

#include "index/kernels_detail.hpp"

#if defined(__AVX2__) && defined(__F16C__) && defined(__AVX512VNNI__) && \
    defined(__AVX512VL__)
#define MCQA_KERNEL_IMPL_NAMESPACE avx512vnni_impl
#include "index/kernels_impl.inc"
#undef MCQA_KERNEL_IMPL_NAMESPACE
#endif

namespace mcqa::index::kernels::detail {

const KernelOps* avx512vnni_ops() {
#if defined(__AVX2__) && defined(__F16C__) && defined(__AVX512VNNI__) && \
    defined(__AVX512VL__)
  return &avx512vnni_impl::ops();
#else
  return nullptr;
#endif
}

}  // namespace mcqa::index::kernels::detail
