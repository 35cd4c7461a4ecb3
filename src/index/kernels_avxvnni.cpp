// AVX2 kernel table whose integer first pass runs AVX-VNNI vpdpbusd
// (VEX encoding): the same -ffp-contract=off loop bodies as the other
// tables, compiled with -mavx2 -mf16c -mavxvnni.  Selected at runtime
// only when cpuid reports AVX2, F16C and AVX-VNNI (kernels.cpp).

#include "index/kernels_detail.hpp"

#if defined(__AVX2__) && defined(__F16C__) && defined(__AVXVNNI__)
#define MCQA_KERNEL_IMPL_NAMESPACE avxvnni_impl
#include "index/kernels_impl.inc"
#undef MCQA_KERNEL_IMPL_NAMESPACE
#endif

namespace mcqa::index::kernels::detail {

const KernelOps* avxvnni_ops() {
#if defined(__AVX2__) && defined(__F16C__) && defined(__AVXVNNI__)
  return &avxvnni_impl::ops();
#else
  return nullptr;
#endif
}

}  // namespace mcqa::index::kernels::detail
