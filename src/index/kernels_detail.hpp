#pragma once
// Internal seams between the kernel dispatch layer (kernels.cpp) and
// the per-ISA translation units (kernels_scalar.cpp, kernels_avx2.cpp).
// Not part of the public API.

#include "index/kernels.hpp"
#include "index/vector_index.hpp"  // complete SearchResult for TopK's inline bodies

namespace mcqa::index::kernels::detail {

/// Dequantization table: fp16 bit pattern -> float, identical to
/// util::fp16_to_float for every one of the 65536 inputs.  The scalar
/// table widens through it; the AVX2 table widens with F16C and never
/// touches it.  Defined in kernels.cpp.
const float* fp16_table();

/// The baseline table (always available).
const KernelOps& scalar_ops();

/// The AVX2 table, or nullptr when its TU was compiled without AVX2 and
/// F16C codegen (compiler lacked -mavx2 -mf16c).  Runtime cpuid gating
/// happens in ops_for(), not here.
const KernelOps* avx2_ops();

/// The AVX2 table whose integer first pass runs vpdpbusd in its VEX
/// (AVX-VNNI) or EVEX (AVX512-VNNI + VL) encoding, or nullptr when the
/// compiler could not target it.  Runtime gating is ops_for()'s.
const KernelOps* avxvnni_ops();
const KernelOps* avx512vnni_ops();

/// The resolved dispatch table the public free functions forward to.
const KernelOps& active_ops();

}  // namespace mcqa::index::kernels::detail
