#pragma once
// IEEE 754 binary16 conversion.
//
// The paper stores PubMedBERT chunk embeddings as FP16 (747 MB total for
// 173,318 x 768 vectors).  Our vector store keeps the same storage
// discipline: vectors are quantized to half precision at rest and widened
// to float for arithmetic.  Software conversion keeps us portable (no
// reliance on _Float16 availability) and is fast enough off the hot path.
//
// fp16_to_float is bit-identical to the F16C instruction (vcvtph2ps) on
// all 65,536 codes, NaNs included: a signalling NaN widens quieted, as
// the hardware does.  The scan kernels rely on this to widen with F16C
// where the CPU has it and through a table built from this function
// where it does not (index/kernels.hpp).

#include <bit>
#include <cstdint>
#include <vector>

namespace mcqa::util {

using fp16_t = std::uint16_t;

constexpr fp16_t float_to_fp16(float f) noexcept {
  const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  std::uint32_t mantissa = x & 0x007fffffu;
  const std::int32_t exp = static_cast<std::int32_t>((x >> 23) & 0xffu) - 127;

  if (exp > 15) {
    // Overflow (or inf/nan source): inf, preserving nan payload bit.
    const bool is_nan = exp == 128 && mantissa != 0;
    return static_cast<fp16_t>(sign | 0x7c00u | (is_nan ? 0x0200u : 0u));
  }
  if (exp >= -14) {
    // Normal range: round-to-nearest-even on the 13 dropped bits.
    std::uint32_t half = sign | (static_cast<std::uint32_t>(exp + 15) << 10) |
                         (mantissa >> 13);
    const std::uint32_t rem = mantissa & 0x1fffu;
    if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) ++half;
    return static_cast<fp16_t>(half);
  }
  if (exp >= -24) {
    // Subnormal half: value = mantissa24 * 2^(exp-23), subnormal unit is
    // 2^-24, so the bits are mantissa24 >> (-exp - 1).
    mantissa |= 0x00800000u;
    const int shift = -exp - 2;
    std::uint32_t half = sign | (mantissa >> (shift + 1));
    const std::uint32_t rem = mantissa & ((1u << (shift + 1)) - 1);
    const std::uint32_t halfway = 1u << shift;
    if (rem > halfway || (rem == halfway && (half & 1u))) ++half;
    return static_cast<fp16_t>(half);
  }
  return static_cast<fp16_t>(sign);  // underflow to signed zero
}

constexpr float fp16_to_float(fp16_t h) noexcept {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  std::uint32_t mantissa = h & 0x3ffu;

  if (exp == 0x1f) {  // inf / nan; a NaN comes out quiet (float bit 22)
    const std::uint32_t quiet = mantissa != 0 ? 0x00400000u : 0u;
    return std::bit_cast<float>(sign | 0x7f800000u | quiet |
                                (mantissa << 13));
  }
  if (exp == 0) {
    if (mantissa == 0) return std::bit_cast<float>(sign);
    // Normalize the subnormal.
    int e = -1;
    do {
      ++e;
      mantissa <<= 1;
    } while ((mantissa & 0x400u) == 0);
    mantissa &= 0x3ffu;
    return std::bit_cast<float>(
        sign | static_cast<std::uint32_t>(127 - 15 - e) << 23 |
        (mantissa << 13));
  }
  return std::bit_cast<float>(sign |
                              ((exp + 127 - 15) << 23) | (mantissa << 13));
}

inline std::vector<fp16_t> quantize_fp16(const std::vector<float>& v) {
  std::vector<fp16_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = float_to_fp16(v[i]);
  return out;
}

inline std::vector<float> dequantize_fp16(const std::vector<fp16_t>& v) {
  std::vector<float> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = fp16_to_float(v[i]);
  return out;
}

}  // namespace mcqa::util
