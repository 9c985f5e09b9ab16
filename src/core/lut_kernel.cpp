#include "core/lut_kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/lut_kernel_simd.h"
#include "core/lut_kernel_simd_detail.h"
#include "numerics/half.h"

namespace nnlut {

namespace simd {
// Per-tier plan evaluators, each defined in its own -m flagged TU. Every
// entry point evaluates a whole span in place; `nb` is the padded
// breakpoint count (padded_entries - 1). The FP16 entry takes the FP32
// images of the plan's half-rounded constants (half -> float is exact) and
// rounds every intermediate through binary16.
#ifdef NNLUT_HAVE_AVX2
void avx2_fp32_eval(const float*, std::size_t, const float*, const float*,
                    float*, std::size_t);
void avx2_fp16_eval(const float*, std::size_t, const float*, const float*,
                    float*, std::size_t);
void avx2_int32_eval(const std::int32_t*, std::size_t, const std::int32_t*,
                     const std::int32_t*, float, float, float*, std::size_t);
#endif
#ifdef NNLUT_HAVE_AVX512
void avx512_fp32_eval(const float*, std::size_t, const float*, const float*,
                      float*, std::size_t);
void avx512_fp16_eval(const float*, std::size_t, const float*, const float*,
                      float*, std::size_t);
void avx512_int32_eval(const std::int32_t*, std::size_t, const std::int32_t*,
                       const std::int32_t*, float, float, float*,
                       std::size_t);
#endif
}  // namespace simd

namespace {

using simd::detail::int_quantize;

/// Next power of two >= entries.
std::size_t pad_entries(std::size_t entries) {
  std::size_t p = 1;
  while (p < entries) p <<= 1;
  return p;
}

constexpr float kIntQMax = 32767.0f;  // +-2^15 - 1 budget for MAC operands

}  // namespace

// ------------------------------------------------------------- LutKernel ---

LutKernel::LutKernel(std::span<const float> breakpoints,
                     std::span<const float> slopes,
                     std::span<const float> intercepts) {
  entries_ = slopes.size();
  if (entries_ == 0) return;
  const std::size_t padded = pad_entries(entries_);
  breakpoints_.assign(breakpoints.begin(), breakpoints.end());
  breakpoints_.resize(padded - 1, std::numeric_limits<float>::infinity());
  slopes_.assign(slopes.begin(), slopes.end());
  slopes_.resize(padded, slopes.back());
  intercepts_.assign(intercepts.begin(), intercepts.end());
  intercepts_.resize(padded, intercepts.back());
}

void LutKernel::eval(std::span<float> xs) const {
  if (entries_ == 0 || xs.empty()) return;
  // One call per span into the active ISA tier; every tier is
  // bit-identical (core/lut_kernel_simd.h).
  const float* bp = breakpoints_.data();
  const std::size_t nb = breakpoints_.size();
  switch (simd::active_simd_tier()) {
#ifdef NNLUT_HAVE_AVX512
    case simd::SimdTier::kAvx512:
      return simd::avx512_fp32_eval(bp, nb, slopes_.data(),
                                    intercepts_.data(), xs.data(), xs.size());
#endif
#ifdef NNLUT_HAVE_AVX2
    case simd::SimdTier::kAvx2:
      return simd::avx2_fp32_eval(bp, nb, slopes_.data(), intercepts_.data(),
                                  xs.data(), xs.size());
#endif
    default:
      return simd::detail::scalar_fp32_eval(bp, nb, slopes_.data(),
                                            intercepts_.data(), xs.data(),
                                            xs.size());
  }
}

// --------------------------------------------------------- LutKernelFp16 ---

LutKernelFp16::LutKernelFp16(std::span<const float> breakpoints,
                             std::span<const float> slopes,
                             std::span<const float> intercepts) {
  entries_ = slopes.size();
  if (entries_ == 0) return;
  const std::size_t padded = pad_entries(entries_);
  breakpoints_.reserve(padded - 1);
  for (float d : breakpoints) breakpoints_.push_back(round_to_half(d));
  breakpoints_.resize(padded - 1, std::numeric_limits<float>::infinity());
  slopes_.reserve(padded);
  for (float v : slopes) slopes_.push_back(round_to_half(v));
  slopes_.resize(padded, slopes_.back());
  intercepts_.reserve(padded);
  for (float v : intercepts) intercepts_.push_back(round_to_half(v));
  intercepts_.resize(padded, intercepts_.back());
}

void LutKernelFp16::eval(std::span<float> xs) const {
  if (entries_ == 0 || xs.empty()) return;
  // Same tier dispatch as the FP32 plan; every tier rounds inputs and each
  // MAC intermediate through binary16 (F16C / AVX-512 vcvtps2ph round-trips
  // on the wide tiers, numerics/half.h when scalar — bit-identical either
  // way).
  const float* bp = breakpoints_.data();
  const std::size_t nb = breakpoints_.size();
  switch (simd::active_simd_tier()) {
#ifdef NNLUT_HAVE_AVX512
    case simd::SimdTier::kAvx512:
      return simd::avx512_fp16_eval(bp, nb, slopes_.data(),
                                    intercepts_.data(), xs.data(), xs.size());
#endif
#ifdef NNLUT_HAVE_AVX2
    case simd::SimdTier::kAvx2:
      return simd::avx2_fp16_eval(bp, nb, slopes_.data(), intercepts_.data(),
                                  xs.data(), xs.size());
#endif
    default:
      return simd::detail::scalar_fp16_eval(bp, nb, slopes_.data(),
                                            intercepts_.data(), xs.data(),
                                            xs.size());
  }
}

// -------------------------------------------------------- LutKernelInt32 ---

LutKernelInt32::LutKernelInt32(std::span<const float> breakpoints,
                               std::span<const float> slopes,
                               std::span<const float> intercepts,
                               float input_max_abs) {
  if (!(input_max_abs > 0.0f))
    throw std::invalid_argument("LutKernelInt32: input_max_abs must be positive");
  entries_ = slopes.size();
  if (entries_ == 0) return;

  sx_ = input_max_abs / kIntQMax;
  float max_slope = 0.0f;
  for (float v : slopes) max_slope = std::max(max_slope, std::abs(v));
  ss_ = (max_slope > 0.0f ? max_slope : 1.0f) / kIntQMax;

  const std::size_t padded = pad_entries(entries_);
  breakpoints_.reserve(padded - 1);
  for (float d : breakpoints) breakpoints_.push_back(int_quantize(d, sx_));
  // INT32_MAX sentinel: quantized inputs are clamped below it, so padded
  // comparators never fire.
  breakpoints_.resize(padded - 1, std::numeric_limits<std::int32_t>::max());
  slopes_.reserve(padded);
  for (float v : slopes) slopes_.push_back(int_quantize(v, ss_));
  slopes_.resize(padded, slopes_.back());
  const float st = ss_ * sx_;
  intercepts_.reserve(padded);
  for (float v : intercepts) intercepts_.push_back(int_quantize(v, st));
  intercepts_.resize(padded, intercepts_.back());
}

void LutKernelInt32::eval(std::span<float> xs) const {
  if (entries_ == 0 || xs.empty()) return;
  const std::int32_t* bp = breakpoints_.data();
  const std::size_t nb = breakpoints_.size();
  const float so = ss_ * sx_;
  switch (simd::active_simd_tier()) {
#ifdef NNLUT_HAVE_AVX512
    case simd::SimdTier::kAvx512:
      return simd::avx512_int32_eval(bp, nb, slopes_.data(),
                                     intercepts_.data(), sx_, so, xs.data(),
                                     xs.size());
#endif
#ifdef NNLUT_HAVE_AVX2
    case simd::SimdTier::kAvx2:
      return simd::avx2_int32_eval(bp, nb, slopes_.data(), intercepts_.data(),
                                   sx_, so, xs.data(), xs.size());
#endif
    default:
      return simd::detail::scalar_int32_eval(bp, nb, slopes_.data(),
                                             intercepts_.data(), sx_, so,
                                             xs.data(), xs.size());
  }
}

}  // namespace nnlut
