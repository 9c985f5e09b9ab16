// Compiled SoA evaluation plans for piecewise-linear tables.
//
// A LUT is *compiled once* into an immutable plan: contiguous breakpoint /
// slope / intercept arrays padded to a power-of-two entry count (padding
// breakpoints are +inf / INT32_MAX sentinels and padded segments replicate
// the last real segment, so padded lookups return the same value as the real
// last segment). Evaluation is batch-granular and branchless. The paper's
// hardware (Eq. 4) selects the segment with a parallel comparator bank
// feeding one MAC: all N-1 comparators fire in one cycle, and Sec. 4.1
// finds 16 entries enough. On a CPU every comparator costs an instruction,
// so the plans select by bisection instead: log2(N) steps over the sorted,
// padded breakpoints, each one probe and one `!(x < d)` compare
// (core/lut_kernel_simd_detail.h). The breakpoints are non-decreasing (FP16
// rounding and INT32 quantization are monotone), so `!(x < d_j)` holds on a
// prefix of j and the bisection returns the bank's count for every input.
//
// Segment selection reproduces std::upper_bound semantics exactly, including
// for NaN (every comparison `!(x < d)` is true, so NaN lands in the padded
// tail, which replicates the last real segment) and +/-inf, so plan
// evaluation is bit-identical to the per-element reference path.
//
// FP32, FP16 and INT32 plan evaluation all switch on the runtime-selected
// SIMD tier (core/lut_kernel_simd.h): scalar, AVX2+F16C or AVX-512F+DQ,
// chosen once from CPUID and overridable via NNLUT_SIMD_TIER /
// set_simd_tier. Every tier performs the identical IEEE
// operation sequence, so results are bit-identical across tiers; plan
// arrays are allocated on 64-byte boundaries (core/aligned_alloc.h) so a
// padded table is loaded with aligned full-register loads.
//
// Three precision-specialized plans live here:
//   LutKernel       FP32 multiply-add,
//   LutKernelFp16   operands rounded through binary16 and the MAC computed
//                   in binary16 arithmetic,
//   LutKernelInt32  I-BERT-style scaling-factor quantization with an
//                   integer MAC.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/aligned_alloc.h"

namespace nnlut {

/// Plan array storage: cache-line aligned so SIMD tiers can table-load a
/// whole padded bank with aligned vector loads.
template <typename T>
using PlanVec = std::vector<T, AlignedAllocator<T>>;

/// FP32 plan. Breakpoints/slopes/intercepts must satisfy the
/// PiecewiseLinear invariants (this type does not re-validate them).
class LutKernel {
 public:
  LutKernel() = default;
  LutKernel(std::span<const float> breakpoints, std::span<const float> slopes,
            std::span<const float> intercepts);

  /// Real (unpadded) table entries; 0 for a default-constructed plan.
  std::size_t entries() const { return entries_; }
  /// Power-of-two padded entry count (= slopes().size()).
  std::size_t padded_entries() const { return slopes_.size(); }

  /// Batched evaluation, in place. The primitive everything else derives.
  void eval(std::span<float> xs) const;

  std::span<const float> padded_breakpoints() const { return breakpoints_; }
  std::span<const float> padded_slopes() const { return slopes_; }
  std::span<const float> padded_intercepts() const { return intercepts_; }

 private:
  PlanVec<float> breakpoints_;  // padded_entries - 1, +inf padded
  PlanVec<float> slopes_;       // padded_entries, last segment replicated
  PlanVec<float> intercepts_;   // padded_entries
  std::size_t entries_ = 0;
};

/// Binary16 plan: stored constants are half-rounded and the MAC rounds every
/// intermediate through binary16, emulating a genuine FP16 datapath.
class LutKernelFp16 {
 public:
  LutKernelFp16() = default;
  LutKernelFp16(std::span<const float> breakpoints,
                std::span<const float> slopes,
                std::span<const float> intercepts);

  std::size_t entries() const { return entries_; }
  std::size_t padded_entries() const { return slopes_.size(); }

  void eval(std::span<float> xs) const;

  std::span<const float> padded_breakpoints() const { return breakpoints_; }
  std::span<const float> padded_slopes() const { return slopes_; }
  std::span<const float> padded_intercepts() const { return intercepts_; }

 private:
  // Comparator constants as FP32 values of the half-rounded breakpoints
  // (half -> float is exact, so FP32 compares == FP16 compares).
  PlanVec<float> breakpoints_;
  PlanVec<float> slopes_;      // FP32 values of half-rounded slopes
  PlanVec<float> intercepts_;  // FP32 values of half-rounded intercepts
  std::size_t entries_ = 0;
};

/// Integer plan with I-BERT scaling factors: input scale Sx derived from
/// `input_max_abs`, slope scale Ss from the largest slope magnitude,
/// intercepts on the product scale Ss*Sx so q_out = q_s * q_x + q_t needs no
/// alignment. |q| <= 2^15 on both MAC operands.
class LutKernelInt32 {
 public:
  LutKernelInt32() = default;
  /// Throws std::invalid_argument unless input_max_abs > 0.
  LutKernelInt32(std::span<const float> breakpoints,
                 std::span<const float> slopes,
                 std::span<const float> intercepts, float input_max_abs);

  std::size_t entries() const { return entries_; }
  std::size_t padded_entries() const { return slopes_.size(); }

  void eval(std::span<float> xs) const;

  float input_scale() const { return sx_; }
  float output_scale() const { return ss_ * sx_; }

  std::span<const std::int32_t> padded_breakpoints() const {
    return breakpoints_;
  }
  std::span<const std::int32_t> padded_slopes() const { return slopes_; }
  std::span<const std::int32_t> padded_intercepts() const {
    return intercepts_;
  }

 private:
  PlanVec<std::int32_t> breakpoints_;  // INT32_MAX padded
  PlanVec<std::int32_t> slopes_;
  PlanVec<std::int32_t> intercepts_;
  std::size_t entries_ = 0;
  float sx_ = 1.0f;  // input scale
  float ss_ = 1.0f;  // slope scale
};

/// Number of tables compiled in this process: the PiecewiseLinear
/// constructor counts one per table, and copies count none. Defined in
/// core/piecewise_linear.cpp. The name and the `misses` field survive from a
/// removed plan cache only because the repository benchmark reads
/// plan_cache_stats().misses.
struct PlanCacheStats {
  std::size_t misses = 0;
};
PlanCacheStats plan_cache_stats();

}  // namespace nnlut
