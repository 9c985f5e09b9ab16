// First-order look-up table approximation (Eq. 4 of the paper):
//
//            { s_1 x + t_1          if x <  d_1
//   LUT(x) = { s_i x + t_i          if d_{i-1} <= x < d_i
//            { s_N x + t_N          if x >= d_{N-1}
//
// An N-entry LUT stores N (slope, intercept) pairs and N-1 ascending
// breakpoints. In hardware this is one comparator bank, one table read, one
// multiply and one add — the same unit serves any scalar function.
//
// Construction compiles the table into an SoA evaluation plan the table owns
// (core/lut_kernel.h); batched evaluation through the plan is the primitive,
// bit-identical to the per-element reference operator().
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/lut_kernel.h"

namespace nnlut {

class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;

  /// breakpoints.size() + 1 must equal slopes.size() == intercepts.size();
  /// breakpoints must be strictly ascending and finite.
  /// Throws std::invalid_argument otherwise.
  PiecewiseLinear(std::vector<float> breakpoints, std::vector<float> slopes,
                  std::vector<float> intercepts);

  /// Number of table entries N (= segments).
  std::size_t entries() const { return slopes_.size(); }

  std::span<const float> breakpoints() const { return breakpoints_; }
  std::span<const float> slopes() const { return slopes_; }
  std::span<const float> intercepts() const { return intercepts_; }

  /// Index of the segment containing x (0-based, in [0, entries())).
  std::size_t segment_index(float x) const;

  /// Evaluate LUT(x) through the per-element reference path (binary search
  /// over the original breakpoints).
  float operator()(float x) const;

  /// Evaluate over a batch, in place, through the compiled plan.
  void eval_inplace(std::span<float> xs) const;

  /// The compiled SoA evaluation plan, built by the constructor and owned
  /// by this table (copies carry their own).
  const LutKernel& kernel() const { return kernel_; }

 private:
  std::vector<float> breakpoints_;  // N-1, strictly ascending
  std::vector<float> slopes_;       // N
  std::vector<float> intercepts_;   // N
  LutKernel kernel_;
};

}  // namespace nnlut
