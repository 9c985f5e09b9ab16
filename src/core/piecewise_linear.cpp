#include "core/piecewise_linear.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

namespace nnlut {

namespace {
// Tables compiled so far; a statistic only, so relaxed ordering suffices.
std::atomic<std::size_t> g_compiled_tables{0};
}  // namespace

PlanCacheStats plan_cache_stats() {
  return {g_compiled_tables.load(std::memory_order_relaxed)};
}

PiecewiseLinear::PiecewiseLinear(std::vector<float> breakpoints,
                                 std::vector<float> slopes,
                                 std::vector<float> intercepts)
    : breakpoints_(std::move(breakpoints)),
      slopes_(std::move(slopes)),
      intercepts_(std::move(intercepts)) {
  if (slopes_.empty())
    throw std::invalid_argument("PiecewiseLinear: needs at least one segment");
  if (slopes_.size() != intercepts_.size())
    throw std::invalid_argument(
        "PiecewiseLinear: slopes/intercepts size mismatch");
  if (breakpoints_.size() + 1 != slopes_.size())
    throw std::invalid_argument(
        "PiecewiseLinear: need exactly one more segment than breakpoints");
  for (std::size_t i = 0; i < breakpoints_.size(); ++i) {
    if (!std::isfinite(breakpoints_[i]))
      throw std::invalid_argument("PiecewiseLinear: non-finite breakpoint");
    if (i > 0 && !(breakpoints_[i - 1] < breakpoints_[i]))
      throw std::invalid_argument(
          "PiecewiseLinear: breakpoints must be strictly ascending");
  }
  kernel_ = LutKernel(breakpoints_, slopes_, intercepts_);
  g_compiled_tables.fetch_add(1, std::memory_order_relaxed);
}

std::size_t PiecewiseLinear::segment_index(float x) const {
  // First breakpoint strictly greater than x gives the segment; hardware
  // implements this as a parallel comparator bank (16 entries -> 15 compares).
  const auto it = std::upper_bound(breakpoints_.begin(), breakpoints_.end(), x);
  return static_cast<std::size_t>(it - breakpoints_.begin());
}

float PiecewiseLinear::operator()(float x) const {
  const std::size_t i = segment_index(x);
  return slopes_[i] * x + intercepts_[i];
}

void PiecewiseLinear::eval_inplace(std::span<float> xs) const {
  kernel_.eval(xs);
}

}  // namespace nnlut
