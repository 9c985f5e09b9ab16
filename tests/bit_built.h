// Bit-built test data for the golden-fingerprint and parity suites: a
// splitmix64 stream turned into floats through exact integer-to-float
// conversions, power-of-two scales and single IEEE-754 basic operations, so
// no libm call feeds an input or a table and the data are the same on every
// toolchain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/piecewise_linear.h"

namespace nnlut::test {

inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Uniform on [-0.5, 0.5) over a 2^-24 grid: a 24-bit integer converts to
/// float exactly and the power-of-two scale is exact too.
inline float bit_built_float(std::uint64_t& state) {
  const auto q = static_cast<std::int32_t>(splitmix64(state) >> 40) -
                 (std::int32_t{1} << 23);
  return static_cast<float>(q) * 0x1p-24f;
}

/// Uniform on [lo, hi): the exact [0, 1) grid value through one multiply
/// and one add.
inline float bit_built_uniform(std::uint64_t& state, float lo, float hi) {
  return lo + (hi - lo) * (bit_built_float(state) + 0.5f);
}

/// Value ranges of a bit-built table.
struct TableSpec {
  float bp_lo, bp_hi;      // breakpoints spread over [bp_lo, bp_hi)
  float slope_lo, slope_hi;
  float icpt_lo, icpt_hi;
};

/// Shapes of the four kernel tables the golden and parity suites share:
/// GELU over [-5, 5), exp over the softmax's shifted range [-16, 0), and the
/// softmax reciprocal and LayerNorm 1/sqrt over their positive domains.
inline constexpr TableSpec kGeluSpec{-5.0f, 5.0f, -0.25f, 1.25f, -0.5f, 0.5f};
inline constexpr TableSpec kExpSpec{-16.0f, 0.0f, 0.0f, 0.5f, 0.0f, 1.0f};
inline constexpr TableSpec kRecipSpec{0.5f, 1024.0f, -0.01f, 0.0f, 0.0f,
                                      1.0f};
inline constexpr TableSpec kRsqrtSpec{0.1f, 1024.0f, -0.5f, 0.0f, 0.0f, 3.0f};

/// An `entries`-entry table: strictly ascending breakpoints at the
/// cumulative sums of splitmix64 gaps in [1, 8] (one division and one
/// affine map each), slopes and intercepts uniform over the spec's ranges.
inline PiecewiseLinear bit_built_table(std::uint64_t seed, std::size_t entries,
                                       const TableSpec& spec) {
  std::uint64_t state = seed;
  std::vector<std::uint64_t> cum(entries);
  std::uint64_t total = 0;
  for (std::uint64_t& c : cum) c = total += 1 + splitmix64(state) % 8;
  std::vector<float> bps, slopes, intercepts;
  for (std::size_t i = 0; i + 1 < entries; ++i) {
    const float u = static_cast<float>(cum[i]) / static_cast<float>(total);
    bps.push_back(spec.bp_lo + (spec.bp_hi - spec.bp_lo) * u);
  }
  for (std::size_t i = 0; i < entries; ++i) {
    slopes.push_back(bit_built_uniform(state, spec.slope_lo, spec.slope_hi));
    intercepts.push_back(bit_built_uniform(state, spec.icpt_lo, spec.icpt_hi));
  }
  return PiecewiseLinear(bps, slopes, intercepts);
}

/// The hostile values the kernels must handle without UB: NaN, ±inf, ±0,
/// ±1e30 and a denormal.
inline constexpr float kSpecials[] = {
    std::numeric_limits<float>::quiet_NaN(),
    std::numeric_limits<float>::infinity(),
    -std::numeric_limits<float>::infinity(),
    0.0f,
    -0.0f,
    1e30f,
    -1e30f,
    std::numeric_limits<float>::denorm_min()};

}  // namespace nnlut::test
