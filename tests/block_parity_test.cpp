// Block-vs-row parity of the nonlinearity kernels: the rows() block entry
// points must produce exactly the bits of their per-row forms. The block
// kernels reduce several rows at once and hoist per-row constants, so this
// suite pins every remainder and tail: nrows on both sides of the
// interleave width, ncols on both sides of the vector widths, hostile
// values first, middle and last in a row, on every SIMD tier at pool sizes
// 1 and 4. NaN compares equal to NaN (payloads are not part of the
// contract); every other value compares by its bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bit_built.h"
#include "core/lut_kernel_simd.h"
#include "core/nnlut_ops.h"
#include "core/quantized_lut.h"
#include "ibert/ibert_kernels.h"
#include "runtime/thread_pool.h"

namespace nnlut {
namespace {

using test::bit_built_table;
using test::bit_built_uniform;
using test::kExpSpec;
using test::kRecipSpec;
using test::kRsqrtSpec;

// Both sides of one and two 8-row groups (the interleave, and the AVX-512
// tier's transposed tile); both sides of its 8-column tile and of the
// 16-lane vector.
constexpr std::size_t kRows[] = {1, 7, 8, 9, 15, 16, 17, 1536};
constexpr std::size_t kCols[] = {1, 3, 15, 16, 17, 33, 128, 768};

/// Uniform rows over [-range, range). Row r carries one hostile value (or
/// none, every seventh row) at its first, middle or last position, cycling
/// so each value visits each position.
std::vector<float> parity_input(std::size_t nrows, std::size_t ncols,
                                float range) {
  std::uint64_t state = 0x706172697479ull ^ (nrows * 1000003u + ncols);
  std::vector<float> x(nrows * ncols);
  for (float& v : x) v = bit_built_uniform(state, -range, range);
  constexpr std::size_t kKinds = std::size(test::kSpecials) + 1;
  for (std::size_t r = 0; r < nrows; ++r) {
    const std::size_t kind = r % kKinds;
    if (kind == std::size(test::kSpecials)) continue;
    const std::size_t pos[] = {0, ncols / 2, ncols - 1};
    x[r * ncols + pos[(r / kKinds) % 3]] = test::kSpecials[kind];
  }
  return x;
}

void expect_same_bits(std::span<const float> block, std::span<const float> rows,
                      const std::string& what) {
  ASSERT_EQ(block.size(), rows.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < block.size(); ++i) {
    if (std::isnan(block[i]) && std::isnan(rows[i])) continue;
    if (std::bit_cast<std::uint32_t>(block[i]) ==
        std::bit_cast<std::uint32_t>(rows[i]))
      continue;
    if (++bad <= 3)
      ADD_FAILURE() << what << ": element " << i << " block=" << block[i]
                    << " row=" << rows[i];
  }
  EXPECT_EQ(bad, 0u) << what;
}

std::string where(std::size_t nrows, std::size_t ncols) {
  return " tier=" +
         std::string(simd::simd_tier_name(*runtime::runtime_config().simd)) +
         " threads=" + std::to_string(runtime::runtime_config().threads) +
         " nrows=" + std::to_string(nrows) + " ncols=" + std::to_string(ncols);
}

/// Runs `body` on every available tier at pool sizes 1 and 4. The 4-lane
/// pass must fork at least once (`jobs` counts only runs that forked), so
/// a larger shard grain cannot turn "1 vs 4 lanes" into "1 vs 1 lane".
template <typename Body>
void for_each_runtime(Body body) {
  for (const simd::SimdTier tier : simd::available_simd_tiers())
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      runtime::set_runtime_config({threads, tier});
      const std::uint64_t jobs = runtime::thread_pool_stats().jobs;
      body();
      if (threads > 1) {
        EXPECT_GT(runtime::thread_pool_stats().jobs, jobs)
            << "the " << threads << "-lane pass never forked at tier "
            << simd::simd_tier_name(tier);
      }
    }
  runtime::set_runtime_config({});
}

constexpr LutPrecision kPrecisions[] = {LutPrecision::kFp32,
                                        LutPrecision::kFp16,
                                        LutPrecision::kInt32};

TEST(BlockParity, LutSoftmaxRowsMatchPerRow) {
  for (const LutPrecision p : kPrecisions) {
    const auto exp = make_lut_fn(bit_built_table(1, 16, kExpSpec), p, 256.0f);
    const auto recip =
        make_lut_fn(bit_built_table(2, 16, kRecipSpec), p, 1024.0f);
    const SoftmaxApprox sm(*exp, *recip);
    for_each_runtime([&] {
      for (const std::size_t nrows : kRows)
        for (const std::size_t ncols : kCols) {
          const std::vector<float> x = parity_input(nrows, ncols, 8.0f);
          std::vector<float> block = x, rows = x;
          sm.rows(block, nrows, ncols);
          for (std::size_t r = 0; r < nrows; ++r)
            sm(std::span<float>(rows).subspan(r * ncols, ncols));
          expect_same_bits(block, rows,
                           "lut softmax p" +
                               std::to_string(static_cast<int>(p)) +
                               where(nrows, ncols));
        }
    });
  }
}

TEST(BlockParity, LutLayerNormRowsMatchPerRow) {
  for (const LutPrecision p : kPrecisions) {
    const auto rsqrt =
        make_lut_fn(bit_built_table(3, 16, kRsqrtSpec), p, 1024.0f);
    const LayerNormApprox ln(*rsqrt);
    for_each_runtime([&] {
      for (const std::size_t nrows : kRows)
        for (const std::size_t ncols : kCols) {
          const std::vector<float> x = parity_input(nrows, ncols, 3.0f);
          std::uint64_t state = ncols;
          std::vector<float> gamma(ncols), beta(ncols);
          for (float& g : gamma) g = bit_built_uniform(state, 0.5f, 1.5f);
          for (float& b : beta) b = bit_built_uniform(state, -0.5f, 0.5f);
          std::vector<float> block(x.size()), rows(x.size());
          ln.rows(x, block, nrows, ncols, gamma, beta);
          for (std::size_t r = 0; r < nrows; ++r)
            ln(std::span<const float>(x).subspan(r * ncols, ncols),
               std::span<float>(rows).subspan(r * ncols, ncols), gamma, beta);
          expect_same_bits(block, rows,
                           "lut layernorm p" +
                               std::to_string(static_cast<int>(p)) +
                               where(nrows, ncols));
        }
    });
  }
}

/// Rows whose max a vector max can get wrong, one `ncols`-long row per
/// kind, over uniform negative values: the max is a zero present with both
/// signs (+0 first, then -0 first), the row is all -inf, or a NaN sits at
/// lane 5 of the first vector, in the lane of a unique max one vector
/// later, in the last column, or first.
std::vector<float> max_edge_rows(std::size_t ncols) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const std::size_t last = ncols - 1;
  const std::size_t lane5 = std::min<std::size_t>(5, last);
  const std::size_t mid = ncols / 2;
  std::uint64_t state = 0x6d6178ull + ncols;
  auto row = [&] {
    std::vector<float> r(ncols);
    for (float& v : r) v = bit_built_uniform(state, -8.0f, -0.5f);
    return r;
  };
  std::vector<std::vector<float>> rows;
  for (const float first_zero : {0.0f, -0.0f}) {
    std::vector<float> r = row();
    r[mid] = first_zero;
    r[last] = -first_zero;
    rows.push_back(r);
  }
  rows.push_back(std::vector<float>(ncols, -kInf));
  {
    std::vector<float> r = row();
    r[lane5] = kNan;
    rows.push_back(r);
  }
  {
    std::vector<float> r = row();
    r[lane5] = 4.0f;  // unique max, then NaN in its lane
    r[std::min(lane5 + 16, last)] = kNan;
    rows.push_back(r);
  }
  {
    std::vector<float> r = row();
    r[mid] = kInf;
    r[last] = kNan;
    rows.push_back(r);
  }
  {
    std::vector<float> r = row();
    r[0] = kNan;
    rows.push_back(r);
  }
  std::vector<float> x;
  for (const auto& r : rows) x.insert(x.end(), r.begin(), r.end());
  return x;
}

/// The max fast path of the wide tiers against the one-row chain, through
/// the LUTs and through exact functions whose output tells the sign of a
/// zero apart. Each block stacks the edge rows thrice, 21 rows, so they
/// land in full 8-row tiles and in the remainder.
TEST(BlockParity, SoftmaxMaxFallbackRowsMatchPerRow) {
  const ExactFn signed_exp([](float x) {
    return std::signbit(x) ? 0.5f * std::exp(x) : std::exp(x);
  });
  const ExactFn recip([](float x) { return 1.0f / x; });
  std::vector<std::unique_ptr<ScalarFn>> luts;
  std::vector<std::pair<const ScalarFn*, const ScalarFn*>> fns = {
      {&signed_exp, &recip}};
  for (const LutPrecision p : kPrecisions) {
    luts.push_back(make_lut_fn(bit_built_table(1, 16, kExpSpec), p, 256.0f));
    luts.push_back(
        make_lut_fn(bit_built_table(2, 16, kRecipSpec), p, 1024.0f));
    fns.emplace_back(luts[luts.size() - 2].get(), luts.back().get());
  }
  for_each_runtime([&] {
    for (const std::size_t ncols : kCols) {
      const std::vector<float> edge = max_edge_rows(ncols);
      std::vector<float> x;
      for (int k = 0; k < 3; ++k) x.insert(x.end(), edge.begin(), edge.end());
      const std::size_t nrows = x.size() / ncols;
      for (std::size_t f = 0; f < fns.size(); ++f) {
        const SoftmaxApprox sm(*fns[f].first, *fns[f].second);
        std::vector<float> block = x, rows = x;
        sm.rows(block, nrows, ncols);
        for (std::size_t r = 0; r < nrows; ++r)
          sm(std::span<float>(rows).subspan(r * ncols, ncols));
        expect_same_bits(block, rows,
                         "softmax edge rows fns=" + std::to_string(f) +
                             where(nrows, ncols));
      }
    }
  });
}

TEST(BlockParity, IBertRowsMatchPerRow) {
  for_each_runtime([&] {
    for (const std::size_t nrows : kRows)
      for (const std::size_t ncols : kCols) {
        const std::vector<float> x = parity_input(nrows, ncols, 8.0f);
        {
          std::vector<float> block = x, rows = x;
          ibert::softmax_rows(block, nrows, ncols);
          for (std::size_t r = 0; r < nrows; ++r)
            ibert::softmax_rows(
                std::span<float>(rows).subspan(r * ncols, ncols), 1, ncols);
          expect_same_bits(block, rows, "ibert softmax" + where(nrows, ncols));
        }
        {
          std::vector<float> block = x, rows = x;
          ibert::gelu_rows(block, nrows, ncols);
          for (std::size_t r = 0; r < nrows; ++r)
            ibert::gelu_rows(std::span<float>(rows).subspan(r * ncols, ncols),
                             1, ncols);
          expect_same_bits(block, rows, "ibert gelu" + where(nrows, ncols));
        }
        {
          const std::vector<float> gamma(ncols, 1.25f), beta(ncols, -0.125f);
          std::vector<float> block(x.size()), rows(x.size());
          ibert::layernorm_rows(x, block, nrows, ncols, gamma, beta);
          for (std::size_t r = 0; r < nrows; ++r)
            ibert::layernorm_rows(
                std::span<const float>(x).subspan(r * ncols, ncols),
                std::span<float>(rows).subspan(r * ncols, ncols), 1, ncols,
                gamma, beta);
          expect_same_bits(block, rows,
                           "ibert layernorm" + where(nrows, ncols));
        }
      }
  });
}

/// The I-BERT row quantizer: per-row scale from the max finite magnitude
/// (floored at 2^-6, capped at ln2/4 for softmax), entries rounded half
/// away from zero and clamped to the budget, NaN to 0 and ±inf to ±budget.
struct RowGrid {
  float s;
  std::vector<std::int64_t> q;
};

RowGrid row_grid(std::span<const float> row, int bits, bool softmax) {
  float mx = 0x1p-6f;
  for (const float v : row)
    if (std::isfinite(v)) mx = std::max(mx, std::abs(v));
  RowGrid g{mx / static_cast<float>((1 << bits) - 1), {}};
  if (softmax) g.s = std::min(g.s, 0.25f * 0.69314718056f);
  const float lim = softmax ? 0x1p24f : static_cast<float>((1 << bits) - 1);
  for (const float v : row)
    g.q.push_back(std::isnan(v) ? 0
                                : static_cast<std::int64_t>(std::clamp(
                                      std::round(v / g.s), -lim, lim)));
  return g;
}

/// Each kernel runs on this many stacked copies of the row, so the
/// 65544-column ties row shards across the 4-lane pass.
constexpr std::size_t kCopies = 4;

std::vector<float> stacked(std::span<const float> row) {
  std::vector<float> x;
  for (std::size_t c = 0; c < kCopies; ++c)
    x.insert(x.end(), row.begin(), row.end());
  return x;
}

/// The I-BERT row kernels (15 input bits) against the scalar reference API
/// on the same grid: i_gelu per element; i_exp plus the fixed-point
/// normalizer (30 output bits) for softmax; the integer mean, i_sqrt and
/// the 2^31 fixed-point reciprocal for LayerNorm.
void expect_row_matches_reference(std::span<const float> row,
                                  const std::string& what) {
  const std::size_t n = row.size();
  const RowGrid g = row_grid(row, 15, false);
  {
    std::vector<float> got = stacked(row), want(n);
    ibert::gelu_rows(got, kCopies, n);
    for (std::size_t i = 0; i < n; ++i)
      want[i] = ibert::i_gelu({g.q[i], g.s}).value();
    expect_same_bits(got, stacked(want), "ibert gelu " + what);
  }
  {
    const RowGrid sg = row_grid(row, 15, true);
    const std::int64_t qmax = *std::max_element(sg.q.begin(), sg.q.end());
    std::vector<std::int64_t> e(n);
    std::int64_t qsum = 0;
    for (std::size_t i = 0; i < n; ++i)
      qsum += e[i] = ibert::i_exp({sg.q[i] - qmax, sg.s}).q;
    const std::int64_t factor = (std::int64_t{1} << 62) / qsum;
    std::vector<float> got = stacked(row), want(n);
    ibert::softmax_rows(got, kCopies, n);
    for (std::size_t i = 0; i < n; ++i)
      want[i] = static_cast<float>((e[i] * factor) >> 32) * 0x1p-30f;
    expect_same_bits(got, stacked(want), "ibert softmax " + what);
  }
  {
    const auto nn = static_cast<std::int64_t>(n);
    std::int64_t sum = 0;
    for (const std::int64_t q : g.q) sum += q;
    const std::int64_t mean = (sum >= 0 ? sum + nn / 2 : sum - nn / 2) / nn;
    std::int64_t var = 0;
    for (const std::int64_t q : g.q) var += (q - mean) * (q - mean);
    const std::int64_t factor =
        (std::int64_t{1} << 31) / std::max<std::int64_t>(ibert::i_sqrt(var), 1);
    const float s_out = std::sqrt(static_cast<float>(n)) * 0x1p-31f;
    std::vector<float> gamma(n), beta(n);
    std::uint64_t state = n;
    for (float& v : gamma) v = bit_built_uniform(state, -1.5f, 1.5f);
    for (float& v : beta) v = bit_built_uniform(state, -0.5f, 0.5f);
    std::vector<float> got(kCopies * n), want(n);
    ibert::layernorm_rows(stacked(row), got, kCopies, n, gamma, beta);
    for (std::size_t i = 0; i < n; ++i) {
      const float v = static_cast<float>((g.q[i] - mean) * factor) * s_out;
      want[i] = v * gamma[i] + beta[i];
    }
    expect_same_bits(got, stacked(want), "ibert layernorm " + what);
  }
}

// Three rows on every tier and pool size: a uniform row with hostile
// values; the half-way grid (row max 32767, so the 15-bit scale is exactly
// 1 and every k + 0.5 strictly between -32767 and 32767 sits on a rounding
// tie, next to ±0, subnormals, ±inf and NaN), which tells
// round-half-away-from-zero from any other tie rule; and a softmax row
// whose shifted grid values reach -q = 2^25, the largest quotients of the
// range reduction, far into the shift cap of 62.
TEST(BlockParity, IBertRowKernelsMatchScalarReference) {
  std::vector<float> uniform = parity_input(1, 768, 6.0f);
  uniform[0] = 0.25f;  // parity_input puts a NaN there
  uniform[5] = 0.0f;

  std::vector<float> ties = {32767.0f, -32767.0f, 0.0f, -0.0f,
                             std::numeric_limits<float>::denorm_min(),
                             -std::numeric_limits<float>::denorm_min(),
                             std::numeric_limits<float>::min() / 2,
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::quiet_NaN()};
  for (int k = -32767; k < 32767; ++k)
    ties.push_back(static_cast<float>(k) + 0.5f);

  // ln2/4 caps the softmax scale, so ±2.9e6 quantizes near ±2^24 and ±1e30
  // saturates there.
  std::vector<float> wide = parity_input(1, 1000, 2.9e6f);
  wide[1] = 1e30f;
  wide[2] = -1e30f;

  for_each_runtime([&] {
    expect_row_matches_reference(uniform, "uniform" + where(1, uniform.size()));
    expect_row_matches_reference(ties, "ties" + where(1, ties.size()));
    expect_row_matches_reference(wide, "wide" + where(1, wide.size()));
  });
}

}  // namespace
}  // namespace nnlut
