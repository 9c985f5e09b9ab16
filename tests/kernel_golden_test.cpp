// Per-kernel numeric drift guard across commits, the kernel-level companion
// of golden_logits_test. Each block kernel the transformer backends reach —
// LUT GELU, SoftmaxApprox::rows and LayerNormApprox::rows at FP32/FP16/INT32
// and the I-BERT softmax/GELU/LayerNorm row kernels — runs over a fixed
// sweep of block shapes, and an FNV-1a over its output bits must match
// tests/golden/kernels_fnv1a.txt.
//
// Tables and inputs are bit-built (tests/bit_built.h): no libm call feeds
// them, and the kernels themselves use only IEEE-754 basic operations,
// floor/round/sqrt and the binary16 conversions, so the fingerprints do not
// depend on the toolchain's libm. NaN outputs are hashed as one canonical
// pattern (payload propagation is not part of the contract).
//
// A deliberate numeric change must update the golden file in the same diff
// (the failure message prints the replacement line) and say why in
// CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <sstream>
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
using test::kGeluSpec;
using test::kRecipSpec;
using test::kRsqrtSpec;
using test::splitmix64;
using test::TableSpec;

constexpr std::pair<std::size_t, std::size_t> kShapes[] = {
    {1, 1}, {2, 3}, {7, 16}, {9, 128}, {17, 384}, {64, 768}, {1536, 128}};
constexpr std::size_t kEntries[] = {8, 16, 64, 128};

/// One block's input: uniform over [-range, range); a quarter of the rows
/// carry one hostile value at a random position.
/// With `row_scales`, each row is also scaled by 1, 2^-7 or 32 so LayerNorm
/// sees variances below 1 (the input-scaled 1/SQRT path) and above 1024.
std::vector<float> block_input(std::uint64_t seed, std::size_t nrows,
                               std::size_t ncols, float range,
                               bool row_scales) {
  std::uint64_t state = seed ^ (nrows * 1000003u + ncols);
  std::vector<float> x(nrows * ncols);
  for (std::size_t r = 0; r < nrows; ++r) {
    constexpr float kRowScale[] = {1.0f, 0x1p-7f, 32.0f};
    const float scale = row_scales ? kRowScale[splitmix64(state) % 3] : 1.0f;
    for (std::size_t j = 0; j < ncols; ++j)
      x[r * ncols + j] = scale * bit_built_uniform(state, -range, range);
    if (splitmix64(state) % 4 == 0)
      x[r * ncols + splitmix64(state) % ncols] =
          test::kSpecials[splitmix64(state) % std::size(test::kSpecials)];
  }
  return x;
}

/// FNV-1a over output bits, every NaN hashed as 0x7fc00000.
void fnv1a_mix(std::uint64_t& h, std::span<const float> ys) {
  for (const float v : ys) {
    const std::uint32_t bits =
        std::isnan(v) ? 0x7fc00000u : std::bit_cast<std::uint32_t>(v);
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
}

/// A block kernel: reads x [nrows x ncols], writes y.
using BlockFn = std::function<void(std::span<const float> x, std::span<float> y,
                                   std::size_t nrows, std::size_t ncols)>;

struct Case {
  std::string name;
  float range;
  bool row_scales;
  BlockFn fn;
};

const char* precision_name(LutPrecision p) {
  switch (p) {
    case LutPrecision::kFp32:
      return "fp32";
    case LutPrecision::kFp16:
      return "fp16";
    case LutPrecision::kInt32:
      return "int32";
  }
  return "?";
}

/// LayerNorm affine parameters for `ncols` channels.
std::pair<std::vector<float>, std::vector<float>> affine(std::size_t ncols) {
  std::uint64_t state = 0x67616d6d61ull + ncols;
  std::vector<float> gamma(ncols), beta(ncols);
  for (float& g : gamma) g = bit_built_uniform(state, 0.5f, 1.5f);
  for (float& b : beta) b = bit_built_uniform(state, -0.125f, 0.125f);
  return {gamma, beta};
}

/// Every fingerprinted kernel, owning the LUT functions it evaluates.
struct Suite {
  std::vector<std::unique_ptr<ScalarFn>> fns;
  std::vector<Case> cases;

  const ScalarFn& fn(const TableSpec& spec, std::uint64_t seed,
                     std::size_t entries, LutPrecision p, float max_abs) {
    fns.push_back(
        make_lut_fn(bit_built_table(seed, entries, spec), p, max_abs));
    return *fns.back();
  }

  Suite() {
    for (const LutPrecision p :
         {LutPrecision::kFp32, LutPrecision::kFp16, LutPrecision::kInt32}) {
      for (const std::size_t e : kEntries) {
        const std::string tag =
            std::string("/") + precision_name(p) + "/" + std::to_string(e);
        const ScalarFn& gelu = fn(kGeluSpec, 0x67656c75 + e, e, p, 5.0f);
        const ScalarFn& exp = fn(kExpSpec, 0x657870 + e, e, p, 256.0f);
        const ScalarFn& recip = fn(kRecipSpec, 0x646976 + e, e, p, 1024.0f);
        const ScalarFn& rsqrt = fn(kRsqrtSpec, 0x72737172 + e, e, p, 1024.0f);
        cases.push_back({"lut_gelu" + tag, 6.0f, false,
                         [&gelu](auto x, auto y, std::size_t, std::size_t) {
                           std::copy(x.begin(), x.end(), y.begin());
                           gelu.eval_inplace(y);
                         }});
        cases.push_back(
            {"lut_softmax" + tag, 8.0f, false,
             [&exp, &recip](auto x, auto y, std::size_t nr, std::size_t nc) {
               std::copy(x.begin(), x.end(), y.begin());
               SoftmaxApprox(exp, recip).rows(y, nr, nc);
             }});
        cases.push_back(
            {"lut_layernorm" + tag, 3.0f, true,
             [&rsqrt](auto x, auto y, std::size_t nr, std::size_t nc) {
               const auto [gamma, beta] = affine(nc);
               LayerNormApprox(rsqrt).rows(x, y, nr, nc, gamma, beta);
             }});
      }
    }
    cases.push_back({"ibert_softmax", 8.0f, false,
                     [](auto x, auto y, std::size_t nr, std::size_t nc) {
                       std::copy(x.begin(), x.end(), y.begin());
                       ibert::softmax_rows(y, nr, nc);
                     }});
    cases.push_back({"ibert_gelu", 6.0f, false,
                     [](auto x, auto y, std::size_t nr, std::size_t nc) {
                       std::copy(x.begin(), x.end(), y.begin());
                       ibert::gelu_rows(y, nr, nc);
                     }});
    cases.push_back({"ibert_layernorm", 3.0f, true,
                     [](auto x, auto y, std::size_t nr, std::size_t nc) {
                       const auto [gamma, beta] = affine(nc);
                       ibert::layernorm_rows(x, y, nr, nc, gamma, beta);
                     }});
  }
};

std::uint64_t fingerprint(const Case& c) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [nrows, ncols] : kShapes) {
    const std::vector<float> x =
        block_input(0x6b65726e656cull, nrows, ncols, c.range, c.row_scales);
    std::vector<float> y(x.size());
    c.fn(x, y, nrows, ncols);
    fnv1a_mix(h, y);
  }
  return h;
}

std::filesystem::path golden_path() {
  return std::filesystem::path(__FILE__).parent_path() / "golden" /
         "kernels_fnv1a.txt";
}

/// Lines "<kernel> <16 hex digits>"; '#' starts a comment.
std::map<std::string, std::uint64_t> load_golden() {
  std::map<std::string, std::uint64_t> out;
  std::ifstream f(golden_path());
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, hex;
    ls >> name >> hex;
    out[name] = std::stoull(hex, nullptr, 16);
  }
  return out;
}

std::string golden_line(const std::string& name, std::uint64_t h) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  return name + " " + hex;
}

// Every ISA tier and pool size must reproduce the checked-in bits.
TEST(KernelGolden, BlockKernelsMatchCheckedInFingerprints) {
  const std::map<std::string, std::uint64_t> golden = load_golden();
  ASSERT_FALSE(golden.empty()) << "cannot read " << golden_path();
  const Suite suite;
  EXPECT_EQ(golden.size(), suite.cases.size())
      << "golden file has missing or stale lines";
  for (const simd::SimdTier tier : simd::available_simd_tiers()) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      runtime::set_runtime_config({threads, tier});
      for (const Case& c : suite.cases) {
        const std::uint64_t h = fingerprint(c);
        const auto it = golden.find(c.name);
        if (it == golden.end()) {
          ADD_FAILURE() << "missing golden line: " << golden_line(c.name, h);
          continue;
        }
        EXPECT_EQ(h, it->second)
            << "kernel drifted at tier " << simd::simd_tier_name(tier) << ", "
            << threads << " threads; new line: " << golden_line(c.name, h);
      }
    }
  }
  runtime::set_runtime_config({});
}

// The sweep must exercise real values, not collapse to a constant.
TEST(KernelGolden, SweepIsNotDegenerate) {
  const Suite suite;
  for (const Case& c : suite.cases) {
    const auto [nrows, ncols] = kShapes[3];
    const std::vector<float> x =
        block_input(0x6b65726e656cull, nrows, ncols, c.range, c.row_scales);
    std::vector<float> y(x.size());
    c.fn(x, y, nrows, ncols);
    std::map<float, int> distinct;
    for (const float v : y)
      if (std::isfinite(v)) ++distinct[v];
    EXPECT_GT(distinct.size(), y.size() / 4) << c.name;
  }
}

}  // namespace
}  // namespace nnlut
