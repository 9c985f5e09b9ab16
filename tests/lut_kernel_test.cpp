// Kernel-parity suite: batched SoA-plan evaluation must be bit-identical to
// per-element scalar evaluation for random LUTs at all three precisions,
// including inputs exactly on breakpoints, +/-inf, NaN, and empty/1-element
// spans. The FP16/INT32 references below replicate the original per-element
// comparator-walk implementations independently of the kernel code so the
// test is not self-referential.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/lut_kernel.h"
#include "core/lut_kernel_simd.h"
#include "core/lut_kernel_simd_detail.h"
#include "core/piecewise_linear.h"
#include "core/quantized_lut.h"
#include "core/scalar_fn.h"
#include "numerics/half.h"
#include "numerics/rng.h"
#include "runtime/thread_pool.h"

namespace nnlut {
namespace {

using simd::SimdTier;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

PiecewiseLinear random_lut(int entries, Rng& rng) {
  std::vector<float> bps, slopes, intercepts;
  float d = rng.uniform(-8.0f, -4.0f);
  for (int i = 1; i < entries; ++i) {
    d += rng.uniform(0.05f, 1.5f);
    bps.push_back(d);
  }
  for (int i = 0; i < entries; ++i) {
    slopes.push_back(rng.uniform(-3.0f, 3.0f));
    intercepts.push_back(rng.uniform(-2.0f, 2.0f));
  }
  return PiecewiseLinear(bps, slopes, intercepts);
}

/// Inputs hitting every segment, every breakpoint exactly, the values just
/// around each breakpoint, and the non-finite edge cases.
std::vector<float> parity_inputs(const PiecewiseLinear& lut, Rng& rng) {
  std::vector<float> xs;
  for (int i = 0; i < 400; ++i) xs.push_back(rng.uniform(-20.0f, 20.0f));
  for (float b : lut.breakpoints()) {
    xs.push_back(b);
    xs.push_back(std::nextafter(b, -kInf));
    xs.push_back(std::nextafter(b, kInf));
  }
  xs.push_back(0.0f);
  xs.push_back(-0.0f);
  xs.push_back(std::numeric_limits<float>::denorm_min());
  xs.push_back(kInf);
  xs.push_back(-kInf);
  xs.push_back(kNan);
  // binary16 edges (exercised by the FP16 plans, harmless elsewhere):
  // smallest/largest half denormal, smallest half normal, largest finite
  // half, the first float that rounds to half +inf, and NaN payload
  // variants including a signaling pattern.
  xs.push_back(5.9604645e-8f);
  xs.push_back(6.0975552e-5f);
  xs.push_back(6.1035156e-5f);
  xs.push_back(65504.0f);
  xs.push_back(-65504.0f);
  xs.push_back(65520.0f);
  xs.push_back(std::bit_cast<float>(0x7fc12345u));
  xs.push_back(std::bit_cast<float>(0xffc54321u));
  xs.push_back(std::bit_cast<float>(0x7f800001u));
  return xs;
}

/// Bit-identity, treating any-NaN == any-NaN (NaN payload bits are the one
/// thing IEEE lets differ between otherwise identical op sequences).
void expect_bitwise(float a, float b, float x) {
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_EQ(std::bit_cast<std::uint32_t>(a), std::bit_cast<std::uint32_t>(b))
      << "x=" << x << " scalar=" << a << " batched=" << b;
}

/// The seed's per-element FP16 evaluation: comparator walk over half-rounded
/// breakpoints, MAC in binary16 arithmetic.
float fp16_reference(const PiecewiseLinear& lut, float x) {
  const Half hx(x);
  const auto bps = lut.breakpoints();
  std::size_t i = 0;
  while (i < bps.size() && !(hx.to_float() < round_to_half(bps[i]))) ++i;
  const Half s(round_to_half(lut.slopes()[i]));
  const Half t(round_to_half(lut.intercepts()[i]));
  return ((s * hx) + t).to_float();
}

std::int32_t ref_quantize(float v, float scale) {
  const float q = std::round(v / scale);
  if (std::isnan(q)) return 0;
  const float lim = 2.147e9f;
  return static_cast<std::int32_t>(std::clamp(q, -lim, lim));
}

/// The seed's per-element INT32 evaluation, re-deriving the scales the same
/// way the kernel does.
float int32_reference(const PiecewiseLinear& lut, float input_max_abs,
                      float x) {
  constexpr float kQMax = 32767.0f;
  const float sx = input_max_abs / kQMax;
  float max_slope = 0.0f;
  for (float s : lut.slopes()) max_slope = std::max(max_slope, std::abs(s));
  const float ss = (max_slope > 0.0f ? max_slope : 1.0f) / kQMax;

  const std::int32_t qx = ref_quantize(x, sx);
  const auto bps = lut.breakpoints();
  std::size_t i = 0;
  while (i < bps.size() && qx >= ref_quantize(bps[i], sx)) ++i;
  const std::int64_t acc =
      static_cast<std::int64_t>(ref_quantize(lut.slopes()[i], ss)) * qx +
      static_cast<std::int64_t>(ref_quantize(lut.intercepts()[i], ss * sx));
  return static_cast<float>(acc) * (ss * sx);
}

class KernelParity : public ::testing::TestWithParam<int> {};

TEST_P(KernelParity, Fp32BatchedMatchesScalarBitwise) {
  Rng rng(17u + static_cast<std::uint64_t>(GetParam()));
  const PiecewiseLinear lut = random_lut(GetParam(), rng);
  const std::vector<float> xs = parity_inputs(lut, rng);

  std::vector<float> batched = xs;
  lut.eval_inplace(batched);
  // Reference: the per-element binary-search path.
  for (std::size_t i = 0; i < xs.size(); ++i)
    expect_bitwise(lut(xs[i]), batched[i], xs[i]);
}

TEST_P(KernelParity, Fp16BatchedMatchesScalarBitwise) {
  Rng rng(23u + static_cast<std::uint64_t>(GetParam()));
  const PiecewiseLinear lut = random_lut(GetParam(), rng);
  const LutFp16 fn(lut);
  const std::vector<float> xs = parity_inputs(lut, rng);

  std::vector<float> batched = xs;
  fn.eval_inplace(batched);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    expect_bitwise(fp16_reference(lut, xs[i]), batched[i], xs[i]);
    expect_bitwise(fn.eval(xs[i]), batched[i], xs[i]);
  }
}

TEST_P(KernelParity, Int32BatchedMatchesScalarBitwise) {
  Rng rng(31u + static_cast<std::uint64_t>(GetParam()));
  const PiecewiseLinear lut = random_lut(GetParam(), rng);
  const float input_max_abs = 24.0f;
  const LutInt32 fn(lut, input_max_abs);
  const std::vector<float> xs = parity_inputs(lut, rng);

  std::vector<float> batched = xs;
  fn.eval_inplace(batched);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    expect_bitwise(int32_reference(lut, input_max_abs, xs[i]), batched[i],
                   xs[i]);
    expect_bitwise(fn.eval(xs[i]), batched[i], xs[i]);
  }
}

// Entry counts straddling every fetch shape of the comparator-bank scan:
// one-register permute (padded <= 8 / 16), the AVX-512 register-pair
// permute (padded 32) and the gather fetch (padded > 32 on AVX-512, > 8 on
// AVX2), plus non-powers of two that exercise the padding.
INSTANTIATE_TEST_SUITE_P(Entries, KernelParity,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 31, 32, 33, 64,
                                           100, 128, 300));

TEST(LutKernel, EmptySpanIsANoOp) {
  Rng rng(7);
  const PiecewiseLinear lut = random_lut(16, rng);
  std::vector<float> empty;
  lut.eval_inplace(empty);  // must not crash
  LutFp16 h(lut);
  LutInt32 q(lut, 24.0f);
  h.eval_inplace(std::span<float>{});
  q.eval_inplace(std::span<float>{});
  EXPECT_TRUE(empty.empty());
}

TEST(LutKernel, OneElementSpanMatchesScalar) {
  Rng rng(9);
  const PiecewiseLinear lut = random_lut(16, rng);
  for (float x : {-7.5f, 0.0f, 3.25f, kInf, -kInf}) {
    float v = x;
    std::span<float> one(&v, 1);
    lut.eval_inplace(one);
    expect_bitwise(lut(x), v, x);
  }
}

TEST(LutKernel, PaddingReplicatesLastSegment) {
  // 3 entries pad to 4; anything past the last real breakpoint (including
  // +inf and NaN's padded-tail index) must land on the last real segment.
  const PiecewiseLinear lut({-1.0f, 1.0f}, {2.0f, 0.5f, -3.0f},
                            {0.0f, 1.0f, 2.0f});
  EXPECT_EQ(lut.kernel().padded_entries(), 4u);
  std::vector<float> xs{5.0f, 100.0f, kInf};
  std::vector<float> batched = xs;
  lut.eval_inplace(batched);
  for (std::size_t i = 0; i < xs.size(); ++i)
    expect_bitwise(lut(xs[i]), batched[i], xs[i]);
}

TEST(LutKernel, PlanShapeSelection) {
  // Padding is power-of-two: the register-permute fetches rely on it.
  Rng rng(11);
  EXPECT_EQ(random_lut(16, rng).kernel().padded_entries(), 16u);
  EXPECT_EQ(random_lut(32, rng).kernel().padded_entries(), 32u);
  EXPECT_EQ(random_lut(33, rng).kernel().padded_entries(), 64u);
  EXPECT_EQ(random_lut(128, rng).kernel().padded_entries(), 128u);
}

TEST(CapturingFn, RecordsBatchedInputsAndDelegatesBatched) {
  Rng rng(13);
  const PiecewiseLinear lut = random_lut(16, rng);
  const LutFp32 base(lut);
  std::vector<float> sink;
  const CapturingFn cap(base, sink);

  std::vector<float> xs{-3.0f, -0.5f, 0.0f, 1.25f, 9.0f};
  std::vector<float> got = xs;
  cap.eval_inplace(got);

  ASSERT_EQ(sink.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(sink[i], xs[i]) << i;  // inputs recorded, in order
    expect_bitwise(lut(xs[i]), got[i], xs[i]);  // base's batched path ran
  }

  // Scalar convenience routes through the batched primitive: captured once.
  sink.clear();
  EXPECT_EQ(cap.eval(2.5f), base.eval(2.5f));
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink[0], 2.5f);
}

// ------------------------------------------------- SIMD tier dispatch ------

/// Pins a tier for a scope; restores automatic selection on exit.
class ScopedTier {
 public:
  explicit ScopedTier(SimdTier t) { simd::set_simd_tier(t); }
  ~ScopedTier() { simd::set_simd_tier(std::nullopt); }
};

TEST(SimdDispatch, TierNamesRoundTrip) {
  for (SimdTier t : {SimdTier::kScalar, SimdTier::kAvx2, SimdTier::kAvx512})
    EXPECT_EQ(simd::parse_simd_tier(simd::simd_tier_name(t)), t);
  EXPECT_EQ(simd::parse_simd_tier("avx512vnni"), std::nullopt);
  EXPECT_EQ(simd::parse_simd_tier("neon"), std::nullopt);
  EXPECT_EQ(simd::parse_simd_tier(""), std::nullopt);
}

TEST(SimdDispatch, DetectionReport) {
  // Assertion-light on purpose: prints this machine's detection result so
  // CI logs record which tiers the parity suites actually exercised.
  std::printf("detected=%s auto=%s available=[%s]\n",
              simd::simd_tier_name(simd::detected_simd_tier()),
              simd::simd_tier_name(simd::auto_simd_tier()),
              simd::simd_tier_names().c_str());
  // The available list is a chain from scalar up to exactly the detection.
  EXPECT_FALSE(simd::simd_tier_names().empty());
  EXPECT_EQ(simd::available_simd_tiers().front(), SimdTier::kScalar);
  EXPECT_EQ(simd::available_simd_tiers().back(), simd::detected_simd_tier());
}

TEST(SimdDispatch, EnvironmentPolicyOnlyLowersTheTier) {
  const SimdTier det = SimdTier::kAvx512;
  // NNLUT_SIMD_TIER caps at the named tier, clamped to detection.
  EXPECT_EQ(simd::env_capped_tier("avx2", det), SimdTier::kAvx2);
  EXPECT_EQ(simd::env_capped_tier("scalar", det), SimdTier::kScalar);
  EXPECT_EQ(simd::env_capped_tier("avx512", SimdTier::kAvx2),
            SimdTier::kAvx2);  // clamp: never above the CPU
  // Unknown names and an unset variable leave the detected tier.
  EXPECT_EQ(simd::env_capped_tier("avx512vnni", det), det);
  EXPECT_EQ(simd::env_capped_tier("bogus", det), det);
  EXPECT_EQ(simd::env_capped_tier("", det), det);
  EXPECT_EQ(simd::env_capped_tier(nullptr, det), det);
}

TEST(SimdDispatch, ForcingAnUnsupportedTierThrowsAndKeepsState) {
  const SimdTier before = simd::active_simd_tier();
  const SimdTier det = simd::detected_simd_tier();
  if (det < SimdTier::kAvx512) {
    EXPECT_THROW(simd::set_simd_tier(SimdTier::kAvx512),
                 std::invalid_argument);
    if (det < SimdTier::kAvx2) {
      EXPECT_THROW(simd::set_simd_tier(SimdTier::kAvx2),
                   std::invalid_argument);
    }
    EXPECT_EQ(simd::active_simd_tier(), before);
  }
  // Scalar is always forcible; nullopt restores the automatic choice.
  simd::set_simd_tier(SimdTier::kScalar);
  EXPECT_EQ(simd::active_simd_tier(), SimdTier::kScalar);
  simd::set_simd_tier(std::nullopt);
  EXPECT_EQ(simd::active_simd_tier(), simd::auto_simd_tier());
}

TEST(SimdDispatch, RuntimeConfigPinsAndRestoresTheTier) {
  runtime::set_runtime_config({1, SimdTier::kScalar});
  EXPECT_EQ(simd::active_simd_tier(), SimdTier::kScalar);
  EXPECT_EQ(runtime::runtime_config().simd, SimdTier::kScalar);
  runtime::set_runtime_config({});
  EXPECT_EQ(simd::active_simd_tier(), simd::auto_simd_tier());
  EXPECT_EQ(runtime::runtime_config().simd, std::nullopt);
}

/// Forced-tier parity: for every available tier, every precision, entry
/// counts straddling the permute and gather fetch shapes, inputs
/// including exact breakpoints, ±inf and NaN — bits must equal the forced-
/// scalar reference. This is the ISA-invariance contract.
class SimdTierParity : public ::testing::TestWithParam<int> {};

TEST_P(SimdTierParity, AllTiersMatchScalarBitwise) {
  Rng rng(211u + static_cast<std::uint64_t>(GetParam()));
  const PiecewiseLinear lut = random_lut(GetParam(), rng);
  const LutFp16 half_fn(lut);
  const LutInt32 int_fn(lut, 24.0f);
  const std::vector<float> xs = parity_inputs(lut, rng);

  struct Precision {
    const char* name;
    std::function<void(std::span<float>)> eval;
  };
  const Precision precisions[] = {
      {"fp32", [&](std::span<float> b) { lut.eval_inplace(b); }},
      {"fp16", [&](std::span<float> b) { half_fn.eval_inplace(b); }},
      {"int32", [&](std::span<float> b) { int_fn.eval_inplace(b); }},
  };

  for (const Precision& prec : precisions) {
    std::vector<float> ref = xs;
    {
      ScopedTier scalar(SimdTier::kScalar);
      prec.eval(ref);
    }
    for (SimdTier tier : simd::available_simd_tiers()) {
      ScopedTier forced(tier);
      std::vector<float> got = xs;
      prec.eval(got);
      for (std::size_t i = 0; i < xs.size(); ++i)
        expect_bitwise(ref[i], got[i], xs[i]);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << prec.name << " under " << simd::simd_tier_name(tier)
          << " (entries=" << GetParam() << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Entries, SimdTierParity,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 31, 32, 33, 64,
                                           100, 128, 300));

TEST(SimdTierParity, UnalignedAndShortSpansMatchScalar) {
  // Sub-vector spans, every misalignment of a 64-byte line, and lengths
  // around the 8/16-lane vector widths: the wide kernels must agree with
  // scalar on their tail handling and unaligned loads, at all three
  // precisions (the FP16 span rides at offset + 32 so the three evals never
  // need the buffer grown per precision).
  Rng rng(99);
  const PiecewiseLinear lut = random_lut(16, rng);
  const LutFp16 half_fn(lut);
  const LutInt32 int_fn(lut, 24.0f);
  std::vector<float> base(128);
  for (float& x : base) x = rng.uniform(-20.0f, 20.0f);
  base[40] = std::numeric_limits<float>::quiet_NaN();
  base[41] = kInf;
  base[42] = 65520.0f;        // rounds to +inf in binary16
  base[43] = 5.9604645e-8f;   // half denormal min

  for (std::size_t offset : {0u, 1u, 3u, 5u, 7u, 9u}) {
    for (std::size_t len : {1u, 2u, 7u, 8u, 9u, 15u, 16u, 17u, 33u, 64u}) {
      for (SimdTier tier : simd::available_simd_tiers()) {
        std::vector<float> ref = base;
        std::vector<float> got = base;
        {
          ScopedTier scalar(SimdTier::kScalar);
          lut.eval_inplace(std::span<float>(ref).subspan(offset, len));
          int_fn.eval_inplace(
              std::span<float>(ref).subspan(offset + 16, len));
          half_fn.eval_inplace(
              std::span<float>(ref).subspan(offset + 32, len));
        }
        {
          ScopedTier forced(tier);
          lut.eval_inplace(std::span<float>(got).subspan(offset, len));
          int_fn.eval_inplace(
              std::span<float>(got).subspan(offset + 16, len));
          half_fn.eval_inplace(
              std::span<float>(got).subspan(offset + 32, len));
        }
        for (std::size_t i = 0; i < base.size(); ++i)
          expect_bitwise(ref[i], got[i], base[i]);
        ASSERT_FALSE(::testing::Test::HasFailure())
            << "tier=" << simd::simd_tier_name(tier) << " offset=" << offset
            << " len=" << len;
      }
    }
  }
}

TEST(SimdTierParity, Fp16NaNPayloadBitsExactAcrossTiers) {
  // Payload-strict variant of the FP16 parity check: raw output bits, no
  // NaN-equals-NaN tolerance. The software rounding chain (numerics/half.h)
  // and the F16C / AVX-512 vcvtps2ph round-trips must narrow, quiet and
  // widen NaN payloads identically, so even NaN outputs are bit-equal.
  Rng rng(131);
  for (int entries : {8, 64}) {
    const PiecewiseLinear lut = random_lut(entries, rng);
    const LutFp16 fn(lut);
    std::vector<float> xs;
    for (std::uint32_t bits : {0x7fc00000u, 0x7fc12345u, 0xffc54321u,
                               0x7f800001u, 0xff923456u, 0x7fffffffu})
      xs.push_back(std::bit_cast<float>(bits));
    for (int i = 0; i < 32; ++i) xs.push_back(rng.uniform(-20.0f, 20.0f));
    std::vector<float> ref = xs;
    {
      ScopedTier scalar(SimdTier::kScalar);
      fn.eval_inplace(ref);
    }
    for (SimdTier tier : simd::available_simd_tiers()) {
      ScopedTier forced(tier);
      std::vector<float> got = xs;
      fn.eval_inplace(got);
      for (std::size_t i = 0; i < xs.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint32_t>(ref[i]),
                  std::bit_cast<std::uint32_t>(got[i]))
            << "tier=" << simd::simd_tier_name(tier)
            << " entries=" << entries << " i=" << i;
    }
  }
}

TEST(SimdTierParity, Int32MacInt16PairBoundarySweep) {
  // The INT32 MAC's extremes: quantized inputs on both sides of the int16
  // range, a slope at the ±32767 budget, and an intercept so large that
  // q_s·q_x + q_t leaves int32. Every available tier must match forced
  // scalar bit for bit, which pins each tier's int64 MAC (and the float
  // rounding of its wide accumulator) where a narrower MAC would wrap.
  const float input_max_abs = 24.0f;
  const float sx = input_max_abs / 32767.0f;

  // Table A: the max-magnitude slope quantizes to ±32767 and intercepts
  // are small, so |q_s|·2^15 + |q_t| stays within INT32_MAX.
  const PiecewiseLinear small_t({-4.0f, 0.0f, 4.0f},
                                {1.0f, -0.25f, 0.5f, -1.0f},
                                {0.5f, -0.5f, 0.25f, 1.5f});
  // Table B: intercept 50000 on the tiny product scale Ss·Sx clamps q_t at
  // ~2.147e9, so the accumulator leaves int32.
  const PiecewiseLinear big_t({-4.0f, 0.0f, 4.0f},
                              {1.0f, -0.25f, 0.5f, -1.0f},
                              {0.5f, 50000.0f, 0.25f, 1.5f});
  const LutInt32 fits(small_t, input_max_abs);
  const LutInt32 spills(big_t, input_max_abs);

  // Inputs straddling the q_x int16 boundary: q = ±32768…±32766 are the
  // extremes a legal input can quantize to; |x| > input_max_abs quantizes
  // past the int16 range.
  std::vector<float> edges;
  for (std::int32_t q : {-32768, -32767, -32766, -1, 0, 1, 32766, 32767})
    edges.push_back(static_cast<float>(q) * sx);
  for (float wide : {-40.0f, 25.0f, 40.0f, 1000.0f}) edges.push_back(wide);
  std::vector<float> mixed;  // some 16-lane vectors leave int16
  for (int rep = 0; rep < 6; ++rep)
    for (float x : edges) mixed.push_back(x);
  std::vector<float> inrange(48);  // every lane stays within int16
  for (std::size_t i = 0; i < inrange.size(); ++i)
    inrange[i] = static_cast<float>(static_cast<int>(i) * 683 - 16384) * sx;

  for (const LutInt32* fn : {&fits, &spills}) {
    for (const std::vector<float>* batch : {&mixed, &inrange}) {
      std::vector<float> ref = *batch;
      {
        ScopedTier scalar(SimdTier::kScalar);
        fn->eval_inplace(ref);
      }
      for (SimdTier tier : simd::available_simd_tiers()) {
        ScopedTier forced(tier);
        std::vector<float> got = *batch;
        fn->eval_inplace(got);
        for (std::size_t i = 0; i < batch->size(); ++i)
          expect_bitwise(ref[i], got[i], (*batch)[i]);
        ASSERT_FALSE(::testing::Test::HasFailure())
            << "tier=" << simd::simd_tier_name(tier)
            << (fn == &fits ? " table=fits" : " table=spills");
      }
    }
  }
}

// ------------------------------------------------------- owned plans ------

TEST(OwnedPlan, ConstructionCountsOneCompiledTableCopiesNone) {
  // The repository benchmark reports plan_cache_stats().misses as the
  // tables compiled during setup: one per constructed table, none per copy.
  const std::vector<float> bps = {-1.0f, 0.0f, 1.0f};
  const std::vector<float> slopes = {0.5f, 1.0f, -1.0f, 2.0f};
  const std::vector<float> intercepts = {0.0f, 0.25f, -0.25f, 1.0f};

  const std::size_t m0 = plan_cache_stats().misses;
  PiecewiseLinear a(bps, slopes, intercepts);
  EXPECT_EQ(plan_cache_stats().misses - m0, 1u);
  PiecewiseLinear b(bps, slopes, intercepts);  // identical twin site
  EXPECT_EQ(plan_cache_stats().misses - m0, 2u);

  PiecewiseLinear c = a;
  PiecewiseLinear d;
  d = b;
  EXPECT_EQ(plan_cache_stats().misses - m0, 2u);
  EXPECT_EQ(c.kernel().entries(), a.kernel().entries());
  EXPECT_EQ(d.kernel().entries(), b.kernel().entries());
}

TEST(OwnedPlan, RebuiltTwinTableEvaluatesIdentically) {
  Rng rng(78);
  PiecewiseLinear a = random_lut(16, rng);
  PiecewiseLinear b(std::vector<float>(a.breakpoints().begin(),
                                       a.breakpoints().end()),
                    std::vector<float>(a.slopes().begin(), a.slopes().end()),
                    std::vector<float>(a.intercepts().begin(),
                                       a.intercepts().end()));
  std::vector<float> xs = {-9.0f, -1.0f, 0.0f, 2.5f, 100.0f, kInf, -kInf, kNan};
  std::vector<float> ys = xs;
  a.eval_inplace(xs);
  b.eval_inplace(ys);
  for (std::size_t i = 0; i < xs.size(); ++i)
    expect_bitwise(xs[i], ys[i], 0.0f);
}

}  // namespace
}  // namespace nnlut
