// Runtime-dispatched SIMD tiers for the compiled LUT plans.
//
// The paper's hardware evaluates an N-entry table with a *parallel*
// comparator bank feeding one MAC (Eq. 4): every comparator fires in the
// same cycle. That is the hardware form. The CPU form is a log2(N)
// bisection with identical results: one AVX2/AVX-512 register holds 8/16
// activations, each step fetches every lane's probe breakpoint and compares
// all lanes at once, and the selected (slope, intercept) pairs are fetched
// the same way — a register permute (tables that fit one register, or a
// register pair) or a hardware gather (larger tables). Every tier and
// precision runs that one bisection (core/lut_kernel_simd_detail.h has the
// scalar form and why it equals the bank's count).
//
// Dispatch model:
//   - the ISA tier is resolved ONCE at first use from CPUID
//     (__builtin_cpu_supports) — scalar < AVX2+F16C < AVX-512F+DQ — and
//     installed as one atomic tier that every kernel family (the LUT
//     plans, GEMM, the I-BERT rows, the LUT row passes) reads per call and
//     `switch`es on;
//   - `NNLUT_SIMD_TIER=scalar|avx2|avx512` caps the automatic choice at a
//     named tier. It only *lowers* the tier — it can never select an ISA
//     the CPU does not have — and an unknown name is warned about and
//     ignored;
//   - `set_simd_tier` is the programmatic override (tests, RuntimeConfig):
//     forcing a tier above the detected one throws (the message names the
//     available set), `std::nullopt` restores the automatic choice.
//
// Determinism contract (ISA-invariance): every tier performs the exact same
// IEEE operation sequence per element as the scalar reference — the
// bisection's compares, a fetch, one multiply, one add, with no FMA
// contraction — so evaluation is
// bit-identical across tiers for all inputs including values exactly on
// breakpoints, ±inf and NaN. This extends the repo's existing guarantee
// (thread-count- and batch-invariant results) to the ISA dimension; the
// forced-tier suite in tests/lut_kernel_test.cpp asserts it.
//
// The FP16 plan runs wide too: its binary16 rounding chain maps to
// vcvtps2ph/vcvtph2ps round-trips (F16C on the AVX2 tier, native 512-bit
// forms on AVX-512F), which numerics/half.h reproduces bit-for-bit
// including NaN payloads and denormals — so the emulated FP16 datapath is
// ISA-invariant like the other precisions. Every AVX2 CPU ships F16C, and
// the avx2 tier requires both CPUID bits.
//
// The avx512 tier requires AVX-512DQ next to F, as the avx2 tier requires
// F16C: the I-BERT row kernels (ibert/ibert_row_kernel.h) run on its
// 64-bit lane multiply and int64 <-> float conversions. Every AVX-512 CPU
// except Xeon Phi has DQ.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nnlut::simd {

/// ISA tiers in strictly increasing capability; ordering comparisons are
/// meaningful (a CPU supporting a tier supports all lower tiers).
enum class SimdTier : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// "scalar" | "avx2" | "avx512".
const char* simd_tier_name(SimdTier tier);

/// Comma-separated names of every tier this process can run (the
/// available_simd_tiers() list) — the string error paths and logs embed so
/// an unsupported request always says what *is* supported.
std::string simd_tier_names();

/// Parse a tier name (as accepted in NNLUT_SIMD_TIER); nullopt if unknown.
std::optional<SimdTier> parse_simd_tier(std::string_view name);

/// Widest tier this CPU supports (and this build carries kernels for).
SimdTier detected_simd_tier();

/// Every tier this process can actually run, narrowest first: scalar, then
/// each wide tier up to detected_simd_tier(). The one list parity tests
/// and benchmark sweeps should iterate.
std::vector<SimdTier> available_simd_tiers();

/// The tier automatic dispatch resolves to: detected, capped by the
/// NNLUT_SIMD_TIER environment variable (read once).
SimdTier auto_simd_tier();

/// The installed tier, which every kernel family dispatches on per call.
/// Resolves the automatic tier on first use.
SimdTier active_simd_tier();

/// Force a tier (tests, benches, RuntimeConfig::simd). Throws
/// std::invalid_argument naming the available tier set if `tier` exceeds
/// detected_simd_tier(). std::nullopt restores automatic selection.
/// Thread-safe; kernels already executing finish on the tier they read.
void set_simd_tier(std::optional<SimdTier> tier);

/// Pure form of the environment policy, exposed for tests: the tier cap
/// implied by an NNLUT_SIMD_TIER value, clamped to `detected`. nullptr
/// means the variable is unset; an unknown name leaves `detected`.
SimdTier env_capped_tier(const char* tier_name, SimdTier detected);

}  // namespace nnlut::simd
