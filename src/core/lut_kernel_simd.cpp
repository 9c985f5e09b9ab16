// Tier resolution: detects the ISA tier once (CPUID + environment cap) and
// installs it as one atomic value that every kernel family's dispatch
// `switch` reads per call. The wide tiers live in their own translation
// units, compiled with the matching -m flags; this file is compiled with
// the portable baseline so it can run anywhere.
#include "core/lut_kernel_simd.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace nnlut::simd {
namespace {

// The installed tier; kUnresolved until first use or set_simd_tier.
constexpr int kUnresolved = -1;
std::atomic<int> g_active{kUnresolved};

}  // namespace

const char* simd_tier_name(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAvx512:
      return "avx512";
    case SimdTier::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

std::string simd_tier_names() {
  std::string names;
  for (SimdTier t : available_simd_tiers()) {
    if (!names.empty()) names += ", ";
    names += simd_tier_name(t);
  }
  return names;
}

std::optional<SimdTier> parse_simd_tier(std::string_view name) {
  if (name == "scalar") return SimdTier::kScalar;
  if (name == "avx2") return SimdTier::kAvx2;
  if (name == "avx512") return SimdTier::kAvx512;
  return std::nullopt;
}

SimdTier detected_simd_tier() {
  static const SimdTier tier = [] {
#ifdef NNLUT_HAVE_AVX512
    // The avx512 tier needs DQ next to F: the I-BERT row kernels run on its
    // 64-bit lane multiply and int64 conversions. Every AVX-512 CPU except
    // Xeon Phi has it.
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq"))
      return SimdTier::kAvx512;
#endif
#ifdef NNLUT_HAVE_AVX2
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c"))
      return SimdTier::kAvx2;
#endif
    return SimdTier::kScalar;
  }();
  return tier;
}

SimdTier env_capped_tier(const char* tier_name, SimdTier detected) {
  if (tier_name != nullptr) {
    if (const auto cap = parse_simd_tier(tier_name))
      return std::min(*cap, detected);
  }
  return detected;
}

SimdTier auto_simd_tier() {
  // Function-local static (not a namespace-scope global): plan evaluation
  // during another TU's static initialization must still resolve the real
  // tier, not a zero-initialized placeholder. The environment is read once
  // here — dispatch must not change behind a running server's back because
  // the wall clock crossed a getenv call.
  static const SimdTier tier = [] {
    const char* tier_name = std::getenv("NNLUT_SIMD_TIER");
    const SimdTier detected = detected_simd_tier();
    const SimdTier capped = env_capped_tier(tier_name, detected);
    // The cap itself stays pure and silent (env_capped_tier is unit-tested
    // as a function); the once-per-process resolution is where a surprising
    // request gets a diagnostic naming what this machine can actually run.
    if (tier_name != nullptr) {
      const auto requested = parse_simd_tier(tier_name);
      if (!requested) {
        std::fprintf(stderr,
                     "nnlut: ignoring unknown NNLUT_SIMD_TIER='%s' "
                     "(available tiers: %s)\n",
                     tier_name, simd_tier_names().c_str());
      } else if (*requested > detected) {
        std::fprintf(stderr,
                     "nnlut: NNLUT_SIMD_TIER='%s' exceeds this machine; "
                     "capping at detected tier '%s' (available tiers: %s)\n",
                     tier_name, simd_tier_name(detected),
                     simd_tier_names().c_str());
      }
    }
    return capped;
  }();
  return tier;
}

std::vector<SimdTier> available_simd_tiers() {
  std::vector<SimdTier> tiers{SimdTier::kScalar};
  const SimdTier top = detected_simd_tier();
  if (top >= SimdTier::kAvx2) tiers.push_back(SimdTier::kAvx2);
  if (top >= SimdTier::kAvx512) tiers.push_back(SimdTier::kAvx512);
  return tiers;
}

SimdTier active_simd_tier() {
  int tier = g_active.load(std::memory_order_acquire);
  if (tier == kUnresolved) {
    // First use (or a benign race with another first user): install the
    // automatic tier. compare_exchange keeps a concurrent set_simd_tier win.
    int expected = kUnresolved;
    g_active.compare_exchange_strong(expected,
                                     static_cast<int>(auto_simd_tier()),
                                     std::memory_order_acq_rel);
    tier = g_active.load(std::memory_order_acquire);
  }
  return static_cast<SimdTier>(tier);
}

void set_simd_tier(std::optional<SimdTier> tier) {
  if (tier.has_value() && *tier > detected_simd_tier())
    throw std::invalid_argument(
        std::string("set_simd_tier: tier '") + simd_tier_name(*tier) +
        "' exceeds the detected tier '" +
        simd_tier_name(detected_simd_tier()) + "' (available tiers: " +
        simd_tier_names() + ")");
  g_active.store(static_cast<int>(tier.value_or(auto_simd_tier())),
                 std::memory_order_release);
}

}  // namespace nnlut::simd
