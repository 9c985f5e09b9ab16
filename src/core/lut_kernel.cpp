#include "core/lut_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "core/lut_kernel_simd.h"
#include "core/lut_kernel_simd_detail.h"
#include "core/thread_annotations.h"
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

// ---------------------------------------------------------- plan cache ---

namespace {

/// FNV-1a over the raw bytes of a float span (bitwise: -0.0 vs 0.0 and
/// distinct NaN payloads hash differently, matching the equality test).
std::uint64_t fnv1a(std::uint64_t h, std::span<const float> xs) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(xs.data());
  const std::size_t n = xs.size() * sizeof(float);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t table_hash(std::span<const float> breakpoints,
                         std::span<const float> slopes,
                         std::span<const float> intercepts) {
  std::uint64_t h = 14695981039346656037ull;
  h = fnv1a(h, breakpoints);
  h ^= 0x9e3779b97f4a7c15ull;  // separator so ({a},{b}) != ({a,b},{})
  h = fnv1a(h, slopes);
  h ^= 0x9e3779b97f4a7c15ull;
  h = fnv1a(h, intercepts);
  return h;
}

bool bitwise_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Compilation is deterministic and the padded arrays embed the unpadded
// table as a prefix, so (entries, padded arrays) equality == input equality.
bool same_table(const LutKernel& plan, std::size_t entries,
                std::span<const float> breakpoints,
                std::span<const float> slopes,
                std::span<const float> intercepts) {
  if (plan.entries() != entries) return false;
  const auto pb = plan.padded_breakpoints();
  const auto ps = plan.padded_slopes();
  const auto pt = plan.padded_intercepts();
  return bitwise_equal(pb.first(breakpoints.size()), breakpoints) &&
         bitwise_equal(ps.first(slopes.size()), slopes) &&
         bitwise_equal(pt.first(intercepts.size()), intercepts);
}

// Every kSweepPeriod lookups, drop expired weak references map-wide so
// one-off tables (fitting sweeps compile thousands, each hashed once and
// never looked up again) cannot grow the map without bound.
constexpr std::size_t kSweepPeriod = 64;

struct PlanCache {
  Mutex mu;
  // Hash buckets of weak refs; collisions resolved by content comparison.
  std::unordered_map<std::uint64_t, std::vector<std::weak_ptr<const LutKernel>>>
      plans NNLUT_GUARDED_BY(mu);
  std::size_t hits NNLUT_GUARDED_BY(mu) = 0;
  std::size_t misses NNLUT_GUARDED_BY(mu) = 0;
  std::size_t sweep_countdown NNLUT_GUARDED_BY(mu) = kSweepPeriod;

  void sweep() NNLUT_REQUIRES(mu) {
    // Unordered iteration is safe here: the sweep only drops expired weak
    // refs, so visit order changes which entry is erased first but never
    // what survives — nothing here feeds an output path.
    // lint:allow unordered-iter
    for (auto it = plans.begin(); it != plans.end();) {
      auto& bucket = it->second;
      std::erase_if(bucket, [](const std::weak_ptr<const LutKernel>& w) {
        return w.expired();
      });
      it = bucket.empty() ? plans.erase(it) : std::next(it);
    }
  }
};

PlanCache& plan_cache() {
  static PlanCache* cache = new PlanCache;  // leaked: usable at exit
  return *cache;
}

}  // namespace

std::shared_ptr<const LutKernel> compile_plan_cached(
    std::span<const float> breakpoints, std::span<const float> slopes,
    std::span<const float> intercepts) {
  PlanCache& cache = plan_cache();
  const std::uint64_t h = table_hash(breakpoints, slopes, intercepts);
  MutexLock lk(cache.mu);
  if (--cache.sweep_countdown == 0) {
    cache.sweep_countdown = kSweepPeriod;
    cache.sweep();
  }
  auto& bucket = cache.plans[h];
  for (auto it = bucket.begin(); it != bucket.end();) {
    if (std::shared_ptr<const LutKernel> plan = it->lock()) {
      if (same_table(*plan, slopes.size(), breakpoints, slopes, intercepts)) {
        ++cache.hits;
        return plan;
      }
      ++it;
    } else {
      it = bucket.erase(it);  // prune expired entries as we pass them
    }
  }
  ++cache.misses;
  auto plan = std::make_shared<const LutKernel>(breakpoints, slopes, intercepts);
  bucket.push_back(plan);
  return plan;
}

PlanCacheStats plan_cache_stats() {
  PlanCache& cache = plan_cache();
  MutexLock lk(cache.mu);
  PlanCacheStats s;
  s.hits = cache.hits;
  s.misses = cache.misses;
  // Order-independent sums over the buckets; diagnostics only.
  // lint:allow unordered-iter
  for (const auto& kv : cache.plans) {
    s.cached += kv.second.size();
    for (const auto& weak : kv.second)
      if (!weak.expired()) ++s.live;
  }
  return s;
}

}  // namespace nnlut
