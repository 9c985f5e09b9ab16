// Measurement helpers for nnlut_bench: exact order statistics over raw
// samples, output fingerprints for the correctness gate, process memory,
// hopping a closed loop over the vCPUs, and the bench-side NonlinearitySet decorator that traces every call into
// the core kernels from outside the library.
#pragma once

#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "obs/trace.h"
#include "transformer/backends.h"

namespace nnlut::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One order statistic with the sample it was read from: `beyond` counts the
/// samples strictly above the rank, the number a tail percentile rests on.
struct Quantile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank quantile: the ceil(q * n)-th smallest sample. No
/// interpolation and no buckets, so the value is always an observed sample.
inline Quantile nearest_rank(std::vector<double> samples, double q) {
  Quantile out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  return out;
}

inline double median(std::vector<double> samples) {
  return nearest_rank(std::move(samples), 0.5).value;
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double s = 0.0;
  for (double v : samples) s += v;
  return s / static_cast<double>(samples.size());
}

/// FNV-1a over the raw IEEE-754 bit patterns: two outputs hash equal only
/// when they are (with overwhelming probability) bitwise identical.
inline std::uint64_t hash_bits(std::span<const float> xs) {
  std::uint64_t h = 14695981039346656037ull;
  for (float x : xs) {
    std::uint32_t u = 0;
    std::memcpy(&u, &x, sizeof u);
    h = (h ^ u) * 1099511628211ull;
  }
  return h;
}

inline double max_abs_diff(std::span<const float> a, std::span<const float> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  return m;
}

/// Restart the peak-RSS high-water mark from the current RSS (Linux
/// clear_refs); false where unsupported.
inline bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Moves the calling thread round-robin over the CPUs it may run on, and
/// gives it all of them back when destroyed. On a shared host a vCPU's speed
/// follows whatever its host sibling runs: one vCPU can run a matmul at half
/// speed for seconds while another runs it at full speed. A closed loop that
/// keeps one thread on one vCPU then measures that vCPU's neighbour. Hopping
/// spreads the samples of every timed unit over all vCPUs, so the fastest
/// sample of a unit is its cost on a vCPU that was not slowed down.
///
/// Threads inherit the affinity of the thread that creates them: nothing
/// that starts threads may run between a hop and the destructor. Nor may
/// a second CpuHop be made there: it would take the one pinned vCPU for
/// the whole set.
class CpuHop {
 public:
  /// `every`: the least time between two hops of hop_if_due(); each hop
  /// leaves the caches of the vCPU it left, so a hop per short call would
  /// make every sample a cold one.
  explicit CpuHop(std::chrono::milliseconds every = std::chrono::milliseconds{0})
      : every_(every) {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
  ~CpuHop() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuHop(const CpuHop&) = delete;
  CpuHop& operator=(const CpuHop&) = delete;

  /// Moves to the next CPU now.
  void hop() {
    last_ = Clock::now();
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_], &one);
    next_ = (next_ + 1) % cpus_.size();
    sched_setaffinity(0, sizeof one, &one);
  }
  /// Moves to the next CPU if `every` has passed since the last hop.
  void hop_if_due() {
    if (Clock::now() - last_ >= every_) hop();
  }

 private:
  std::chrono::milliseconds every_;
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  Clock::time_point last_{};
};

/// Peak resident set (VmHWM) in MiB; 0 where /proc is unavailable.
inline double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

// ------------------------------------------------ timed nonlinearities ---

enum class Op { kGelu, kSoftmax, kLayerNorm };

enum class Backend { kExact, kLutFp32, kLutFp16, kLutInt32, kIBert };
inline constexpr std::array<const char*, 5> kBackendNames = {
    "exact", "lut_fp32", "lut_fp16", "lut_int32", "ibert"};

/// Span names must have static storage (the trace rings keep the pointer).
inline constexpr const char* kCoreSpans[3][5] = {
    {"core.gelu.exact", "core.gelu.lut_fp32", "core.gelu.lut_fp16",
     "core.gelu.lut_int32", "core.gelu.ibert"},
    {"core.softmax.exact", "core.softmax.lut_fp32", "core.softmax.lut_fp16",
     "core.softmax.lut_int32", "core.softmax.ibert"},
    {"core.layernorm.exact", "core.layernorm.lut_fp32",
     "core.layernorm.lut_fp16", "core.layernorm.lut_int32",
     "core.layernorm.ibert"}};

/// A real backend wrapped so each block call into the core kernels is
/// traced as core.<op>.<backend> with span id = elements processed, and,
/// while a lap list is set, marks where each block call starts and ends:
/// the boundaries that split one forward pass into the stretches between
/// and inside its nonlinearities. The caller pushes the pass's start first
/// and its end last; stretch j then runs from laps[2j] to laps[2j + 1].
/// With tracing off and no lap list the cost is two branches per call;
/// results pass through untouched.
class TimedNonlinearities final : public transformer::NonlinearitySet {
 public:
  TimedNonlinearities(std::unique_ptr<transformer::NonlinearitySet> inner,
                      Backend backend)
      : inner_(std::move(inner)), backend_(backend) {}

  /// Appends lap times to `laps` from now on; nullptr stops. With `hop`,
  /// each boundary may also move the thread to the next vCPU, between the
  /// time that ends one stretch and the time that starts the next, so the
  /// move is in neither.
  void record_laps(std::vector<Clock::time_point>* laps, CpuHop* hop = nullptr) {
    laps_ = laps;
    hop_ = hop;
  }

  void activation(std::span<float> xs, int site) override {
    inner_->activation(xs, site);
  }
  void softmax(std::span<float> row, int site) override {
    inner_->softmax(row, site);
  }
  void layer_norm(std::span<const float> x, std::span<float> y,
                  std::span<const float> gamma, std::span<const float> beta,
                  int site) override {
    inner_->layer_norm(x, y, gamma, beta, site);
  }

  void activation_rows(std::span<float> data, std::size_t nrows,
                       std::size_t ncols, int site) override {
    const Lap lap(laps_, hop_);
    obs::ScopedSpan span(name(Op::kGelu), data.size());
    inner_->activation_rows(data, nrows, ncols, site);
  }
  void softmax_rows(std::span<float> data, std::size_t nrows,
                    std::size_t ncols, int site) override {
    const Lap lap(laps_, hop_);
    obs::ScopedSpan span(name(Op::kSoftmax), data.size());
    inner_->softmax_rows(data, nrows, ncols, site);
  }
  void layer_norm_rows(std::span<const float> x, std::span<float> y,
                       std::size_t nrows, std::size_t ncols,
                       std::span<const float> gamma,
                       std::span<const float> beta, int site) override {
    const Lap lap(laps_, hop_);
    obs::ScopedSpan span(name(Op::kLayerNorm), x.size());
    inner_->layer_norm_rows(x, y, nrows, ncols, gamma, beta, site);
  }

 private:
  /// Ends the running stretch and starts the next at one boundary: appends
  /// (end, start) to `laps`, hopping in between if `hop` is set.
  static void boundary(std::vector<Clock::time_point>& laps, CpuHop* hop) {
    laps.push_back(Clock::now());
    if (hop != nullptr) hop->hop_if_due();
    laps.push_back(Clock::now());
  }

  /// Marks a boundary where the scope starts and where it ends, if a lap
  /// list is set.
  class Lap {
   public:
    Lap(std::vector<Clock::time_point>* laps, CpuHop* hop)
        : laps_(laps), hop_(hop) {
      if (laps_ != nullptr) boundary(*laps_, hop_);
    }
    ~Lap() {
      if (laps_ != nullptr) boundary(*laps_, hop_);
    }
    Lap(const Lap&) = delete;
    Lap& operator=(const Lap&) = delete;

   private:
    std::vector<Clock::time_point>* laps_;
    CpuHop* hop_;
  };

  const char* name(Op op) const {
    return kCoreSpans[static_cast<int>(op)][static_cast<int>(backend_)];
  }

  std::unique_ptr<transformer::NonlinearitySet> inner_;
  Backend backend_;
  std::vector<Clock::time_point>* laps_ = nullptr;
  CpuHop* hop_ = nullptr;
};

}  // namespace nnlut::bench
