// Shared configuration for the benchmark/reproduction binaries.
//
// Every table/figure bench prints the paper's reference numbers next to the
// measured ones so EXPERIMENTS.md can be regenerated by running the bench
// suite. The google-benchmark system benches share one `main` body
// (run_benchmarks), one LUT set (serving_luts) and one request builder
// (random_request). Environment knobs:
//   NNLUT_BENCH_FAST=1   halve dataset sizes / epochs (smoke-test mode)
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "approx/linear_lut.h"
#include "core/lut_kernel_simd.h"
#include "eval/pipeline.h"
#include "numerics/math.h"
#include "numerics/rng.h"
#include "tasks/tasks.h"
#include "transformer/backends.h"
#include "transformer/config.h"
#include "transformer/encoder.h"

namespace nnlut::benchutil {

inline bool fast_mode() {
  const char* v = std::getenv("NNLUT_BENCH_FAST");
  return v != nullptr && v[0] == '1';
}

/// Task generation used by the accuracy tables (Tables 2 and 3).
inline tasks::TaskGenOptions task_options(std::uint64_t seed = 7) {
  tasks::TaskGenOptions o;
  o.n_train = fast_mode() ? 1536 : 3072;
  o.n_dev = fast_mode() ? 192 : 384;
  o.seq_len = 20;
  o.vocab = 64;
  o.seed = seed;
  return o;
}

/// The scaled-down RoBERTa-like model (LayerNorm + GELU encoder).
inline transformer::ModelConfig roberta_model() {
  transformer::ModelConfig c = transformer::ModelConfig::roberta_like();
  c.vocab = 64;
  c.hidden = 48;
  c.layers = 2;
  c.heads = 4;
  c.ffn = 96;
  c.max_seq = 20;
  return c;
}

/// The scaled-down MobileBERT-like model (NoNorm + ReLU: softmax is the only
/// transcendental non-linearity, as in the paper's Table 3 subject).
inline transformer::ModelConfig mobilebert_model() {
  transformer::ModelConfig c = roberta_model();
  c.norm = transformer::NormKind::kNoNorm;
  c.act = transformer::ActKind::kRelu;
  return c;
}

inline eval::TrainOptions train_options(std::uint64_t seed = 3) {
  eval::TrainOptions t;
  t.epochs = fast_mode() ? 8 : 15;
  t.batch_size = 32;
  t.lr = 1e-3f;
  t.seed = seed;
  return t;
}

/// NoNorm models train without normalization and need a gentler schedule.
inline eval::TrainOptions mobilebert_train_options(std::uint64_t seed = 3) {
  eval::TrainOptions t;
  t.epochs = fast_mode() ? 12 : 20;
  t.batch_size = 32;
  t.lr = 5e-4f;
  t.seed = seed;
  return t;
}

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

/// Process-memory snapshot for the steady-state memory benches. On Linux it
/// reads /proc/self/statm (resident pages * page size); elsewhere every
/// field is zero and `supported` is false, so benches degrade to reporting
/// pool counters only instead of failing to build.
struct MemorySnapshot {
  bool supported = false;
  std::size_t rss_bytes = 0;

  static MemorySnapshot take() {
    MemorySnapshot snap;
#if defined(__linux__)
    if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
      unsigned long vm_pages = 0, rss_pages = 0;
      if (std::fscanf(f, "%lu %lu", &vm_pages, &rss_pages) == 2) {
        snap.supported = true;
        snap.rss_bytes = static_cast<std::size_t>(rss_pages) *
                         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
      }
      std::fclose(f);
    }
#endif
    return snap;
  }
};

/// The tables the serving benches evaluate: GELU and exp fitted linearly
/// with 16 entries, reciprocal on [1, 1024] and rsqrt with exponential
/// breakpoints.
inline transformer::LutSet serving_luts() {
  return {fit_linear_lut(gelu_exact, kGeluRange, 16),
          fit_linear_lut(exp_exact, {-16.0f, 0.0f}, 16),
          fit_fixed_breakpoint_lut(reciprocal_exact, {1.0f, 1024.0f}, 16,
                                   BreakpointMode::kExponential),
          fit_fixed_breakpoint_lut(rsqrt_exact, kRsqrtRange, 16,
                                   BreakpointMode::kExponential)};
}

/// One sequence of `seq` token ids drawn uniformly from [0, vocab) by
/// Rng(seed). Callers pass their own seed offsets, so each bench's request
/// streams stay fixed across sweeps and builds.
inline transformer::BatchInput random_request(std::uint64_t seed,
                                              std::size_t seq,
                                              std::size_t vocab) {
  Rng rng(seed);
  transformer::BatchInput in;
  in.batch = 1;
  in.seq = seq;
  in.token_ids.resize(seq);
  for (int& t : in.token_ids)
    t = rng.uniform_int(0, static_cast<int>(vocab) - 1);
  return in;
}

/// The `main` body of every google-benchmark system bench. Results are also
/// written as JSON to `default_out` unless the caller passed
/// --benchmark_out=, and the artifact records the SIMD tier this machine
/// detected next to google-benchmark's num_cpus. Returns 1 on an
/// unrecognized argument.
inline int run_benchmarks(int argc, char** argv, const char* default_out) {
  std::vector<char*> args(argv, argv + argc);
  std::string out = std::string("--benchmark_out=") + default_out;
  std::string fmt = "--benchmark_out_format=json";
  if (std::none_of(argv + 1, argv + argc, [](const char* a) {
        return std::strncmp(a, "--benchmark_out=", 16) == 0;
      })) {
    args.push_back(out.data());
    args.push_back(fmt.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::AddCustomContext(
      "simd_detected", simd::simd_tier_name(simd::detected_simd_tier()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace nnlut::benchutil
