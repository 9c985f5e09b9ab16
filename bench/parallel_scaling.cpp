// Thread-scaling sweep of the sharded encoder hot path: end-to-end
// InferenceModel::encode at pool sizes {1, 2, 4, 8} x sequence lengths
// {128, 384}, for the LUT backend (the deployment configuration) and the
// exact baseline running under the same pool. The acceptance target is a
// >= 2.5x end-to-end speedup at 4 threads vs 1 thread at seq 384 on a
// >= 4-core machine; the thread-parity test suite proves the outputs are
// bit-identical across pool sizes, so this sweep measures pure scheduling.
//
// Unless --benchmark_out is given, results are also written as
// machine-readable JSON to BENCH_parallel_scaling.json.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "approx/linear_lut.h"
#include "core/lut_kernel_simd.h"
#include "numerics/math.h"
#include "numerics/rng.h"
#include "runtime/thread_pool.h"
#include "transformer/infer.h"

namespace {

using namespace nnlut;
using namespace nnlut::transformer;

constexpr std::size_t kMaxSeq = 384;

ModelConfig bench_config() {
  ModelConfig c = ModelConfig::roberta_like();
  c.vocab = 128;
  c.hidden = 64;
  c.layers = 2;
  c.heads = 4;
  c.ffn = 256;
  c.max_seq = kMaxSeq;
  return c;
}

struct Fixture {
  TaskModel model;
  std::unique_ptr<LutNonlinearities> lut;
  ExactNonlinearities exact;

  Fixture(const ModelConfig& cfg, Rng& rng)
      : model(cfg, HeadKind::kClassify, 2, rng), exact(cfg.act) {
    LutSet luts{fit_linear_lut(gelu_exact, kGeluRange, 16),
                fit_linear_lut(exp_exact, {-16.0f, 0.0f}, 16),
                fit_fixed_breakpoint_lut(reciprocal_exact, {1.0f, 1024.0f}, 16,
                                         BreakpointMode::kExponential),
                fit_fixed_breakpoint_lut(rsqrt_exact, kRsqrtRange, 16,
                                         BreakpointMode::kExponential)};
    LutNonlinearities::Options opt;
    opt.select = ApproxSelection::all();
    lut = make_lut_backend(luts, LutPrecision::kFp32, opt);
  }
};

Fixture& fixture() {
  static Rng rng(42);
  static Fixture f(bench_config(), rng);
  return f;
}

BatchInput batch_for(std::size_t seq) {
  Rng rng(7 + seq);
  BatchInput in;
  in.batch = 1;
  in.seq = seq;
  in.token_ids.resize(seq);
  in.type_ids.assign(seq, 0);
  for (int& t : in.token_ids)
    t = rng.uniform_int(0, static_cast<int>(bench_config().vocab) - 1);
  return in;
}

void run_encoder(benchmark::State& state, NonlinearitySet& nl) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t seq = static_cast<std::size_t>(state.range(1));
  runtime::set_runtime_config({threads});
  InferenceModel infer(fixture().model, nl);
  const BatchInput in = batch_for(seq);
  for (auto _ : state) {
    Tensor h = infer.encode(in);
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(seq));
  runtime::set_runtime_config({});
}

void BM_EncoderLut(benchmark::State& state) { run_encoder(state, *fixture().lut); }
BENCHMARK(BM_EncoderLut)
    ->ArgsProduct({{1, 2, 4, 8}, {128, 384}})
    ->ArgNames({"threads", "seq"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_EncoderExact(benchmark::State& state) { run_encoder(state, fixture().exact); }
BENCHMARK(BM_EncoderExact)
    ->ArgsProduct({{1, 2, 4, 8}, {128, 384}})
    ->ArgNames({"threads", "seq"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

// Custom main: default to writing machine-readable JSON next to the working
// directory unless the caller already chose an output file.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  static std::string out = "--benchmark_out=BENCH_parallel_scaling.json";
  static std::string fmt = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out.data());
    args.push_back(fmt.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  // The matmuls and LUT kernels dispatch per ISA tier, so the artifact
  // records which tier this machine ran next to google-benchmark's num_cpus.
  benchmark::AddCustomContext(
      "simd_detected",
      nnlut::simd::simd_tier_name(nnlut::simd::detected_simd_tier()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
