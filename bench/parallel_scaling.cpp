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

#include <memory>

#include "bench_util.h"
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
    const LutSet luts = benchutil::serving_luts();
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

void run_encoder(benchmark::State& state, NonlinearitySet& nl) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t seq = static_cast<std::size_t>(state.range(1));
  runtime::set_runtime_config({threads});
  InferenceModel infer(fixture().model, nl);
  const BatchInput in =
      benchutil::random_request(7 + seq, seq, bench_config().vocab);
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

int main(int argc, char** argv) {
  return nnlut::benchutil::run_benchmarks(argc, argv,
                                          "BENCH_parallel_scaling.json");
}
