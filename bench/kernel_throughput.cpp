// google-benchmark microbenchmarks of the kernels backing Sec. 5's
// efficiency claims: exact FP32 math vs LUT evaluation (FP32/FP16/INT32) vs
// I-BERT integer sequences, on softmax-sized activation streams; plus the
// scalar-loop vs batched-plan comparison across entry counts {8, 16, 32,
// 128} that motivates the compiled SoA kernel layer, and a per-SIMD-tier
// sweep (BM_LutTierPlan/<tier>/<precision>/<entries>) registered for every
// tier this CPU supports — the dispatch tier is pinned for the benchmark's
// duration and recorded in the JSON (per-run label + "simd_*" context
// keys), so artifacts from different machines are self-describing. The
// same per-tier sweep covers the tiled GEMM (BM_GemmTier/<tier>) on the
// encoder's matmul shapes and on one transposed-B and one transposed-A +
// accumulate shape, with a GFLOP/s counter. BM_BlockOp/<backend>/<op>
// times each backend's GELU / softmax / LayerNorm block call on BERT-base
// shapes, with a Melem/s counter. BM_ForkJoin/lanes:<n> times one round
// trip of the process thread pool: an empty parallel_for with one no-op
// shard per lane, wall time next to the whole process's CPU time.
//
// Unless --benchmark_out is given, results are also written as
// machine-readable JSON to BENCH_kernel_throughput.json.
#include <benchmark/benchmark.h>

#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "approx/linear_lut.h"
#include "bench_util.h"
#include "core/function_library.h"
#include "core/lut_kernel_simd.h"
#include "core/nnlut_ops.h"
#include "core/quantized_lut.h"
#include "core/serialization.h"
#include "core/transform.h"
#include "ibert/ibert_kernels.h"
#include "numerics/rng.h"
#include "runtime/thread_pool.h"
#include "tensor/ops.h"
#include "transformer/backends.h"

namespace {

using namespace nnlut;

const NnlutBundle& bundle() {
  static const NnlutBundle b = train_bundle(16, FitPreset::kFast, 77);
  return b;
}

std::vector<float> activation_stream(std::size_t n, float lo, float hi) {
  Rng rng(5);
  std::vector<float> v(n);
  for (float& x : v) x = rng.uniform(lo, hi);
  return v;
}

void BM_GeluExact(benchmark::State& state) {
  auto xs = activation_stream(4096, -5.0f, 5.0f);
  for (auto _ : state) {
    float acc = 0;
    for (float x : xs) acc += gelu_exact(x);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(xs.size()));
}
BENCHMARK(BM_GeluExact);

void BM_GeluNnlutFp32(benchmark::State& state) {
  auto xs = activation_stream(4096, -5.0f, 5.0f);
  const PiecewiseLinear& lut = bundle().gelu.lut;
  for (auto _ : state) {
    float acc = 0;
    for (float x : xs) acc += lut(x);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(xs.size()));
}
BENCHMARK(BM_GeluNnlutFp32);

void BM_GeluNnlutFp16(benchmark::State& state) {
  auto xs = activation_stream(4096, -5.0f, 5.0f);
  const LutFp16 lut(bundle().gelu.lut);
  for (auto _ : state) {
    float acc = 0;
    for (float x : xs) acc += lut.eval(x);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(xs.size()));
}
BENCHMARK(BM_GeluNnlutFp16);

void BM_GeluNnlutInt32(benchmark::State& state) {
  auto xs = activation_stream(4096, -5.0f, 5.0f);
  const LutInt32 lut(bundle().gelu.lut, 5.0f);
  for (auto _ : state) {
    float acc = 0;
    for (float x : xs) acc += lut.eval(x);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(xs.size()));
}
BENCHMARK(BM_GeluNnlutInt32);

void BM_GeluIbert(benchmark::State& state) {
  auto xs = activation_stream(4096, -5.0f, 5.0f);
  std::vector<float> buf = xs;
  for (auto _ : state) {
    buf = xs;
    ibert::gelu_rows(buf, 1, buf.size());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(xs.size()));
}
BENCHMARK(BM_GeluIbert);

void BM_SoftmaxExact(benchmark::State& state) {
  auto xs = activation_stream(static_cast<std::size_t>(state.range(0)), -6, 6);
  std::vector<float> buf = xs;
  for (auto _ : state) {
    buf = xs;
    softmax_exact(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SoftmaxExact)->Arg(128)->Arg(1024);

void BM_SoftmaxNnlut(benchmark::State& state) {
  auto xs = activation_stream(static_cast<std::size_t>(state.range(0)), -6, 6);
  const LutFp32 e(bundle().exp.lut), r(bundle().reciprocal.lut);
  const SoftmaxApprox sm(e, r);
  std::vector<float> buf = xs;
  for (auto _ : state) {
    buf = xs;
    sm(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SoftmaxNnlut)->Arg(128)->Arg(1024);

void BM_SoftmaxIbert(benchmark::State& state) {
  auto xs = activation_stream(static_cast<std::size_t>(state.range(0)), -6, 6);
  std::vector<float> buf = xs;
  for (auto _ : state) {
    buf = xs;
    ibert::softmax_rows(buf, 1, buf.size());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SoftmaxIbert)->Arg(128)->Arg(1024);

void BM_LayerNormExact(benchmark::State& state) {
  auto xs = activation_stream(768, -2, 2);
  std::vector<float> out(xs.size());
  for (auto _ : state) {
    layer_norm_exact(xs, out, {}, {});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 768);
}
BENCHMARK(BM_LayerNormExact);

void BM_LayerNormNnlut(benchmark::State& state) {
  auto xs = activation_stream(768, -2, 2);
  const LutFp32 rs(bundle().rsqrt.lut);
  const LayerNormApprox ln(rs);
  std::vector<float> out(xs.size());
  for (auto _ : state) {
    ln(xs, out, {}, {});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 768);
}
BENCHMARK(BM_LayerNormNnlut);

void BM_LayerNormIbert(benchmark::State& state) {
  auto xs = activation_stream(768, -2, 2);
  std::vector<float> out(xs.size());
  for (auto _ : state) {
    ibert::layernorm_rows(xs, out, 1, xs.size(), {}, {});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 768);
}
BENCHMARK(BM_LayerNormIbert);

// --------------------------------------------------------------------------
// Scalar-loop vs batched-plan, across table sizes. Row size 4096 matches a
// BERT-base FFN activation row (d_ff = 3072..4096). The baseline is the
// retired hot path: one virtual dispatch per element; the second baseline is
// the raw per-element binary search without dispatch; the batched plan is
// one eval_inplace call over the whole row.
// --------------------------------------------------------------------------

const PiecewiseLinear& sized_lut(int entries) {
  // Node-stable container: returned references survive later cache misses.
  static std::deque<std::pair<int, PiecewiseLinear>> cache;
  for (const auto& [n, lut] : cache)
    if (n == entries) return lut;
  cache.emplace_back(entries,
                     fit_linear_lut(gelu_exact, kGeluRange, entries));
  return cache.back().second;
}

constexpr std::size_t kRowLen = 4096;

void BM_LutScalarDispatch(benchmark::State& state) {
  const LutFp32 fn(sized_lut(static_cast<int>(state.range(0))));
  const ScalarFn& vfn = fn;  // per-element virtual dispatch
  const auto xs = activation_stream(kRowLen, -5.0f, 5.0f);
  std::vector<float> buf(xs.size());
  for (auto _ : state) {
    buf = xs;
    for (float& x : buf) x = vfn.eval(x);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kRowLen));
}
BENCHMARK(BM_LutScalarDispatch)->Arg(8)->Arg(16)->Arg(32)->Arg(128);

void BM_LutScalarBinarySearch(benchmark::State& state) {
  const PiecewiseLinear& lut = sized_lut(static_cast<int>(state.range(0)));
  const auto xs = activation_stream(kRowLen, -5.0f, 5.0f);
  std::vector<float> buf(xs.size());
  for (auto _ : state) {
    buf = xs;
    for (float& x : buf) x = lut(x);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kRowLen));
}
BENCHMARK(BM_LutScalarBinarySearch)->Arg(8)->Arg(16)->Arg(32)->Arg(128);

void BM_LutBatchedPlan(benchmark::State& state) {
  const PiecewiseLinear& lut = sized_lut(static_cast<int>(state.range(0)));
  const auto xs = activation_stream(kRowLen, -5.0f, 5.0f);
  std::vector<float> buf(xs.size());
  for (auto _ : state) {
    buf = xs;
    lut.eval_inplace(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kRowLen));
}
BENCHMARK(BM_LutBatchedPlan)->Arg(8)->Arg(16)->Arg(32)->Arg(128);

void BM_LutBatchedPlanFp16(benchmark::State& state) {
  const LutFp16 fn(sized_lut(static_cast<int>(state.range(0))));
  const auto xs = activation_stream(kRowLen, -5.0f, 5.0f);
  std::vector<float> buf(xs.size());
  for (auto _ : state) {
    buf = xs;
    fn.eval_inplace(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kRowLen));
}
BENCHMARK(BM_LutBatchedPlanFp16)->Arg(8)->Arg(16)->Arg(32)->Arg(128);

void BM_LutBatchedPlanInt32(benchmark::State& state) {
  const LutInt32 fn(sized_lut(static_cast<int>(state.range(0))), 5.0f);
  const auto xs = activation_stream(kRowLen, -5.0f, 5.0f);
  std::vector<float> buf(xs.size());
  for (auto _ : state) {
    buf = xs;
    fn.eval_inplace(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kRowLen));
}
BENCHMARK(BM_LutBatchedPlanInt32)->Arg(8)->Arg(16)->Arg(32)->Arg(128);

// --------------------------------------------------------------------------
// Per-SIMD-tier plan throughput: the same batched evaluation with the
// dispatch tier pinned to each ISA this CPU supports. The acceptance target
// of the SIMD layer is >= 2x comparator-bank-scan throughput (entries <= 32)
// for the widest tier vs forced scalar; the forced-tier parity suite in
// tests/lut_kernel_test.cpp proves all tiers produce identical bits, so
// this sweep measures pure kernel speed.
// --------------------------------------------------------------------------

using simd::SimdTier;

void BM_LutTierPlanFp32(benchmark::State& state, SimdTier tier) {
  simd::set_simd_tier(tier);
  const PiecewiseLinear& lut = sized_lut(static_cast<int>(state.range(0)));
  const auto xs = activation_stream(kRowLen, -5.0f, 5.0f);
  std::vector<float> buf(xs.size());
  for (auto _ : state) {
    buf = xs;
    lut.eval_inplace(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kRowLen));
  state.SetLabel(simd::simd_tier_name(tier));
  simd::set_simd_tier(std::nullopt);
}

void BM_LutTierPlanFp16(benchmark::State& state, SimdTier tier) {
  simd::set_simd_tier(tier);
  const LutFp16 fn(sized_lut(static_cast<int>(state.range(0))));
  const auto xs = activation_stream(kRowLen, -5.0f, 5.0f);
  std::vector<float> buf(xs.size());
  for (auto _ : state) {
    buf = xs;
    fn.eval_inplace(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kRowLen));
  state.SetLabel(simd::simd_tier_name(tier));
  simd::set_simd_tier(std::nullopt);
}

void BM_LutTierPlanInt32(benchmark::State& state, SimdTier tier) {
  simd::set_simd_tier(tier);
  const LutInt32 fn(sized_lut(static_cast<int>(state.range(0))), 5.0f);
  const auto xs = activation_stream(kRowLen, -5.0f, 5.0f);
  std::vector<float> buf(xs.size());
  for (auto _ : state) {
    buf = xs;
    fn.eval_inplace(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kRowLen));
  state.SetLabel(simd::simd_tier_name(tier));
  simd::set_simd_tier(std::nullopt);
}

// --------------------------------------------------------------------------
// Per-SIMD-tier GEMM throughput on the encoder's matmul shapes at 512 token
// rows (m x k x n): attention projections 512x256x256, FFN-in
// 512x256x1024, FFN-out 512x1024x256. Two more rows per tier time the
// transposed-operand packers: BM_GemmTier/<tier>/bt is matmul_bt on the
// BERT-mini attention scores shape (seq 128, head dim 64: 128x64x128, B
// read transposed) and BM_GemmTier/<tier>/at_acc is matmul_at_accumulate
// on a training dW shape (dW += X^T dY over 512 token rows: 256x512x256).
// One pool lane, so this is the tiled kernel alone. BM_GemmIkjLoop is the
// untiled i-k-j loop matmul ran before the tiled kernel (baseline flags,
// like the scalar tier), the yardstick for the forced scalar tier.
// tests/tensor_test.cpp proves every tier produces the loop's bits.
// --------------------------------------------------------------------------

/// The Tensor-level product a BM_GemmTier row runs.
enum class GemmLayout { kRowMajor, kBt, kAtAccumulate };

struct GemmOperands {
  Tensor a, b, c;
  explicit GemmOperands(const benchmark::State& state,
                        GemmLayout layout = GemmLayout::kRowMajor) {
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::size_t>(state.range(1));
    const auto n = static_cast<std::size_t>(state.range(2));
    a = layout == GemmLayout::kAtAccumulate ? Tensor({k, m}) : Tensor({m, k});
    b = layout == GemmLayout::kBt ? Tensor({n, k}) : Tensor({k, n});
    c = Tensor({m, n});
    Rng rng(9);
    for (float& v : a.flat()) v = rng.uniform(-1.0f, 1.0f);
    for (float& v : b.flat()) v = rng.uniform(-1.0f, 1.0f);
  }
};

void set_gflops(benchmark::State& state) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      2e-9 * static_cast<double>(state.range(0) * state.range(1) *
                                 state.range(2)),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_GemmTier(benchmark::State& state, SimdTier tier, GemmLayout layout) {
  runtime::set_runtime_config({1, tier});  // one lane, pinned tier
  GemmOperands op(state, layout);
  for (auto _ : state) {
    switch (layout) {
      case GemmLayout::kRowMajor:
        matmul(op.a, op.b, op.c);
        break;
      case GemmLayout::kBt:
        matmul_bt(op.a, op.b, op.c);
        break;
      case GemmLayout::kAtAccumulate:
        matmul_at_accumulate(op.a, op.b, op.c);
        break;
    }
    benchmark::DoNotOptimize(op.c.data());
    benchmark::ClobberMemory();
  }
  set_gflops(state);
  state.SetLabel(simd::simd_tier_name(tier));
  runtime::set_runtime_config({});
}

void BM_GemmIkjLoop(benchmark::State& state) {
  GemmOperands op(state);
  const std::size_t m = op.a.dim(0), k = op.a.dim(1), n = op.b.dim(1);
  for (auto _ : state) {
    op.c.zero();
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t p = 0; p < k; ++p) {
        const float av = op.a.data()[i * k + p];
        const float* brow = op.b.data() + p * n;
        float* crow = op.c.data() + i * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    benchmark::DoNotOptimize(op.c.data());
    benchmark::ClobberMemory();
  }
  set_gflops(state);
}
BENCHMARK(BM_GemmIkjLoop)
    ->Args({512, 256, 256})
    ->Args({512, 256, 1024})
    ->Args({512, 1024, 256})
    ->ArgNames({"m", "k", "n"});

// --------------------------------------------------------------------------
// Block nonlinearity calls on BERT-base shapes for one 128-token sequence,
// the calls nnlut_bench's ops_block workload makes: GELU over [128 x 3072],
// softmax over the [12*128 x 128] attention rows, LayerNorm over
// [128 x 768], through each backend's block entry point on one pool lane
// and the automatic SIMD tier. The LUT backends use the benchmark's
// checked-in tables (bench/nnlut_bench/tables), so these rates are the
// per-kernel counterpart of ops_block's. Melem/s counts input elements.
// --------------------------------------------------------------------------

enum class BlockOp { kGelu, kSoftmax, kLayerNorm };

constexpr const char* kBlockBackends[] = {"exact", "lut_fp32", "lut_fp16",
                                          "lut_int32", "ibert"};

const transformer::LutSet& block_tables() {
  static const transformer::LutSet luts = [] {
    const std::string dir =
        (std::filesystem::path(__FILE__).parent_path() / "nnlut_bench" /
         "tables")
            .string();
    return transformer::LutSet{
        load_lut(dir + "/gelu.lut"), load_lut(dir + "/exp.lut"),
        load_lut(dir + "/div.lut"), load_lut(dir + "/rsqrt.lut")};
  }();
  return luts;
}

std::unique_ptr<transformer::NonlinearitySet> block_backend(int backend) {
  transformer::LutNonlinearities::Options opt;
  opt.select = transformer::ApproxSelection::all();
  switch (backend) {
    case 0:
      return std::make_unique<transformer::ExactNonlinearities>();
    case 1:
      return make_lut_backend(block_tables(), LutPrecision::kFp32, opt);
    case 2:
      return make_lut_backend(block_tables(), LutPrecision::kFp16, opt);
    case 3:
      return make_lut_backend(block_tables(), LutPrecision::kInt32, opt);
    default:
      return std::make_unique<transformer::IBertNonlinearities>();
  }
}

void BM_BlockOp(benchmark::State& state, int backend, BlockOp op) {
  runtime::set_runtime_config({1});
  const auto nl = block_backend(backend);
  const std::size_t nrows = op == BlockOp::kSoftmax ? 12 * 128 : 128;
  const std::size_t ncols = op == BlockOp::kGelu      ? 3072
                            : op == BlockOp::kSoftmax ? 128
                                                      : 768;
  // Activations shaped like ops_block's: GELU inputs N(0, 1.5), attention
  // logits N(0, 3), LayerNorm rows N(0.2, 1).
  Rng rng(7);
  std::vector<float> x(nrows * ncols), y(x.size());
  const float sd = op == BlockOp::kGelu ? 1.5f : op == BlockOp::kSoftmax ? 3.0f
                                                                         : 1.0f;
  const float mean = op == BlockOp::kLayerNorm ? 0.2f : 0.0f;
  for (float& v : x) v = rng.normal(mean, sd);
  const std::vector<float> gamma(ncols, 1.0f), beta(ncols, 0.0f);
  for (auto _ : state) {
    state.PauseTiming();
    if (op != BlockOp::kLayerNorm) y = x;
    state.ResumeTiming();
    switch (op) {
      case BlockOp::kGelu:
        nl->activation_rows(y, nrows, ncols, 0);
        break;
      case BlockOp::kSoftmax:
        nl->softmax_rows(y, nrows, ncols, 0);
        break;
      case BlockOp::kLayerNorm:
        nl->layer_norm_rows(x, y, nrows, ncols, gamma, beta, 0);
        break;
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["Melem/s"] =
      benchmark::Counter(1e-6 * static_cast<double>(nrows * ncols),
                         benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(simd::simd_tier_name(simd::active_simd_tier()));
  runtime::set_runtime_config({});
}

/// One BM_BlockOp/<backend>/<op> per backend and op.
void register_block_benchmarks() {
  constexpr std::pair<BlockOp, const char*> kOps[] = {
      {BlockOp::kGelu, "gelu"},
      {BlockOp::kSoftmax, "softmax"},
      {BlockOp::kLayerNorm, "layernorm"}};
  for (int b = 0; b < static_cast<int>(std::size(kBlockBackends)); ++b)
    for (const auto& [op, name] : kOps)
      benchmark::RegisterBenchmark(
          (std::string("BM_BlockOp/") + kBlockBackends[b] + "/" + name).c_str(),
          BM_BlockOp, b, op)
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
}

/// Register the tier sweeps for every tier this CPU can actually run.
void register_tier_benchmarks() {
  for (SimdTier tier : simd::available_simd_tiers()) {
    const std::string name(simd::simd_tier_name(tier));
    benchmark::RegisterBenchmark(("BM_GemmTier/" + name).c_str(), BM_GemmTier,
                                 tier, GemmLayout::kRowMajor)
        ->Args({512, 256, 256})
        ->Args({512, 256, 1024})
        ->Args({512, 1024, 256})
        ->ArgNames({"m", "k", "n"});
    benchmark::RegisterBenchmark(("BM_GemmTier/" + name + "/bt").c_str(),
                                 BM_GemmTier, tier, GemmLayout::kBt)
        ->Args({128, 64, 128})
        ->ArgNames({"m", "k", "n"});
    benchmark::RegisterBenchmark(("BM_GemmTier/" + name + "/at_acc").c_str(),
                                 BM_GemmTier, tier, GemmLayout::kAtAccumulate)
        ->Args({256, 512, 256})
        ->ArgNames({"m", "k", "n"});
    benchmark::RegisterBenchmark(("BM_LutTierPlan/" + name + "/fp32").c_str(),
                                 BM_LutTierPlanFp32, tier)
        ->Arg(8)
        ->Arg(16)
        ->Arg(32)
        ->Arg(128);
    benchmark::RegisterBenchmark(("BM_LutTierPlan/" + name + "/fp16").c_str(),
                                 BM_LutTierPlanFp16, tier)
        ->Arg(8)
        ->Arg(16)
        ->Arg(32)
        ->Arg(128);
    benchmark::RegisterBenchmark(("BM_LutTierPlan/" + name + "/int32").c_str(),
                                 BM_LutTierPlanInt32, tier)
        ->Arg(8)
        ->Arg(16)
        ->Arg(32)
        ->Arg(128);
  }
}

// Fork/join round trip: an empty parallel_for over `lanes` items at grain 1,
// so every lane runs one no-op shard. Real time is the round trip the
// caller waits for; the CPU time is the whole process's, workers included,
// so it also shows what waking and parking the workers burns.
void BM_ForkJoin(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  runtime::set_runtime_config({lanes});
  const std::uint64_t jobs0 = runtime::thread_pool_stats().jobs;
  for (auto _ : state)
    runtime::parallel_for(0, lanes, 1, [](std::size_t, std::size_t) {});
  if (runtime::thread_pool_stats().jobs - jobs0 !=
      static_cast<std::uint64_t>(state.iterations()))
    state.SkipWithError("parallel_for did not fork once per iteration");
  runtime::set_runtime_config({});
}
BENCHMARK(BM_ForkJoin)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("lanes")
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_NnToLutTransform(benchmark::State& state) {
  const ApproxNet& net = bundle().gelu.net;
  for (auto _ : state) {
    PiecewiseLinear lut = nn_to_lut(net);
    benchmark::DoNotOptimize(lut.entries());
  }
}
BENCHMARK(BM_NnToLutTransform);

}  // namespace

int main(int argc, char** argv) {
  // The JSON artifact is self-describing about the machine's SIMD support:
  // what automatic dispatch resolves to next to the detected tier that
  // run_benchmarks records.
  namespace simd = nnlut::simd;
  benchmark::AddCustomContext("simd_auto",
                              simd::simd_tier_name(simd::auto_simd_tier()));
  register_tier_benchmarks();
  register_block_benchmarks();
  return nnlut::benchutil::run_benchmarks(argc, argv,
                                          "BENCH_kernel_throughput.json");
}
