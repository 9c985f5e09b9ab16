// Closed-loop serving load generators.
//
// BM_ServingClosedLoop: `clients` threads each submit one request at a time
// against a one-slot Engine (submit -> await -> next), sweeping clients
// {1, 4, 16} x max_batch {1, 8, 32}. max_batch 1 is the no-batching
// baseline — each request is its own model call; larger max_batch lets the
// dynamic batcher pack concurrent requests of the same seq into one
// LUT-evaluated batch. The acceptance target is >= 2x the requests/sec of
// max_batch 1 at 16 clients with max_batch 32 on a multi-core machine
// (batching wins come from amortized dispatch plus fuller thread-pool
// shards; on a 1-core container only the dispatch term remains).
//
// BM_EngineMultiModel: one Engine serving TWO backends (LUT fp32 + LUT
// int32 slots over the same weights), clients {4, 16} split across the two
// models, with the per-slot queue unbounded (bounded=0) or bounded at a
// small depth with ShedPolicy::kRejectNew (bounded=1). Counters report the
// shed rate (ServerOverloaded resolutions / submissions) and each model's
// p95 latency (interpolated from its end-to-end histogram) and the
// engine-wide batch occupancy (sequences per model call), so the
// artifact shows what admission control trades: bounded queues cap p95
// under burst at the cost of shed work.
//
// Both build their Engine once per benchmark run, outside the timed loop:
// an iteration is every client's request stream, not an Engine's start-up
// and shutdown.
//
// Unless --benchmark_out is given, results are also written as
// machine-readable JSON to BENCH_serving_throughput.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "numerics/rng.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"
#include "transformer/infer.h"

namespace {

using namespace nnlut;
using namespace nnlut::transformer;
using namespace std::chrono_literals;

constexpr std::size_t kSeq = 64;
constexpr int kRequestsPerClient = 8;

ModelConfig bench_config() {
  ModelConfig c = ModelConfig::roberta_like();
  c.vocab = 128;
  c.hidden = 64;
  c.layers = 2;
  c.heads = 4;
  c.ffn = 256;
  c.max_seq = kSeq;
  return c;
}

struct Fixture {
  TaskModel model;
  std::unique_ptr<LutNonlinearities> lut;
  std::unique_ptr<LutNonlinearities> lut_int32;

  Fixture(const ModelConfig& cfg, Rng& rng)
      : model(cfg, HeadKind::kClassify, 2, rng) {
    const LutSet luts = benchutil::serving_luts();
    LutNonlinearities::Options opt;
    opt.select = ApproxSelection::all();
    lut = make_lut_backend(luts, LutPrecision::kFp32, opt);
    lut_int32 = make_lut_backend(luts, LutPrecision::kInt32, opt);
  }
};

Fixture& fixture() {
  static Rng rng(42);
  static Fixture f(bench_config(), rng);
  return f;
}

void BM_ServingClosedLoop(benchmark::State& state) {
  const std::size_t clients = static_cast<std::size_t>(state.range(0));
  const std::size_t max_batch = static_cast<std::size_t>(state.range(1));

  const serve::SlotConfig scfg{.max_batch = max_batch, .max_wait = 500us};

  // Each client's request stream is fixed across iterations and sweeps so
  // configurations serve identical work.
  std::vector<std::vector<BatchInput>> streams(clients);
  for (std::size_t c = 0; c < clients; ++c)
    for (int k = 0; k < kRequestsPerClient; ++k)
      streams[c].push_back(benchutil::random_request(
          1000 + c * 1001 + static_cast<std::uint64_t>(k), kSeq,
          bench_config().vocab));

  // One Engine per benchmark run, outside the timed loop: an iteration is
  // the clients' request streams, not an Engine's start-up and shutdown.
  serve::Engine engine(serve::EngineConfig{/*threads=*/0});  // all cores
  engine.register_model("lut-fp32", fixture().model, *fixture().lut, scfg);
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (const BatchInput& in : streams[c]) {
          Tensor logits = engine.submit("lut-fp32", in).get();
          benchmark::DoNotOptimize(logits.data());
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double occupancy =
      engine.model_stats("lut-fp32").mean_batch_occupancy;
  engine.shutdown();

  const auto total_requests =
      static_cast<std::size_t>(state.iterations()) * clients *
      static_cast<std::size_t>(kRequestsPerClient);
  state.SetItemsProcessed(static_cast<std::int64_t>(total_requests));
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(total_requests), benchmark::Counter::kIsRate);
  state.counters["batch_occupancy"] = occupancy;
  nnlut::runtime::set_runtime_config({});
}

BENCHMARK(BM_ServingClosedLoop)
    ->ArgsProduct({{1, 4, 16}, {1, 8, 32}})
    ->ArgNames({"clients", "max_batch"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Multi-model sweep: two LUT backends behind one Engine, closed-loop
// clients split across them, bounded vs unbounded per-slot queues.
void BM_EngineMultiModel(benchmark::State& state) {
  const std::size_t clients = static_cast<std::size_t>(state.range(0));
  const bool bounded = state.range(1) != 0;

  serve::SlotConfig scfg;
  scfg.max_batch = 8;
  scfg.max_wait = 500us;
  if (bounded)
    scfg.admission = {/*max_queue_depth=*/4, serve::ShedPolicy::kRejectNew};

  const char* kModels[2] = {"lut-fp32", "lut-int32"};
  std::vector<std::vector<BatchInput>> streams(clients);
  for (std::size_t c = 0; c < clients; ++c)
    for (int k = 0; k < kRequestsPerClient; ++k)
      streams[c].push_back(benchutil::random_request(
          1000 + c * 2003 + static_cast<std::uint64_t>(k), kSeq,
          bench_config().vocab));

  // One Engine per benchmark run, outside the timed loop; the counters
  // below cover every iteration of the run.
  serve::Engine engine(serve::EngineConfig{/*threads=*/0});
  engine.register_model(kModels[0], fixture().model, *fixture().lut, scfg);
  engine.register_model(kModels[1], fixture().model, *fixture().lut_int32,
                        scfg);
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        const char* model = kModels[c % 2];  // half the clients per model
        for (const BatchInput& in : streams[c]) {
          serve::PendingResult r = engine.submit(model, in);
          try {
            Tensor logits = r.get();
            benchmark::DoNotOptimize(logits.data());
          } catch (const serve::ServerOverloaded&) {
            // Shed by admission control; counted from the ledger below.
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  engine.shutdown();
  const serve::EngineStats stats = engine.stats();
  const std::uint64_t submitted = stats.total.submitted + stats.total.rejected;
  const std::uint64_t shed = stats.total.rejected_overload;
  double p95[2];
  for (int mdl = 0; mdl < 2; ++mdl)
    p95[mdl] = stats.models.at(kModels[mdl]).hist_total.quantile(0.95);

  const auto total_requests =
      static_cast<std::size_t>(state.iterations()) * clients *
      static_cast<std::size_t>(kRequestsPerClient);
  state.SetItemsProcessed(static_cast<std::int64_t>(total_requests));
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(total_requests), benchmark::Counter::kIsRate);
  state.counters["shed_rate"] =
      submitted > 0
          ? static_cast<double>(shed) / static_cast<double>(submitted)
          : 0.0;
  state.counters["p95_us_lut_fp32"] = p95[0];
  state.counters["p95_us_lut_int32"] = p95[1];
  state.counters["batch_occupancy"] = stats.total.mean_batch_occupancy;
  nnlut::runtime::set_runtime_config({});
}

BENCHMARK(BM_EngineMultiModel)
    ->ArgsProduct({{4, 16}, {0, 1}})
    ->ArgNames({"clients", "bounded"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return nnlut::benchutil::run_benchmarks(argc, argv,
                                          "BENCH_serving_throughput.json");
}
