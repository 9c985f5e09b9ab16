// Steady-state memory behaviour of the serving hot path.
//
// BM_MemorySteadyState: closed-loop clients against a one-slot Engine,
// sweeping clients {1, 4} x seq-bucket mix {single, mixed}. Each
// configuration warms the slot first (every seq bucket served enough times
// for the pool free lists and workspace slots to reach their high-water
// sizes), snapshots the pool counters, then measures a sustained window.
// The headline counter is alloc_delta_warm: buffer-pool heap misses during
// the measured window. Lifecycle tracing is ENABLED for every
// configuration, so the contract covers the instrumented hot path, not just
// the bare one. This is ZERO — the property CI asserts from the emitted
// JSON — while reuse_delta counts the recycled acquisitions that replaced
// those allocations. rss_delta_bytes reports the resident-set movement
// over the window (control-plane allocations — promise states, queue
// nodes, client input vectors — are outside the pool's scope and show up
// here, not in alloc_delta_warm), and rss_bytes the absolute resident set
// at the end of the window: model weights, pools, workspaces and traces.
//
// Unless --benchmark_out is given, results are also written as
// machine-readable JSON to BENCH_memory_steady_state.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "numerics/rng.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"
#include "transformer/infer.h"

namespace {

using namespace nnlut;
using namespace nnlut::transformer;
using namespace std::chrono_literals;

constexpr std::size_t kMaxSeq = 64;
constexpr int kWarmRounds = 4;
constexpr int kRequestsPerClient = 8;
constexpr const char* kModel = "lut-fp32";

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

  Fixture(const ModelConfig& cfg, Rng& rng)
      : model(cfg, HeadKind::kClassify, 2, rng) {
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

/// One closed-loop wave: every client runs its request stream to completion.
void run_wave(serve::Engine& engine,
              const std::vector<std::vector<BatchInput>>& streams) {
  std::vector<std::thread> threads;
  threads.reserve(streams.size());
  for (std::size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back([&, c] {
      for (const BatchInput& in : streams[c]) {
        Tensor logits = engine.submit(kModel, in).get();
        benchmark::DoNotOptimize(logits.data());
      }
    });
  }
  for (auto& t : threads) t.join();
}

void BM_MemorySteadyState(benchmark::State& state) {
  const std::size_t clients = static_cast<std::size_t>(state.range(0));
  const bool mixed_seq = state.range(1) != 0;

  // Fixed request streams: the mixed sweep alternates seq buckets 32/64 so
  // the workspace reshapes between size classes every flush; the single
  // sweep stays in one bucket.
  std::vector<std::vector<BatchInput>> streams(clients);
  for (std::size_t c = 0; c < clients; ++c)
    for (int k = 0; k < kRequestsPerClient; ++k) {
      const std::size_t seq = mixed_seq && (k % 2 == 1) ? kMaxSeq / 2 : kMaxSeq;
      streams[c].push_back(benchutil::random_request(
          1000 + c * 1001 + static_cast<std::uint64_t>(k), seq,
          bench_config().vocab));
    }

  serve::Engine engine(serve::EngineConfig{/*threads=*/0});  // all cores
  engine.register_model(kModel, fixture().model, *fixture().lut,
                        {.max_batch = 8, .max_wait = 500us});

  // Trace the whole run: the per-thread rings are allocated once (at
  // enable() / first event per thread, i.e. during warmup), so the
  // alloc_delta_warm == 0 contract must hold with tracing ENABLED — the
  // instrumented hot path records into preallocated rings only.
  obs::TraceRecorder::instance().enable(/*events_per_thread=*/4096);

  // Warm every seq bucket: pool free lists and workspace slots reach their
  // high-water sizes, so the measured window below is pure steady state.
  for (int r = 0; r < kWarmRounds; ++r) run_wave(engine, streams);

  const serve::SlotStats warm = engine.model_stats(kModel);
  const benchutil::MemorySnapshot rss0 = benchutil::MemorySnapshot::take();

  for (auto _ : state) run_wave(engine, streams);

  const serve::SlotStats done = engine.model_stats(kModel);
  const benchutil::MemorySnapshot rss1 = benchutil::MemorySnapshot::take();
  engine.shutdown();

  const auto total_requests =
      static_cast<std::size_t>(state.iterations()) * clients *
      static_cast<std::size_t>(kRequestsPerClient);
  state.SetItemsProcessed(static_cast<std::int64_t>(total_requests));
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(total_requests), benchmark::Counter::kIsRate);
  // Pool heap misses over the warmed window — zero in steady state.
  state.counters["alloc_delta_warm"] =
      static_cast<double>(done.pool_alloc_count - warm.pool_alloc_count);
  state.counters["reuse_delta"] =
      static_cast<double>(done.pool_reuse_count - warm.pool_reuse_count);
  state.counters["pool_bytes_peak"] =
      static_cast<double>(done.pool_bytes_peak);
  state.counters["rss_delta_bytes"] =
      rss1.supported ? static_cast<double>(rss1.rss_bytes) -
                           static_cast<double>(rss0.rss_bytes)
                     : 0.0;
  state.counters["rss_bytes"] =
      rss1.supported ? static_cast<double>(rss1.rss_bytes) : 0.0;
  // Events recorded during this configuration — proves the zero-alloc
  // window above really exercised the tracing hot path.
  state.counters["trace_events"] = static_cast<double>(
      obs::TraceRecorder::instance().stats().recorded);
  obs::TraceRecorder::instance().disable();
  nnlut::runtime::set_runtime_config({});
}

BENCHMARK(BM_MemorySteadyState)
    ->ArgsProduct({{1, 4}, {0, 1}})
    ->ArgNames({"clients", "mixed_seq"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return nnlut::benchutil::run_benchmarks(argc, argv,
                                          "BENCH_memory_steady_state.json");
}
