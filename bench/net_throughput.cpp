// BM_NetClosedLoop: closed-loop TCP serving throughput over loopback.
//
// `connections` client threads (one net::Client each — the protocol's
// request-id scope is per-connection) drive a TcpServer over an Engine
// with two LUT slots, sweeping connections {1, 4, 16} x admission
// {unbounded, bounded}. Each client keeps 4 requests in flight. Counters
// report client-observed p50/p95 (submit -> completion frame, i.e.
// including the wire) and the shed rate, so the artifact shows both what
// the socket layer costs over the in-process numbers of
// BENCH_serving_throughput.json and what bounded admission trades under
// fan-in: capped latency for shed work (kOverloaded completions +
// pre-parse sheds).
//
// Every iteration also checks the run end to end, and the row is skipped
// with an error (which CI fails on) unless no client thread failed, every
// request completed ok or kOverloaded, and the server's delivery ledger
// reconciles: submits_forwarded == completions_enqueued + responses_dropped.
//
// Unless --benchmark_out is given, results are also written as
// machine-readable JSON to BENCH_net_throughput.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "numerics/rng.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"
#include "serve/stats.h"
#include "transformer/infer.h"

namespace {

using namespace nnlut;
using namespace nnlut::transformer;
using namespace std::chrono_literals;

constexpr std::size_t kSeq = 32;
constexpr int kRequestsPerConn = 16;
constexpr std::size_t kInflight = 4;

ModelConfig bench_config() {
  ModelConfig c = ModelConfig::roberta_like();
  c.vocab = 128;
  c.hidden = 32;
  c.layers = 2;
  c.heads = 2;
  c.ffn = 128;
  c.max_seq = kSeq;
  return c;
}

struct Fixture {
  TaskModel model;
  std::unique_ptr<LutNonlinearities> lut_fp32;
  std::unique_ptr<LutNonlinearities> lut_int32;

  Fixture(const ModelConfig& cfg, Rng& rng)
      : model(cfg, HeadKind::kClassify, 2, rng) {
    const LutSet luts = benchutil::serving_luts();
    LutNonlinearities::Options opt;
    opt.select = ApproxSelection::all();
    lut_fp32 = make_lut_backend(luts, LutPrecision::kFp32, opt);
    lut_int32 = make_lut_backend(luts, LutPrecision::kInt32, opt);
  }
};

Fixture& fixture() {
  static Rng rng(42);
  static Fixture f(bench_config(), rng);
  return f;
}

/// What the clients of one closed-loop iteration observed.
struct LoopTally {
  serve::LatencyHistogram latency;  // submit -> completion frame
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;    // kOverloaded completions
  std::uint64_t errors = 0;  // any other error code
  std::string failure;       // first client-thread exception, if any

  void merge(const LoopTally& o) {
    latency.merge(o.latency);
    ok += o.ok;
    shed += o.shed;
    errors += o.errors;
    if (failure.empty()) failure = o.failure;
  }
};

/// Empty when no client thread failed, all `expected` requests completed ok
/// or kOverloaded, and the server's delivery ledger reconciles; otherwise
/// the first violation.
std::string check_iteration(const LoopTally& t, std::uint64_t expected,
                            const net::NetStats& net) {
  if (!t.failure.empty()) return "client thread failed: " + t.failure;
  if (t.errors != 0)
    return std::to_string(t.errors) +
           " completions carried an error other than kOverloaded";
  if (t.ok + t.shed != expected)
    return "completed " + std::to_string(t.ok + t.shed) + " of " +
           std::to_string(expected) + " requests";
  if (net.submits_forwarded != net.completions_enqueued + net.responses_dropped)
    return "ledger: submits_forwarded " +
           std::to_string(net.submits_forwarded) + " != completions_enqueued " +
           std::to_string(net.completions_enqueued) + " + responses_dropped " +
           std::to_string(net.responses_dropped);
  return {};
}

void BM_NetClosedLoop(benchmark::State& state) {
  const std::size_t connections = static_cast<std::size_t>(state.range(0));
  const bool bounded = state.range(1) != 0;

  serve::SlotConfig scfg;
  scfg.max_batch = 8;
  scfg.max_wait = 500us;
  if (bounded)
    scfg.admission = {/*max_queue_depth=*/4, serve::ShedPolicy::kRejectNew};
  const char* kModels[2] = {"lut-fp32", "lut-int32"};

  std::vector<std::vector<BatchInput>> streams(connections);
  for (std::size_t c = 0; c < connections; ++c)
    for (int k = 0; k < kRequestsPerConn; ++k)
      streams[c].push_back(benchutil::random_request(
          3000 + c * 4007 + static_cast<std::uint64_t>(k), kSeq,
          bench_config().vocab));

  LoopTally tally;
  net::NetStats net{};
  for (auto _ : state) {
    serve::Engine engine(serve::EngineConfig{/*threads=*/0});
    engine.register_model(kModels[0], fixture().model, *fixture().lut_fp32,
                          scfg);
    engine.register_model(kModels[1], fixture().model, *fixture().lut_int32,
                          scfg);
    net::TcpServer server(engine);

    LoopTally iter;
    std::mutex agg_mu;
    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (std::size_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        LoopTally local;
        try {
          net::Client client("127.0.0.1", server.port());
          const char* model = kModels[c % 2];
          std::vector<std::pair<std::uint64_t,
                                std::chrono::steady_clock::time_point>> window;
          std::size_t next = 0;
          auto prime = [&] {
            while (next < streams[c].size() && window.size() < kInflight) {
              const auto t0 = std::chrono::steady_clock::now();
              window.emplace_back(client.submit(model, streams[c][next]), t0);
              ++next;
            }
          };
          prime();
          while (!window.empty()) {
            const auto [id, t0] = window.front();
            window.erase(window.begin());
            const net::Completion done = client.await(id);
            local.latency.record(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0));
            if (done.ok) {
              ++local.ok;
              benchmark::DoNotOptimize(done.logits.data());
            } else if (done.code == net::ErrorCode::kOverloaded) {
              ++local.shed;
            } else {
              ++local.errors;
            }
            prime();
          }
        } catch (const std::exception& e) {
          local.failure = e.what();
        }
        std::lock_guard<std::mutex> lk(agg_mu);
        iter.merge(local);
      });
    }
    for (auto& t : threads) t.join();
    server.stop();
    net = server.stats();
    engine.shutdown();
    tally = std::move(iter);

    const std::string error = check_iteration(
        tally, connections * static_cast<std::uint64_t>(kRequestsPerConn),
        net);
    if (!error.empty()) {
      state.SkipWithError(error.c_str());
      break;
    }
  }

  const auto total_requests =
      static_cast<std::size_t>(state.iterations()) * connections *
      static_cast<std::size_t>(kRequestsPerConn);
  state.SetItemsProcessed(static_cast<std::int64_t>(total_requests));
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(total_requests), benchmark::Counter::kIsRate);
  state.counters["p50_us"] = tally.latency.quantile(0.50);
  state.counters["p95_us"] = tally.latency.quantile(0.95);
  const std::uint64_t answered = tally.ok + tally.shed;
  state.counters["shed_rate"] =
      answered > 0
          ? static_cast<double>(tally.shed) / static_cast<double>(answered)
          : 0.0;
  state.counters["sheds_preparse"] = static_cast<double>(net.sheds_preparse);
  nnlut::runtime::set_runtime_config({});
}

BENCHMARK(BM_NetClosedLoop)
    ->ArgsProduct({{1, 4, 16}, {0, 1}})
    ->ArgNames({"connections", "bounded"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return nnlut::benchutil::run_benchmarks(argc, argv,
                                          "BENCH_net_throughput.json");
}
