// Serving determinism: logits returned through the multi-model Engine —
// with dynamic same-seq batching, one scheduler thread per model slot, and
// concurrent submission from >= 4 client threads — must be BIT-identical
// to direct InferenceModel::logits calls, for every backend (exact, LUT
// fp32/fp16/int32, I-BERT) and any number of concurrently served models.
// This is the end-to-end consequence of (a) row-independent kernels,
// (b) deterministic static partitioning in the thread pool with FIFO-fair
// orchestrator admission, and (c) each slot's batcher merging only
// identical-seq requests of its own model.
// Also covers admission control under forced overload (every request
// resolves as completed or ServerOverloaded; ledger reconciles exactly
// after drain), per-request validation-error surfacing through a live
// engine, and serving stats sanity.
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "approx/linear_lut.h"
#include "numerics/math.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"
#include "transformer/infer.h"

namespace nnlut::serve {
namespace {

using namespace std::chrono_literals;
using namespace nnlut::transformer;

ModelConfig tiny() {
  ModelConfig c = ModelConfig::roberta_like();
  c.vocab = 32;
  c.hidden = 16;
  c.layers = 2;
  c.heads = 2;
  c.ffn = 32;
  c.max_seq = 12;
  return c;
}

LutSet tiny_luts() {
  return {fit_linear_lut(gelu_exact, kGeluRange, 32),
          fit_linear_lut(exp_exact, {-16.0f, 0.0f}, 32),
          fit_fixed_breakpoint_lut(reciprocal_exact, {1.0f, 64.0f}, 32,
                                   BreakpointMode::kExponential),
          fit_fixed_breakpoint_lut(rsqrt_exact, kRsqrtRange, 32,
                                   BreakpointMode::kExponential)};
}

BatchInput random_request(const ModelConfig& cfg, std::size_t batch,
                          std::size_t seq, Rng& rng) {
  BatchInput in;
  in.batch = batch;
  in.seq = seq;
  in.token_ids.resize(batch * seq);
  for (int& t : in.token_ids)
    t = rng.uniform_int(0, static_cast<int>(cfg.vocab) - 1);
  return in;
}

/// Submit `requests` from `clients` threads (round-robin), await all
/// results, and compare bitwise against direct single-orchestrator logits,
/// both at matmul precision `mode`.
/// The served side runs through the slot's buffer pool and workspace while
/// the direct side allocates per call, so the memory path's bit-identity
/// contract (pools move bytes, never values) is checked for every backend
/// this helper covers.
void expect_served_bits_match_direct(const TaskModel& model,
                                     NonlinearitySet& nl,
                                     const std::vector<BatchInput>& requests,
                                     std::size_t clients,
                                     MatmulMode mode = MatmulMode::kFp32) {
  // Reference: direct calls, one request at a time, on this thread.
  runtime::set_runtime_config({2});
  std::vector<Tensor> direct;
  {
    InferenceModel infer(model, nl, mode);
    for (const BatchInput& in : requests) direct.push_back(infer.logits(in));
  }

  // Served: concurrent clients against a batching slot.
  std::vector<Tensor> served(requests.size());
  {
    Engine engine(EngineConfig{/*threads=*/2});
    engine.register_model("m", model, nl,
                          {.max_batch = 4, .max_wait = 3ms, .matmul = mode});
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t i = c; i < requests.size(); i += clients) {
          PendingResult r = engine.submit("m", requests[i]);
          served[i] = r.get();  // disjoint slot per request: no locking
        }
      });
    }
    for (auto& t : threads) t.join();

    const SlotStats stats = engine.model_stats("m");
    EXPECT_EQ(stats.submitted, requests.size());
    EXPECT_EQ(stats.completed, requests.size());
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_GE(stats.batches, 1u);
    // The forward passes ran in the slot's workspace: the pool must have
    // seen traffic, and nothing beyond what PooledBuffers hold may be
    // counted outstanding.
    EXPECT_GT(stats.pool_alloc_count, 0u);
    EXPECT_GE(stats.pool_bytes_peak, stats.pool_bytes_live);
  }
  runtime::set_runtime_config({});

  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(served[i].size(), direct[i].size()) << "request " << i;
    ASSERT_EQ(served[i].shape(), direct[i].shape()) << "request " << i;
    for (std::size_t j = 0; j < served[i].size(); ++j)
      ASSERT_EQ(served[i][j], direct[i][j])
          << "request " << i << " element " << j;
  }
}

/// Mixed-shape request set: two seq-length buckets, solo and multi-sequence
/// requests, enough volume that batches actually form.
std::vector<BatchInput> request_mix(const ModelConfig& cfg, Rng& rng) {
  std::vector<BatchInput> rs;
  for (int rep = 0; rep < 3; ++rep) {
    rs.push_back(random_request(cfg, 1, 8, rng));
    rs.push_back(random_request(cfg, 2, 12, rng));
    rs.push_back(random_request(cfg, 1, 12, rng));
    rs.push_back(random_request(cfg, 3, 8, rng));
  }
  return rs;
}

TEST(ServingDeterminism, ExactBackend) {
  Rng rng(31);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(m.config().act);
  expect_served_bits_match_direct(m, nl, request_mix(m.config(), rng), 4);
}

class LutServingDeterminism : public ::testing::TestWithParam<LutPrecision> {};

TEST_P(LutServingDeterminism, ServedBitsMatchDirect) {
  Rng rng(32);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  LutNonlinearities::Options opt;
  opt.select = ApproxSelection::all();
  auto nl = make_lut_backend(tiny_luts(), GetParam(), opt);
  expect_served_bits_match_direct(m, *nl, request_mix(m.config(), rng), 4);
}

INSTANTIATE_TEST_SUITE_P(Precisions, LutServingDeterminism,
                         ::testing::Values(LutPrecision::kFp32,
                                           LutPrecision::kFp16,
                                           LutPrecision::kInt32));

TEST(ServingDeterminism, IBertBackend) {
  Rng rng(33);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  IBertNonlinearities nl(m.config().act);
  expect_served_bits_match_direct(m, nl, request_mix(m.config(), rng), 4);
}

TEST(ServingDeterminism, Int8MatmulServedBitsMatchDirect) {
  // kInt8 quantizes every activation row with its own scale; one scale over
  // the merged block would make a request's logits depend on its
  // batch-mates.
  Rng rng(35);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(m.config().act);
  expect_served_bits_match_direct(m, nl, request_mix(m.config(), rng), 4,
                                  MatmulMode::kInt8);
}

TEST(ServingDeterminism, SpanHeadSplitsPerToken) {
  // Span heads return [batch*seq, 2]: the batcher must slice seq rows per
  // sequence, not one.
  Rng rng(34);
  TaskModel m(tiny(), HeadKind::kSpan, 2, rng);
  ExactNonlinearities nl(m.config().act);
  std::vector<BatchInput> rs;
  for (int i = 0; i < 6; ++i) rs.push_back(random_request(m.config(), 2, 8, rng));
  expect_served_bits_match_direct(m, nl, rs, 4);
}

// -------------------------------------------------- multi-model engine ---

TEST(EngineDeterminism, ThreeBackendsConcurrentClientsBitIdentical) {
  // Three slots on one Engine — exact, LUT fp32 and LUT int32, over two
  // distinct task models — each hammered by concurrent clients while the
  // other slots' schedulers orchestrate the same process pool. Logits for
  // every slot must be bit-identical to direct single-threaded calls.
  Rng rng(51);
  TaskModel ma(tiny(), HeadKind::kClassify, 2, rng);
  TaskModel mb(tiny(), HeadKind::kClassify, 3, rng);  // different weights+head
  ExactNonlinearities exact(ma.config().act);
  LutNonlinearities::Options opt;
  opt.select = ApproxSelection::all();
  auto lut32 = make_lut_backend(tiny_luts(), LutPrecision::kFp32, opt);
  auto luti32 = make_lut_backend(tiny_luts(), LutPrecision::kInt32, opt);

  struct SlotCase {
    const char* id;
    const TaskModel* model;
    NonlinearitySet* nl;
  };
  const SlotCase cases[] = {{"exact-a", &ma, &exact},
                            {"lut-fp32-b", &mb, lut32.get()},
                            {"lut-int32-a", &ma, luti32.get()}};

  std::vector<BatchInput> requests;
  Rng req_rng(52);
  for (int i = 0; i < 12; ++i)
    requests.push_back(random_request(ma.config(), 1 + i % 2, 8, req_rng));

  // Reference: direct, single-threaded, per slot.
  runtime::set_runtime_config({2});
  std::vector<std::vector<Tensor>> direct(std::size(cases));
  for (std::size_t s = 0; s < std::size(cases); ++s) {
    InferenceModel infer(*cases[s].model, *cases[s].nl);
    for (const BatchInput& in : requests)
      direct[s].push_back(infer.logits(in));
  }

  std::vector<std::vector<Tensor>> served(std::size(cases));
  for (auto& v : served) v.resize(requests.size());
  {
    Engine engine(EngineConfig{/*threads=*/2});
    SlotConfig scfg;
    scfg.max_batch = 4;
    scfg.max_wait = 3ms;
    for (const SlotCase& c : cases)
      engine.register_model(c.id, *c.model, *c.nl, scfg);
    ASSERT_EQ(engine.model_ids().size(), std::size(cases));

    // Two clients per slot, all slots concurrently: 6 client threads and 3
    // scheduler threads share the pool.
    std::vector<std::thread> clients;
    for (std::size_t s = 0; s < std::size(cases); ++s) {
      for (std::size_t c = 0; c < 2; ++c) {
        clients.emplace_back([&, s, c] {
          for (std::size_t i = c; i < requests.size(); i += 2)
            served[s][i] = engine.submit(cases[s].id, requests[i]).get();
        });
      }
    }
    for (auto& t : clients) t.join();

    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.models.size(), std::size(cases));
    EXPECT_EQ(stats.total.submitted, requests.size() * std::size(cases));
    EXPECT_EQ(stats.total.completed, requests.size() * std::size(cases));
    EXPECT_EQ(stats.total.rejected, 0u);
    for (const SlotCase& c : cases) {
      const SlotStats s = engine.model_stats(c.id);
      EXPECT_EQ(s.submitted, requests.size()) << c.id;
      EXPECT_EQ(s.completed, requests.size()) << c.id;
      EXPECT_EQ(s.failed, 0u) << c.id;
    }
  }
  runtime::set_runtime_config({});

  for (std::size_t s = 0; s < std::size(cases); ++s)
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_EQ(served[s][i].shape(), direct[s][i].shape())
          << cases[s].id << " request " << i;
      for (std::size_t j = 0; j < served[s][i].size(); ++j)
        ASSERT_EQ(served[s][i][j], direct[s][i][j])
            << cases[s].id << " request " << i << " element " << j;
    }
}

TEST(EngineRegistry, UnknownAndDuplicateModels) {
  Rng rng(53);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(m.config().act);
  Engine engine(EngineConfig{/*threads=*/1});
  engine.register_model("m", m, nl);
  EXPECT_TRUE(engine.has_model("m"));
  EXPECT_FALSE(engine.has_model("ghost"));
  EXPECT_THROW(engine.register_model("m", m, nl), std::invalid_argument);
  EXPECT_THROW(engine.register_model("", m, nl), std::invalid_argument);

  PendingResult r = engine.submit("ghost", random_request(m.config(), 1, 8, rng));
  EXPECT_TRUE(r.ready());
  EXPECT_THROW(r.get(), std::out_of_range);
  EXPECT_EQ(engine.stats().rejected_unknown_model, 1u);
  EXPECT_THROW(engine.model_stats("ghost"), std::out_of_range);

  engine.shutdown();
  EXPECT_THROW(engine.register_model("late", m, nl), std::logic_error);
  runtime::set_runtime_config({});
}

TEST(EngineStats, TotalLatencyIsTheMergedHistogram) {
  // Two slots with known, different latencies: "slow" never fills a batch,
  // so each request waits out its 50 ms max_wait; "fast" runs every request
  // alone at once. The aggregate must be the bucket-wise merge of the two
  // histograms, and its quantiles those of the merged traffic — here the
  // median sits among the eight fast requests, below the slow slot's.
  Rng rng(56);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(m.config().act);
  Engine engine(EngineConfig{/*threads=*/1});
  engine.register_model("slow", m, nl, {.max_batch = 64, .max_wait = 50ms});
  engine.register_model("fast", m, nl, {.max_batch = 1, .max_wait = 0us});
  for (int i = 0; i < 2; ++i)
    (void)engine.submit("slow", random_request(m.config(), 1, 8, rng)).get();
  for (int i = 0; i < 8; ++i)
    (void)engine.submit("fast", random_request(m.config(), 1, 8, rng)).get();
  engine.shutdown();

  const EngineStats stats = engine.stats();
  const LatencyHistogram& slow = stats.models.at("slow").hist_total;
  const LatencyHistogram& fast = stats.models.at("fast").hist_total;
  const LatencyHistogram& total = stats.total.hist_total;
  ASSERT_EQ(slow.count(), 2u);
  ASSERT_EQ(fast.count(), 8u);
  EXPECT_GE(slow.quantile(0.0), 32768.0);  // 50 ms lands in [2^15, 2^16) µs
  EXPECT_EQ(total.count(), slow.count() + fast.count());
  EXPECT_EQ(total.sum_us(), slow.sum_us() + fast.sum_us());
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b)
    EXPECT_EQ(total.bucket_count(b), slow.bucket_count(b) + fast.bucket_count(b))
        << "bucket " << b;

  LatencyHistogram merged = slow;
  merged.merge(fast);
  EXPECT_EQ(total.quantile(0.50), merged.quantile(0.50));
  EXPECT_EQ(total.quantile(0.95), merged.quantile(0.95));
  EXPECT_LT(total.quantile(0.50), slow.quantile(0.50));
  runtime::set_runtime_config({});
}

// ---------------------------------------- admission control / overload ---

/// Drive `total` requests from `threads` clients into a bounded slot and
/// assert the overload contract: every request resolves as completed or
/// ServerOverloaded (nothing hangs, no other error), and after drain the
/// slot's ledger reconciles exactly with what the clients observed.
void expect_overload_resolves_and_reconciles(ShedPolicy policy) {
  Rng rng(54);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(m.config().act);

  Engine engine(EngineConfig{/*threads=*/2});
  SlotConfig scfg;
  scfg.max_batch = 2;
  scfg.max_wait = 1ms;
  scfg.admission = {/*max_queue_depth=*/2, policy};
  engine.register_model("bounded", m, nl, scfg);

  constexpr std::size_t kClients = 6, kPerClient = 12;
  std::atomic<std::uint64_t> ok{0}, shed{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng crng(100 + c);
      for (std::size_t i = 0; i < kPerClient; ++i) {
        PendingResult r =
            engine.submit("bounded", random_request(m.config(), 1, 8, crng));
        try {
          (void)r.get();
          ok.fetch_add(1);
        } catch (const ServerOverloaded&) {
          shed.fetch_add(1);
        }
        // Any other exception escapes and fails the test.
      }
    });
  }
  for (auto& t : clients) t.join();
  engine.shutdown();

  const SlotStats s = engine.model_stats("bounded");
  EXPECT_EQ(ok.load() + shed.load(), kClients * kPerClient);
  EXPECT_EQ(s.completed, ok.load());
  EXPECT_EQ(s.rejected_overload, shed.load());
  EXPECT_EQ(s.rejected_validation, 0u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.cancelled, 0u);
  // The two reconciliation identities, exact after drain.
  EXPECT_EQ(s.submitted, s.completed + s.failed + s.cancelled);
  EXPECT_EQ(s.submitted + s.rejected_validation + s.rejected_overload +
                s.rejected_shutdown,
            kClients * kPerClient);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_LE(s.peak_queue_depth, scfg.admission.max_queue_depth);
  runtime::set_runtime_config({});
}

TEST(EngineAdmission, ForcedOverloadRejectNewReconciles) {
  expect_overload_resolves_and_reconciles(ShedPolicy::kRejectNew);
}

TEST(EngineAdmission, ForcedOverloadRejectOldestReconciles) {
  expect_overload_resolves_and_reconciles(ShedPolicy::kRejectOldest);
}

TEST(EngineAdmission, UnboundedSlotNeverSheds) {
  Rng rng(55);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(m.config().act);
  Engine engine(EngineConfig{/*threads=*/1});
  engine.register_model("open", m, nl);  // default: unbounded
  std::vector<PendingResult> rs;
  for (int i = 0; i < 16; ++i)
    rs.push_back(engine.submit("open", random_request(m.config(), 1, 8, rng)));
  for (auto& r : rs) EXPECT_NO_THROW(r.get());
  const SlotStats s = engine.model_stats("open");
  EXPECT_EQ(s.rejected_overload, 0u);
  EXPECT_EQ(s.completed, 16u);
  runtime::set_runtime_config({});
}

// ----------------------------------------- per-request error surfacing ---

TEST(ServingValidation, MalformedRequestRejectsAloneUnderLoad) {
  Rng rng(35);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(m.config().act);

  Engine engine(EngineConfig{/*threads=*/2});
  engine.register_model("m", m, nl, {.max_batch = 4, .max_wait = 2ms});

  // Reference for the good requests.
  std::vector<BatchInput> good;
  for (int i = 0; i < 8; ++i) good.push_back(random_request(m.config(), 1, 8, rng));
  std::vector<Tensor> direct;
  {
    InferenceModel infer(m, nl);
    for (const BatchInput& in : good) direct.push_back(infer.logits(in));
  }

  BatchInput bad_token = good[0];
  bad_token.token_ids[3] = static_cast<int>(m.config().vocab) + 5;
  BatchInput bad_shape = good[1];
  bad_shape.token_ids.pop_back();
  BatchInput bad_seq = random_request(m.config(), 1, m.config().max_seq + 1, rng);
  BatchInput empty;  // batch == 0

  std::vector<Tensor> served(good.size());
  std::vector<PendingResult> bad_results(4);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      // Interleave a malformed submission among this client's good ones.
      switch (c) {
        case 0: bad_results[0] = engine.submit("m", bad_token); break;
        case 1: bad_results[1] = engine.submit("m", bad_shape); break;
        case 2: bad_results[2] = engine.submit("m", bad_seq); break;
        case 3: bad_results[3] = engine.submit("m", empty); break;
      }
      for (std::size_t i = c; i < good.size(); i += 4)
        served[i] = engine.submit("m", good[i]).get();
    });
  }
  for (auto& t : clients) t.join();

  // Every good request completed with bit-identical logits.
  for (std::size_t i = 0; i < good.size(); ++i)
    for (std::size_t j = 0; j < direct[i].size(); ++j)
      ASSERT_EQ(served[i][j], direct[i][j]) << i << "," << j;

  // Each malformed request carries its own validation error.
  try {
    bad_results[0].get();
    FAIL() << "out-of-vocab token must reject";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("token id"), std::string::npos);
  }
  EXPECT_THROW(bad_results[1].get(), std::invalid_argument);
  EXPECT_THROW(bad_results[2].get(), std::out_of_range);
  EXPECT_THROW(bad_results[3].get(), std::invalid_argument);

  const SlotStats stats = engine.model_stats("m");
  EXPECT_EQ(stats.rejected, 4u);
  EXPECT_EQ(stats.completed, good.size());
  EXPECT_EQ(stats.failed, 0u);
  runtime::set_runtime_config({});
}

// A batch * seq that wraps size_t must reject at validation: admitted, it
// would crash the slot's scheduler thread in the head's per-batch loop.
TEST(ServingValidation, WrappingShapeRejectsAtSubmit) {
  Rng rng(36);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(m.config().act);
  Engine engine(EngineConfig{/*threads=*/1});
  engine.register_model("m", m, nl);

  BatchInput in;
  in.batch = std::numeric_limits<std::size_t>::max() / 2 + 2;
  in.seq = 2;
  in.token_ids.assign(in.batch * in.seq, 1);  // the wrapped product: 2 ids
  EXPECT_THROW(engine.submit("m", in).get(), std::invalid_argument);

  const SlotStats stats = engine.model_stats("m");
  EXPECT_EQ(stats.rejected_validation, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.submitted, 0u);
  runtime::set_runtime_config({});
}

TEST(ServingDeterminism, TwoConcurrentEnginesStayBitIdentical) {
  // Two Engines share the process-wide runtime pool; the pool admits one
  // orchestrator at a time and the other inlines, so results from both
  // must still match direct execution bit-for-bit.
  Rng rng(37);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(m.config().act);

  std::vector<BatchInput> requests;
  for (int i = 0; i < 8; ++i) requests.push_back(random_request(m.config(), 1, 8, rng));
  runtime::set_runtime_config({2});
  std::vector<Tensor> direct;
  {
    InferenceModel infer(m, nl);
    for (const BatchInput& in : requests) direct.push_back(infer.logits(in));
  }

  const SlotConfig scfg{.max_batch = 4, .max_wait = 2ms};
  Engine a(EngineConfig{/*threads=*/2});
  Engine b(EngineConfig{/*threads=*/2});
  a.register_model("m", m, nl, scfg);
  b.register_model("m", m, nl, scfg);
  std::vector<Tensor> from_a(requests.size()), from_b(requests.size());
  std::thread ta([&] {
    for (std::size_t i = 0; i < requests.size(); ++i)
      from_a[i] = a.submit("m", requests[i]).get();
  });
  std::thread tb([&] {
    for (std::size_t i = 0; i < requests.size(); ++i)
      from_b[i] = b.submit("m", requests[i]).get();
  });
  ta.join();
  tb.join();

  for (std::size_t i = 0; i < requests.size(); ++i)
    for (std::size_t j = 0; j < direct[i].size(); ++j) {
      ASSERT_EQ(from_a[i][j], direct[i][j]) << i << "," << j;
      ASSERT_EQ(from_b[i][j], direct[i][j]) << i << "," << j;
    }
  runtime::set_runtime_config({});
}

TEST(ServingDeterminism, WidestSimdTierServedBitsMatchScalarDirect) {
  // ISA-invariance through the whole serving stack: requests served under
  // the widest SIMD tier this CPU has (pinned via EngineConfig::simd) must
  // be bit-identical to direct execution with the kernels forced scalar —
  // for the LUT backends whose plans actually dispatch (FP32 and INT32).
  Rng rng(41);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  LutNonlinearities::Options opt;
  opt.select = ApproxSelection::all();
  for (LutPrecision prec : {LutPrecision::kFp32, LutPrecision::kInt32}) {
    auto nl = make_lut_backend(tiny_luts(), prec, opt);
    std::vector<BatchInput> requests;
    for (int i = 0; i < 6; ++i)
      requests.push_back(random_request(m.config(), 1, 8, rng));

    runtime::set_runtime_config({1, simd::SimdTier::kScalar});
    std::vector<Tensor> direct;
    {
      InferenceModel infer(m, *nl);
      for (const BatchInput& in : requests)
        direct.push_back(infer.logits(in));
    }

    std::vector<Tensor> served(requests.size());
    {
      Engine engine(EngineConfig{/*threads=*/2, simd::detected_simd_tier()});
      engine.register_model("m", m, *nl, {.max_batch = 4, .max_wait = 2ms});
      EXPECT_EQ(simd::active_simd_tier(), simd::detected_simd_tier());
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < 3; ++c) {
        clients.emplace_back([&, c] {
          for (std::size_t i = c; i < requests.size(); i += 3)
            served[i] = engine.submit("m", requests[i]).get();
        });
      }
      for (auto& t : clients) t.join();
    }
    runtime::set_runtime_config({});

    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_EQ(served[i].shape(), direct[i].shape()) << "request " << i;
      for (std::size_t j = 0; j < served[i].size(); ++j)
        ASSERT_EQ(served[i][j], direct[i][j])
            << "request " << i << " element " << j << " precision "
            << static_cast<int>(prec);
    }
  }
}

TEST(ServingStats, CancelledAndRejectedReconcileWithSubmitted) {
  Rng rng(38);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(m.config().act);

  Engine engine(EngineConfig{/*threads=*/1});
  // Never full and never aged out: requests sit queued until shutdown.
  engine.register_model("m", m, nl, {.max_batch = 64, .max_wait = 10min});

  PendingResult r1 = engine.submit("m", random_request(m.config(), 1, 8, rng));
  PendingResult r2 = engine.submit("m", random_request(m.config(), 1, 8, rng));
  PendingResult r3 = engine.submit("m", random_request(m.config(), 1, 8, rng));
  EXPECT_TRUE(r2.cancel());  // still queued: nothing flushes before shutdown
  engine.shutdown();         // drains r1/r3, skips the cancelled r2

  EXPECT_NO_THROW(r1.get());
  EXPECT_NO_THROW(r3.get());
  EXPECT_THROW(r2.get(), RequestCancelled);

  PendingResult late =
      engine.submit("m", random_request(m.config(), 1, 8, rng));
  EXPECT_THROW(late.get(), RequestCancelled);

  const SlotStats stats = engine.model_stats("m");
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected, 1u);  // the post-shutdown submit
  EXPECT_EQ(stats.submitted, stats.completed + stats.failed + stats.cancelled);
  runtime::set_runtime_config({});
}

// ------------------------------------------------------- memory path ---

/// One client serving `requests` sequentially: each result tensor is
/// destroyed before the next submit, so the number of slabs simultaneously
/// outstanding is deterministic and a warmed pool can serve every
/// acquisition from its free lists.
void serve_sequentially(Engine& engine, const std::vector<BatchInput>& requests) {
  for (const BatchInput& in : requests) {
    Tensor logits = engine.submit("m", in).get();
    ASSERT_GT(logits.size(), 0u);
  }
}

TEST(ServingMemoryPath, WarmWindowServesWithoutPoolAllocs) {
  // The tentpole property, counter-asserted: once every seq bucket has been
  // served, a sustained window performs ZERO pool heap allocations — every
  // workspace reshape and result slab comes off a free list.
  Rng rng(71);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(m.config().act);
  const std::vector<BatchInput> requests = request_mix(m.config(), rng);

  Engine engine(EngineConfig{/*threads=*/2});
  engine.register_model("m", m, nl, {.max_batch = 4, .max_wait = 1ms});

  // Warm: every size class the mix touches gets allocated and free-listed.
  serve_sequentially(engine, requests);
  serve_sequentially(engine, requests);
  const SlotStats warm = engine.model_stats("m");
  EXPECT_GT(warm.pool_alloc_count, 0u);

  // Measured window: repeats of the same mix must be pure reuse.
  serve_sequentially(engine, requests);
  serve_sequentially(engine, requests);
  const SlotStats done = engine.model_stats("m");

  EXPECT_EQ(done.pool_alloc_count, warm.pool_alloc_count)
      << "warmed window performed pool heap allocations";
  EXPECT_GT(done.pool_reuse_count, warm.pool_reuse_count);
  EXPECT_EQ(done.pool_bytes_peak, warm.pool_bytes_peak);
  runtime::set_runtime_config({});
}

TEST(ServingMemoryPath, OutstandingStableAfterDrain) {
  // With every result tensor destroyed and the queue drained, the slabs
  // still outstanding are exactly the slot's persistent workspace — the
  // count must not creep across serving windows (that would be a leak of
  // pooled slabs).
  Rng rng(72);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(m.config().act);
  const std::vector<BatchInput> requests = request_mix(m.config(), rng);

  Engine engine(EngineConfig{/*threads=*/2});
  engine.register_model("m", m, nl, {.max_batch = 4, .max_wait = 1ms});

  serve_sequentially(engine, requests);
  const SlotStats s1 = engine.model_stats("m");
  serve_sequentially(engine, requests);
  const SlotStats s2 = engine.model_stats("m");
  serve_sequentially(engine, requests);
  const SlotStats s3 = engine.model_stats("m");

  EXPECT_GT(s1.pool_outstanding, 0u);  // the workspace holds its slots
  EXPECT_EQ(s2.pool_outstanding, s1.pool_outstanding);
  EXPECT_EQ(s3.pool_outstanding, s2.pool_outstanding);
  EXPECT_EQ(s3.pool_bytes_live, s2.pool_bytes_live);
  runtime::set_runtime_config({});
}

// ------------------------------------------------------ observability ---

// Tracing observes, never steers: serving the same request set with the
// trace recorder armed must return logits BIT-identical to serving it with
// tracing off — the observability half of the determinism contract. Also
// checks the traced run actually recorded lifecycle spans and that the
// engine scrape exposes the per-stage histograms next to the ledger
// counters.
TEST(ServingObservability, TracingOnLogitsBitIdenticalToTracingOff) {
  Rng rng(77);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(m.config().act);
  const std::vector<BatchInput> requests = request_mix(m.config(), rng);

  auto serve_all = [&](bool tracing) {
    if (tracing) obs::TraceRecorder::instance().enable(4096);
    std::vector<Tensor> out(requests.size());
    std::string scrape;
    {
      Engine engine(EngineConfig{/*threads=*/2});
      engine.register_model("m", m, nl, {.max_batch = 4, .max_wait = 3ms});
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < 4; ++c)
        threads.emplace_back([&, c] {
          for (std::size_t i = c; i < requests.size(); i += 4)
            out[i] = engine.submit("m", requests[i]).get();
        });
      for (auto& t : threads) t.join();
      scrape = engine.scrape();
    }
    runtime::set_runtime_config({});
    if (tracing) {
      obs::TraceRecorder::instance().disable();
      EXPECT_GT(obs::TraceRecorder::instance().stats().recorded, 0u);
    }
    // The scrape carries the per-stage histograms and ledger counters
    // whether or not tracing is armed (independent subsystems).
    EXPECT_NE(scrape.find("nnlut_stage_latency_us_bucket"), std::string::npos);
    EXPECT_NE(scrape.find("stage=\"exec\""), std::string::npos);
    EXPECT_NE(scrape.find("nnlut_requests_total{model=\"m\","
                          "outcome=\"completed\"} " +
                          std::to_string(requests.size())),
              std::string::npos);
    return out;
  };

  const std::vector<Tensor> off = serve_all(false);
  const std::vector<Tensor> on = serve_all(true);
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    ASSERT_EQ(on[i].shape(), off[i].shape()) << "request " << i;
    for (std::size_t j = 0; j < off[i].size(); ++j)
      ASSERT_EQ(on[i][j], off[i][j])
          << "request " << i << " element " << j
          << ": tracing changed served bits";
  }
}

TEST(ServingShutdown, SubmitAfterShutdownRejects) {
  Rng rng(36);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(m.config().act);
  Engine engine(EngineConfig{/*threads=*/1});
  engine.register_model("m", m, nl, {.max_batch = 4, .max_wait = 1ms});
  PendingResult before =
      engine.submit("m", random_request(m.config(), 1, 8, rng));
  engine.shutdown();
  EXPECT_NO_THROW(before.get());  // drained before stop
  PendingResult after =
      engine.submit("m", random_request(m.config(), 1, 8, rng));
  EXPECT_THROW(after.get(), RequestCancelled);
  runtime::set_runtime_config({});
}

}  // namespace
}  // namespace nnlut::serve
