// Determinism contract of the parallel runtime: the thread pool uses fixed
// static partitioning over independent rows, so InferenceModel::logits must
// be BIT-identical for any pool size, for every backend. Plus regression
// tests for the integer-kernel edge cases a threaded serving loop would turn
// into crashes (coarse-scale i_exp, out-of-range embedding ids, non-finite
// rows through llround).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "approx/linear_lut.h"
#include "ibert/ibert_kernels.h"
#include "numerics/math.h"
#include "runtime/thread_pool.h"
#include "transformer/infer.h"

namespace nnlut::transformer {
namespace {

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

BatchInput random_batch(const ModelConfig& cfg, std::size_t batch,
                        std::size_t seq, Rng& rng) {
  BatchInput in;
  in.batch = batch;
  in.seq = seq;
  in.token_ids.resize(batch * seq);
  in.type_ids.assign(batch * seq, 0);
  for (int& t : in.token_ids)
    t = rng.uniform_int(0, static_cast<int>(cfg.vocab) - 1);
  return in;
}

LutSet tiny_luts() {
  return {fit_linear_lut(gelu_exact, kGeluRange, 32),
          fit_linear_lut(exp_exact, {-16.0f, 0.0f}, 32),
          fit_fixed_breakpoint_lut(reciprocal_exact, {1.0f, 64.0f}, 32,
                                   BreakpointMode::kExponential),
          fit_fixed_breakpoint_lut(rsqrt_exact, kRsqrtRange, 32,
                                   BreakpointMode::kExponential)};
}

Tensor logits_with_pool(const TaskModel& m, NonlinearitySet& nl,
                        std::size_t threads, const BatchInput& in,
                        MatmulMode mode = MatmulMode::kFp32) {
  runtime::set_runtime_config({threads});
  InferenceModel infer(m, nl, mode);
  const std::uint64_t jobs = runtime::thread_pool_stats().jobs;
  Tensor out = infer.logits(in);
  // `jobs` counts only runs that forked: a multi-lane pass that never
  // forked would compare one lane with one lane.
  if (threads > 1) {
    EXPECT_GT(runtime::thread_pool_stats().jobs, jobs)
        << "the " << threads << "-lane pass never forked";
  }
  runtime::set_runtime_config({});  // restore default
  return out;
}

void expect_bit_identical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST(ThreadParity, ExactBackend) {
  Rng rng(11);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  const BatchInput in = random_batch(m.config(), 4, 12, rng);
  ExactNonlinearities exact(m.config().act);
  const Tensor l1 = logits_with_pool(m, exact, 1, in);
  expect_bit_identical(l1, logits_with_pool(m, exact, 3, in));
  expect_bit_identical(l1, logits_with_pool(m, exact, 4, in));
}

class LutThreadParity : public ::testing::TestWithParam<LutPrecision> {};

TEST_P(LutThreadParity, LogitsMatchAcrossPoolSizes) {
  Rng rng(12);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  const BatchInput in = random_batch(m.config(), 4, 12, rng);
  LutNonlinearities::Options opt;
  opt.select = ApproxSelection::all();
  auto backend = make_lut_backend(tiny_luts(), GetParam(), opt);
  const Tensor l1 = logits_with_pool(m, *backend, 1, in);
  expect_bit_identical(l1, logits_with_pool(m, *backend, 4, in));
}

INSTANTIATE_TEST_SUITE_P(Precisions, LutThreadParity,
                         ::testing::Values(LutPrecision::kFp32,
                                           LutPrecision::kFp16,
                                           LutPrecision::kInt32));

TEST(ThreadParity, IBertBackend) {
  Rng rng(13);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  const BatchInput in = random_batch(m.config(), 4, 12, rng);
  IBertNonlinearities ibert_nl(m.config().act);
  const Tensor l1 = logits_with_pool(m, ibert_nl, 1, in);
  expect_bit_identical(l1, logits_with_pool(m, ibert_nl, 4, in));
}

TEST(ThreadParity, Int8MatmulMode) {
  Rng rng(14);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  const BatchInput in = random_batch(m.config(), 3, 12, rng);
  ExactNonlinearities exact(m.config().act);
  const Tensor l1 = logits_with_pool(m, exact, 1, in, MatmulMode::kInt8);
  expect_bit_identical(l1, logits_with_pool(m, exact, 4, in, MatmulMode::kInt8));
}

// ------------------------------------------------------- parallel_for -----

TEST(ParallelFor, CoversRangeExactlyOnce) {
  runtime::set_runtime_config({4});
  std::vector<std::atomic<int>> hits(1000);
  runtime::parallel_for(0, hits.size(), 1, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
  runtime::set_runtime_config({});
}

TEST(ParallelFor, GrainCapsShardCount) {
  runtime::set_runtime_config({8});
  // 10 items at grain 10 must run as one inline shard.
  int calls = 0;
  runtime::parallel_for(0, 10, 10, [&](std::size_t i0, std::size_t i1) {
    ++calls;
    EXPECT_EQ(i0, 0u);
    EXPECT_EQ(i1, 10u);
  });
  EXPECT_EQ(calls, 1);
  runtime::set_runtime_config({});
}

TEST(ParallelFor, WorkerShardExceptionPropagatesAndPoolSurvives) {
  runtime::set_runtime_config({4});
  // 4 shards of 1 item each: the shard starting at 2 runs on a worker lane.
  EXPECT_THROW(runtime::parallel_for(0, 4, 1,
                                     [](std::size_t i0, std::size_t) {
                                       if (i0 == 2)
                                         throw std::runtime_error("boom");
                                     }),
               std::runtime_error);
  // The pool must drain the failed job and stay usable.
  std::atomic<int> n{0};
  runtime::parallel_for(0, 100, 1, [&](std::size_t i0, std::size_t i1) {
    n.fetch_add(static_cast<int>(i1 - i0));
  });
  EXPECT_EQ(n.load(), 100);
  runtime::set_runtime_config({});
}

TEST(ParallelFor, CallerShardExceptionPropagatesAndPoolSurvives) {
  runtime::set_runtime_config({4});
  EXPECT_THROW(runtime::parallel_for(0, 4, 1,
                                     [](std::size_t i0, std::size_t) {
                                       if (i0 == 0)  // lane 0 = caller
                                         throw std::runtime_error("boom");
                                     }),
               std::runtime_error);
  std::atomic<int> n{0};
  runtime::parallel_for(0, 64, 1, [&](std::size_t i0, std::size_t i1) {
    n.fetch_add(static_cast<int>(i1 - i0));
  });
  EXPECT_EQ(n.load(), 64);
  runtime::set_runtime_config({});
}

TEST(ParallelFor, MorePoolLanesThanHardwareStillCorrect) {
  runtime::set_runtime_config({16});
  std::atomic<long> sum{0};
  runtime::parallel_for(1, 101, 1, [&](std::size_t i0, std::size_t i1) {
    long local = 0;
    for (std::size_t i = i0; i < i1; ++i) local += static_cast<long>(i);
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 5050);
  runtime::set_runtime_config({});
}

TEST(ParallelFor, ConcurrentOrchestratorsStayCorrect) {
  // Two threads driving parallel_for on the same pool (two serving loops,
  // or a server plus a direct caller): the pool admits one orchestrator at
  // a time — FIFO by arrival ticket — and the other waits its turn; both
  // must compute correct results, with no cross-talk on the shared job
  // state.
  runtime::set_runtime_config({4});
  std::thread second([] {
    for (int iter = 0; iter < 100; ++iter) {
      std::atomic<long> sum{0};
      runtime::parallel_for(1, 101, 1, [&](std::size_t i0, std::size_t i1) {
        long local = 0;
        for (std::size_t i = i0; i < i1; ++i) local += static_cast<long>(i);
        sum.fetch_add(local);
      });
      ASSERT_EQ(sum.load(), 5050);
    }
  });
  for (int iter = 0; iter < 100; ++iter) {
    std::atomic<long> sum{0};
    runtime::parallel_for(1, 201, 1, [&](std::size_t i0, std::size_t i1) {
      long local = 0;
      for (std::size_t i = i0; i < i1; ++i) local += static_cast<long>(i);
      sum.fetch_add(local);
    });
    ASSERT_EQ(sum.load(), 20100);
  }
  second.join();
  runtime::set_runtime_config({});
}

TEST(ParallelFor, ManyOrchestratorsShareThePoolFairly) {
  // N scheduler-like threads (a multi-model Engine runs one per slot)
  // orchestrating the same pool concurrently: FIFO ticket admission means
  // every orchestrator keeps making progress — none can be starved into
  // waiting forever while the others loop — and every job computes the
  // serial answer. Completion of all N * kRounds jobs IS the fairness
  // assertion: a starved orchestrator would hang the test.
  runtime::set_runtime_config({3});
  constexpr int kOrchestrators = 4, kRounds = 50;
  std::atomic<int> jobs_done{0};
  std::vector<std::thread> orchestrators;
  for (int o = 0; o < kOrchestrators; ++o) {
    orchestrators.emplace_back([&, o] {
      const std::size_t n = 50 + static_cast<std::size_t>(o) * 10;
      const long expected =
          static_cast<long>(n * (n + 1) / 2);  // sum 1..n
      for (int round = 0; round < kRounds; ++round) {
        std::atomic<long> sum{0};
        runtime::parallel_for(1, n + 1, 1, [&](std::size_t i0, std::size_t i1) {
          long local = 0;
          for (std::size_t i = i0; i < i1; ++i) local += static_cast<long>(i);
          sum.fetch_add(local);
        });
        ASSERT_EQ(sum.load(), expected) << "orchestrator " << o;
        jobs_done.fetch_add(1);
      }
    });
  }
  for (auto& t : orchestrators) t.join();
  EXPECT_EQ(jobs_done.load(), kOrchestrators * kRounds);
  runtime::set_runtime_config({});
}

TEST(ParallelFor, OrchestratorExceptionReleasesTheWorkers) {
  // A shard failure must pass the workers to the next ticket holder — a
  // throwing job that held its turn forever would deadlock every later
  // orchestrator (and this test).
  runtime::set_runtime_config({3});
  for (int round = 0; round < 5; ++round) {
    EXPECT_THROW(
        runtime::parallel_for(0, 30, 1,
                              [&](std::size_t i0, std::size_t) {
                                if (i0 == 0) throw std::runtime_error("boom");
                              }),
        std::runtime_error);
    // The pool must still be usable by the next job.
    std::atomic<long> sum{0};
    runtime::parallel_for(1, 11, 1, [&](std::size_t i0, std::size_t i1) {
      long local = 0;
      for (std::size_t i = i0; i < i1; ++i) local += static_cast<long>(i);
      sum.fetch_add(local);
    });
    ASSERT_EQ(sum.load(), 55);
  }
  runtime::set_runtime_config({});
}

TEST(ParallelFor, ReconfigureWhileKernelsInFlightIsSafe) {
  // Regression for the serving subsystem: a configurer thread resizing the
  // pool (Engine construction plugs EngineConfig::threads into RuntimeConfig)
  // while another thread has kernels in flight. Before acquire_pool()
  // returned a shared handle, set_runtime_config destroyed the pool out from
  // under the running parallel_for. TSan in CI guards the handoff.
  std::atomic<bool> stop{false};
  std::thread configurer([&] {
    std::size_t n = 2;
    while (!stop.load()) {
      runtime::set_runtime_config({n});
      n = (n == 2) ? 4 : 2;
    }
  });
  for (int iter = 0; iter < 200; ++iter) {
    std::atomic<long> sum{0};
    runtime::parallel_for(1, 101, 1, [&](std::size_t i0, std::size_t i1) {
      long local = 0;
      for (std::size_t i = i0; i < i1; ++i) local += static_cast<long>(i);
      sum.fetch_add(local);
    });
    ASSERT_EQ(sum.load(), 5050);
  }
  stop.store(true);
  configurer.join();
  runtime::set_runtime_config({});
}

// ------------------------------------------------ bugfix regressions ------

TEST(IBertRegressions, IExpSurvivesCoarseScale) {
  // s > ln2 makes floor(ln2/s) == 0; before the guard this divided by zero
  // in release builds. The clamp keeps the result finite and in (0, 1].
  const ibert::QValue out = ibert::i_exp({-5, 1.0f});
  EXPECT_TRUE(std::isfinite(out.value()));
  EXPECT_GE(out.value(), 0.0f);
  EXPECT_LE(out.value(), 1.0f);
}

TEST(IBertRegressions, SoftmaxRowSurvivesCoarseScale) {
  // Magnitudes around 1e6 give s = 1e6 / 32767 ≈ 30.5 > ln2.
  std::vector<float> row = {-1e6f, 0.0f, 5e5f, 1e6f};
  ibert::softmax_rows(row, 1, row.size());
  float sum = 0.0f;
  for (float v : row) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0f, 0.1f);
}

TEST(IBertRegressions, NonFiniteRowsDoNotCrash) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();

  std::vector<float> sm = {nan, 0.0f, 1.0f, inf, -inf, 2.0f};
  ibert::softmax_rows(sm, 1, sm.size());
  for (float v : sm) EXPECT_TRUE(std::isfinite(v));

  std::vector<float> ge = {nan, inf, -inf, 0.5f, -0.5f};
  ibert::gelu_rows(ge, 1, ge.size());
  for (float v : ge) EXPECT_TRUE(std::isfinite(v));

  std::vector<float> x = {nan, 1.0f, inf, -2.0f, 0.0f, 3.0f};
  std::vector<float> y(x.size());
  ibert::layernorm_rows(x, y, 1, x.size(), {}, {});
  for (float v : y) EXPECT_TRUE(std::isfinite(v));
}

TEST(IBertRegressions, TinyMagnitudeRowsStayDefined) {
  // Magnitudes far below the 2^-6 scale floor: the integer pipelines must
  // stay inside int64 (the ASan+UBSan CI job enforces no overflow) and
  // produce finite outputs.
  std::vector<float> sm = {1e-26f, 2e-26f, -3e-26f, 0.0f};
  ibert::softmax_rows(sm, 1, sm.size());
  float sum = 0.0f;
  for (float v : sm) {
    EXPECT_TRUE(std::isfinite(v));
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0f, 0.1f);

  std::vector<float> ge = {1e-30f, -1e-20f, 5e-25f};
  ibert::gelu_rows(ge, 1, ge.size());
  for (float v : ge) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_NEAR(v, 0.0f, 1e-3f);  // gelu of ~0 is ~0
  }

  std::vector<float> x = {1e-28f, -2e-28f, 3e-28f, -4e-28f};
  std::vector<float> y(x.size());
  ibert::layernorm_rows(x, y, 1, x.size(), {}, {});
  for (float v : y) EXPECT_TRUE(std::isfinite(v));
}

TEST(EncodeValidation, OutOfRangeTokenIdThrows) {
  Rng rng(15);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities exact(m.config().act);
  InferenceModel infer(m, exact);

  BatchInput in = random_batch(m.config(), 1, 8, rng);
  in.token_ids[3] = static_cast<int>(m.config().vocab);  // one past the end
  EXPECT_THROW(infer.logits(in), std::out_of_range);

  in.token_ids[3] = -1;
  EXPECT_THROW(infer.logits(in), std::out_of_range);
}

TEST(EncodeValidation, OutOfRangeTypeIdThrows) {
  Rng rng(16);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities exact(m.config().act);
  InferenceModel infer(m, exact);

  BatchInput in = random_batch(m.config(), 1, 8, rng);
  in.type_ids[0] = static_cast<int>(m.config().type_vocab);
  EXPECT_THROW(infer.logits(in), std::out_of_range);
  in.type_ids[0] = -2;
  EXPECT_THROW(infer.logits(in), std::out_of_range);
}

TEST(EncodeValidation, OverlongSequenceThrows) {
  Rng rng(17);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities exact(m.config().act);
  InferenceModel infer(m, exact);

  BatchInput in = random_batch(m.config(), 1, m.config().max_seq + 1, rng);
  EXPECT_THROW(infer.logits(in), std::out_of_range);
}

TEST(EncodeValidation, NonFiniteWeightThrows) {
  // The matmul kernels no longer skip zero activations, so a NaN or inf
  // weight would poison every logit; the constructor rejects it by name.
  Rng rng(19);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities exact(m.config().act);
  m.encoder.layers[1].ff2.w.value[3] =
      std::numeric_limits<float>::quiet_NaN();
  try {
    InferenceModel infer(m, exact);
    FAIL() << "NaN weight accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("layer 1 ff2 weight"),
              std::string::npos)
        << e.what();
  }
  m.encoder.layers[1].ff2.w.value[3] = 0.5f;
  m.head_lin.b.value[0] = -std::numeric_limits<float>::infinity();
  EXPECT_THROW(InferenceModel(m, exact, MatmulMode::kInt8),
               std::invalid_argument);
  m.head_lin.b.value[0] = 0.0f;
  // Finite, but past the fp16 range: inf after projection.
  m.encoder.layers[0].attn.wq.w.value[0] = 1e6f;
  EXPECT_NO_THROW(InferenceModel(m, exact, MatmulMode::kFp32));
  EXPECT_THROW(InferenceModel(m, exact, MatmulMode::kFp16),
               std::invalid_argument);
}

TEST(EncodeValidation, ValidIdsStillWork) {
  Rng rng(18);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities exact(m.config().act);
  InferenceModel infer(m, exact);
  const BatchInput in = random_batch(m.config(), 2, 8, rng);
  const Tensor l = infer.logits(in);
  for (float v : l.flat()) EXPECT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace nnlut::transformer
