// Unit tests for the serving subsystem: queue/PendingResult semantics
// (incl. the one-shot get() guard), admission control (bounded depth,
// reject-new / reject-oldest shedding, depth accounting under concurrent
// submit/drain), dynamic batch formation (same-seq merging, max_batch /
// max_wait flush, early flush of buckets whose arrivals rarely come within
// max_wait), per-request error isolation, cancellation, shutdown
// drain and stats.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/buffer_pool.h"
#include "serve/batcher.h"
#include "serve/request_queue.h"
#include "serve/stats.h"
#include "transformer/backends.h"
#include "transformer/infer.h"

namespace nnlut::serve {
namespace {

using namespace std::chrono_literals;

transformer::BatchInput make_request(std::size_t batch, std::size_t seq,
                                     int fill = 1) {
  transformer::BatchInput in;
  in.batch = batch;
  in.seq = seq;
  in.token_ids.assign(batch * seq, fill);
  return in;
}

/// A stand-in model: one output row per sequence; row r of the result is
/// {sum of that sequence's tokens, seq}. Splittable exactly like a
/// classification head, and deterministic.
Tensor toy_model(const transformer::BatchInput& in) {
  Tensor out({in.batch, 2});
  for (std::size_t b = 0; b < in.batch; ++b) {
    float sum = 0.0f;
    for (std::size_t j = 0; j < in.seq; ++j)
      sum += static_cast<float>(in.token_ids[b * in.seq + j]);
    out.at(b, 0) = sum;
    out.at(b, 1) = static_cast<float>(in.seq);
  }
  return out;
}

/// Records every batch the run function sees.
struct BatchRecorder {
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> calls;  // (batch, seq)

  Batcher::RunFn fn() {
    return [this](const transformer::BatchInput& in) {
      {
        std::lock_guard<std::mutex> lk(mu);
        calls.emplace_back(in.batch, in.seq);
      }
      return toy_model(in);
    };
  }
};

/// Waits on `q`, then drains it into a fresh vector (the batcher recycles
/// one instead).
std::vector<Submission> drain(
    RequestQueue& q,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  std::vector<Submission> out;
  q.wait(deadline);
  q.drain(out);
  return out;
}

// ------------------------------------------------------- request queue ---

TEST(RequestQueue, SubmitDrainRoundtrip) {
  StatsLedger ledger;
  RequestQueue q(ledger);
  PendingResult r = q.submit(make_request(1, 4));
  EXPECT_TRUE(r.valid());
  EXPECT_FALSE(r.ready());
  EXPECT_EQ(q.depth(), 1u);

  auto drained = drain(q, std::nullopt);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].input.seq, 4u);
  EXPECT_EQ(q.depth(), 0u);

  ASSERT_TRUE(drained[0].state->claim());
  drained[0].state->set_value(Tensor({1, 2}));
  EXPECT_TRUE(r.ready());
  const Tensor t = r.get();
  EXPECT_EQ(t.dim(0), 1u);
}

TEST(RequestQueue, SubmitAfterCloseRejects) {
  StatsLedger ledger;
  RequestQueue q(ledger);
  q.close();
  PendingResult r = q.submit(make_request(1, 4));
  EXPECT_TRUE(r.ready());
  EXPECT_THROW(r.get(), RequestCancelled);
}

TEST(RequestQueue, WaitDrainHonorsDeadline) {
  StatsLedger ledger;
  RequestQueue q(ledger);
  const auto t0 = std::chrono::steady_clock::now();
  auto drained = drain(q, t0 + 20ms);
  EXPECT_TRUE(drained.empty());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 20ms);
}

TEST(RequestQueue, CancelQueuedRequest) {
  StatsLedger ledger;
  RequestQueue q(ledger);
  PendingResult r = q.submit(make_request(1, 4));
  EXPECT_TRUE(r.cancel());
  EXPECT_THROW(r.get(), RequestCancelled);
  // The scheduler-side claim must fail so the batcher skips it.
  auto drained = drain(q, std::nullopt);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_FALSE(drained[0].state->claim());
}

TEST(PendingResult, SecondGetThrowsLogicError) {
  // get() moves the logits out; a second get() must throw std::logic_error
  // instead of handing back a moved-from tensor — including through a copy
  // of the handle, since copies share the result state.
  StatsLedger ledger;
  RequestQueue q(ledger);
  PendingResult r = q.submit(make_request(1, 4));
  PendingResult copy = r;
  auto drained = drain(q, std::nullopt);
  ASSERT_TRUE(drained[0].state->claim());
  drained[0].state->set_value(toy_model(drained[0].input));
  const Tensor t = r.get();
  EXPECT_EQ(t.dim(0), 1u);
  EXPECT_THROW(r.get(), std::logic_error);
  EXPECT_THROW(copy.get(), std::logic_error);
  // The handle stays ready/waitable; only the one-shot value is spent.
  EXPECT_TRUE(r.ready());
}

TEST(PendingResult, ErrorResultsRethrowOnEveryGet) {
  // Unlike the one-shot value path, a rejected request's error must stay
  // observable: each get() rethrows the same stored exception.
  StatsLedger ledger;
  RequestQueue q(ledger);
  PendingResult r = q.submit(make_request(1, 4));
  EXPECT_TRUE(r.cancel());
  EXPECT_THROW(r.get(), RequestCancelled);
  EXPECT_THROW(r.get(), RequestCancelled);
}

TEST(RequestQueue, CancelAfterClaimFails) {
  StatsLedger ledger;
  RequestQueue q(ledger);
  PendingResult r = q.submit(make_request(1, 4));
  auto drained = drain(q, std::nullopt);
  ASSERT_TRUE(drained[0].state->claim());
  EXPECT_FALSE(r.cancel());
  drained[0].state->set_value(Tensor({1, 2}));
  EXPECT_NO_THROW(r.get());
}

// ------------------------------------------ on_ready (async completion) ---
// The network front-end routes results back to connections through
// on_ready; these regressions pin the contract it leans on (exactly-once,
// immediate-if-done, capture release, resolved-after-submitter-gone).

TEST(PendingResultOnReady, FiresExactlyOnceOnEveryResolutionPath) {
  // Value path.
  {
    StatsLedger ledger;
    RequestQueue q(ledger);
    PendingResult r = q.submit(make_request(1, 4));
    std::atomic<int> fired{0};
    r.on_ready([&fired] { fired.fetch_add(1); });
    auto drained = drain(q, std::nullopt);
    ASSERT_TRUE(drained[0].state->claim());
    drained[0].state->set_value(toy_model(drained[0].input));
    EXPECT_EQ(fired.load(), 1);
    EXPECT_NO_THROW(r.get());
    EXPECT_EQ(fired.load(), 1);  // get() must not re-fire it
  }
  // Error path.
  {
    StatsLedger ledger;
    RequestQueue q(ledger);
    PendingResult r = q.submit(make_request(1, 4));
    std::atomic<int> fired{0};
    r.on_ready([&fired] { fired.fetch_add(1); });
    auto drained = drain(q, std::nullopt);
    ASSERT_TRUE(drained[0].state->claim());
    drained[0].state->set_error(
        std::make_exception_ptr(std::runtime_error("boom")));
    EXPECT_EQ(fired.load(), 1);
    EXPECT_THROW(r.get(), std::runtime_error);
    EXPECT_EQ(fired.load(), 1);
  }
  // Cancel path: the canceller's thread runs the callback.
  {
    StatsLedger ledger;
    RequestQueue q(ledger);
    PendingResult r = q.submit(make_request(1, 4));
    std::atomic<int> fired{0};
    r.on_ready([&fired] { fired.fetch_add(1); });
    EXPECT_TRUE(r.cancel());
    EXPECT_EQ(fired.load(), 1);
    EXPECT_FALSE(r.cancel());  // second cancel resolves nothing
    EXPECT_EQ(fired.load(), 1);
  }
  // Eviction path (reject-oldest shed fires the victim's callback).
  {
    StatsLedger ledger;
    RequestQueue q(ledger, {/*max_queue_depth=*/1, ShedPolicy::kRejectOldest});
    PendingResult victim = q.submit(make_request(1, 4));
    std::atomic<int> fired{0};
    victim.on_ready([&fired] { fired.fetch_add(1); });
    PendingResult usurper = q.submit(make_request(1, 4));
    EXPECT_EQ(fired.load(), 1);
    EXPECT_THROW(victim.get(), ServerOverloaded);
    EXPECT_EQ(fired.load(), 1);
  }
  // Shutdown drain: the stopper rejects what is still queued.
  {
    StatsLedger ledger;
    RequestQueue q(ledger);
    PendingResult r = q.submit(make_request(1, 4));
    std::atomic<int> fired{0};
    r.on_ready([&fired] { fired.fetch_add(1); });
    q.close();
    auto drained = drain(q, std::nullopt);
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_TRUE(drained[0].state->reject_if_queued(
        std::make_exception_ptr(RequestCancelled("serve: shutting down"))));
    EXPECT_EQ(fired.load(), 1);
    EXPECT_THROW(r.get(), RequestCancelled);
  }
}

TEST(PendingResultOnReady, RunsImmediatelyWhenAlreadyResolved) {
  StatsLedger ledger;
  RequestQueue q(ledger);
  PendingResult r = q.submit(make_request(1, 4));
  EXPECT_TRUE(r.cancel());
  std::atomic<int> fired{0};
  r.on_ready([&fired] { fired.fetch_add(1); });
  EXPECT_EQ(fired.load(), 1);  // on the registering thread, synchronously
}

TEST(PendingResultOnReady, RegistrationMisuseThrows) {
  StatsLedger ledger;
  RequestQueue q(ledger);
  PendingResult r = q.submit(make_request(1, 4));
  EXPECT_THROW(r.on_ready(nullptr), std::invalid_argument);
  r.on_ready([] {});
  EXPECT_THROW(r.on_ready([] {}), std::logic_error);  // at most one callback
  // Misuse must not have resolved or broken the request.
  EXPECT_FALSE(r.ready());
  EXPECT_TRUE(r.cancel());
}

TEST(PendingResultOnReady, CapturesReleasedRightAfterInvocation) {
  // The callback's captures must be destroyed as soon as it has run — a
  // callback pinning a resource (here: a shared_ptr) must not keep it alive
  // until the queue or the handle dies.
  StatsLedger ledger;
  RequestQueue q(ledger);
  PendingResult r = q.submit(make_request(1, 4));
  auto pinned = std::make_shared<int>(42);
  std::weak_ptr<int> watch = pinned;
  r.on_ready([held = std::move(pinned)] { (void)*held; });
  EXPECT_FALSE(watch.expired());  // held by the registered callback
  EXPECT_TRUE(r.cancel());
  EXPECT_TRUE(watch.expired());  // released the moment it fired
}

TEST(PendingResultOnReady, ResolveAfterSubmitterGoneNeverTouchesFreedState) {
  // The network session registers callbacks holding a weak_ptr to itself; a
  // request resolving after the session died must observe an expired
  // weak_ptr and fall back to shared counters — never the freed session.
  // Under ASan this regression pins the absence of use-after-free.
  struct Submitter {
    std::atomic<int>& delivered;
    explicit Submitter(std::atomic<int>& d) : delivered(d) {}
    void complete() { delivered.fetch_add(1); }
  };
  std::atomic<int> delivered{0};
  auto dropped = std::make_shared<std::atomic<int>>(0);

  StatsLedger ledger;
  RequestQueue q(ledger);
  PendingResult r = q.submit(make_request(1, 4));
  auto submitter = std::make_shared<Submitter>(delivered);
  r.on_ready([weak = std::weak_ptr<Submitter>(submitter), dropped] {
    if (auto s = weak.lock())
      s->complete();
    else
      dropped->fetch_add(1);
  });
  submitter.reset();  // the owning connection dies with the request in flight

  auto drained = drain(q, std::nullopt);
  ASSERT_TRUE(drained[0].state->claim());
  drained[0].state->set_value(toy_model(drained[0].input));  // resolve late
  EXPECT_EQ(delivered.load(), 0);
  EXPECT_EQ(dropped->load(), 1);
}

// --------------------------------------------------- admission control ---

TEST(RequestQueueAdmission, RejectNewShedsTheIncomingRequest) {
  StatsLedger ledger;
  RequestQueue q(ledger, {/*max_queue_depth=*/2, ShedPolicy::kRejectNew});
  PendingResult r1 = q.submit(make_request(1, 4));
  EXPECT_FALSE(q.overloaded());
  PendingResult r2 = q.submit(make_request(1, 4));
  EXPECT_EQ(ledger.snapshot().submitted, 2u);
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_TRUE(q.overloaded());

  PendingResult r3 = q.submit(make_request(1, 4));
  const SlotStats st = ledger.snapshot();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.rejected_overload, 1u);
  EXPECT_TRUE(r3.ready());
  EXPECT_THROW(r3.get(), ServerOverloaded);
  // The queued requests are untouched and the depth bound held.
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.depths().peak, 2u);
  EXPECT_FALSE(r1.ready());
  EXPECT_FALSE(r2.ready());
}

TEST(RequestQueueAdmission, RejectOldestEvictsToAdmit) {
  StatsLedger ledger;
  RequestQueue q(ledger, {/*max_queue_depth=*/2, ShedPolicy::kRejectOldest});
  PendingResult r1 = q.submit(make_request(1, 4, 1));
  PendingResult r2 = q.submit(make_request(1, 4, 2));
  PendingResult r3 = q.submit(make_request(1, 4, 3));
  // r3 was admitted and r1 reclassified from submitted to an overload shed.
  const SlotStats st = ledger.snapshot();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.rejected_overload, 1u);
  EXPECT_EQ(st.cancelled, 0u);
  // The oldest request was shed with ServerOverloaded; the new one queued.
  EXPECT_THROW(r1.get(), ServerOverloaded);
  EXPECT_EQ(q.depth(), 2u);
  auto drained = drain(q, std::nullopt);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].input.token_ids[0], 2);
  EXPECT_EQ(drained[1].input.token_ids[0], 3);
  (void)r2;
}

TEST(RequestQueueAdmission, RejectOldestReportsCancelledEvictions) {
  // An evicted entry that was already cancelled frees its slot but must be
  // reported as cancelled, not as an overload shed — it already resolved
  // with RequestCancelled and the scheduler will never drain it.
  StatsLedger ledger;
  RequestQueue q(ledger, {/*max_queue_depth=*/2, ShedPolicy::kRejectOldest});
  PendingResult r1 = q.submit(make_request(1, 4, 1));
  PendingResult r2 = q.submit(make_request(1, 4, 2));
  EXPECT_TRUE(r1.cancel());
  PendingResult r3 = q.submit(make_request(1, 4, 3));
  const SlotStats st = ledger.snapshot();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.rejected_overload, 0u);
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_THROW(r1.get(), RequestCancelled);  // the original cancel sticks
  EXPECT_EQ(q.depth(), 2u);
  (void)r2;
  (void)r3;
}

TEST(RequestQueueAdmission, DepthAccountingUnderConcurrentSubmitDrain) {
  // depths().peak is a true high-water mark of depth(): with producers and
  // a draining consumer racing, depth() <= depths().peak at every sample
  // (both update atomically under the queue mutex, and peak only grows),
  // and after everything drains depth() is exactly 0.
  StatsLedger ledger;
  RequestQueue q(ledger);
  constexpr int kProducers = 3, kPerProducer = 40;
  std::atomic<std::size_t> drained_total{0};
  std::atomic<bool> stop_sampling{false};

  std::thread consumer([&] {
    while (drained_total.load() < kProducers * kPerProducer) {
      auto batch = drain(q, std::chrono::steady_clock::now() + 1ms);
      for (auto& sub : batch) {
        ASSERT_TRUE(sub.state->claim());
        sub.state->set_value(toy_model(sub.input));
      }
      drained_total.fetch_add(batch.size());
    }
  });
  std::thread sampler([&] {
    while (!stop_sampling.load()) {
      const std::size_t d = q.depth();
      // Read peak after depth: peak is monotonic and was >= d when d was
      // sampled, so the inequality must hold at every interleaving.
      ASSERT_LE(d, q.depths().peak);
      ASSERT_LE(d, static_cast<std::size_t>(kProducers * kPerProducer));
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> producers;
  std::vector<std::vector<PendingResult>> results(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i)
        results[static_cast<std::size_t>(p)].push_back(
            q.submit(make_request(1, 4, p * 100 + i)));
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();
  stop_sampling.store(true);
  sampler.join();

  EXPECT_EQ(q.depth(), 0u);
  EXPECT_GE(q.depths().peak, 1u);
  EXPECT_LE(q.depths().peak,
            static_cast<std::size_t>(kProducers * kPerProducer));
  for (auto& rs : results)
    for (auto& r : rs) EXPECT_NO_THROW(r.get());
}

TEST(RequestQueueAdmission, DepthsSnapshotIsInternallyConsistent) {
  // Regression for the stats-snapshot race: reading depth and peak as two
  // lock acquisitions lets a submit land in between,
  // yielding an impossible depth > peak pair. depths() takes both under
  // one lock, so depth <= peak must hold in EVERY snapshot — hammer it
  // while producers and a consumer churn the queue.
  StatsLedger ledger;
  RequestQueue q(ledger);
  constexpr int kProducers = 3, kPerProducer = 60;
  std::atomic<std::size_t> drained_total{0};
  std::atomic<bool> stop_sampling{false};

  std::thread consumer([&] {
    while (drained_total.load() < kProducers * kPerProducer) {
      auto batch = drain(q, std::chrono::steady_clock::now() + 1ms);
      for (auto& sub : batch) {
        ASSERT_TRUE(sub.state->claim());
        sub.state->set_value(toy_model(sub.input));
      }
      drained_total.fetch_add(batch.size());
    }
  });
  std::thread sampler([&] {
    while (!stop_sampling.load()) {
      const RequestQueue::Depths d = q.depths();
      ASSERT_LE(d.depth, d.peak);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> producers;
  std::vector<std::vector<PendingResult>> results(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i)
        results[static_cast<std::size_t>(p)].push_back(
            q.submit(make_request(1, 4, p * 100 + i)));
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();
  stop_sampling.store(true);
  sampler.join();

  const RequestQueue::Depths final_d = q.depths();
  EXPECT_EQ(final_d.depth, 0u);
  EXPECT_GE(final_d.peak, 1u);
  for (auto& rs : results)
    for (auto& r : rs) EXPECT_NO_THROW(r.get());
}

// ------------------------------------------------------------- batcher ---

TEST(Batcher, MergesSameSeqUpToMaxBatch) {
  StatsLedger ledger;
  runtime::BufferPool pool;
  RequestQueue q(ledger);
  BatchRecorder rec;
  {
    // Huge max_wait: only the max_batch threshold can flush.
    Batcher b("test", {/*max_batch=*/4, /*max_wait=*/10min}, q, ledger, pool,
              rec.fn());
    std::vector<PendingResult> rs;
    for (int i = 0; i < 4; ++i) rs.push_back(q.submit(make_request(1, 8, i)));
    for (auto& r : rs) r.wait();
    // Each result row must be the request's own: sum == token * seq.
    for (int i = 0; i < 4; ++i) {
      Tensor t = rs[static_cast<std::size_t>(i)].get();
      ASSERT_EQ(t.dim(0), 1u);
      EXPECT_EQ(t.at(0, 0), static_cast<float>(i * 8));
    }
  }
  // All four merged into one model call of batch 4 (they were queued
  // together before the scheduler drained).
  std::lock_guard<std::mutex> lk(rec.mu);
  ASSERT_GE(rec.calls.size(), 1u);
  std::size_t total = 0;
  for (auto& c : rec.calls) {
    EXPECT_LE(c.first, 4u);
    EXPECT_EQ(c.second, 8u);
    total += c.first;
  }
  EXPECT_EQ(total, 4u);
}

TEST(Batcher, DifferentSeqNeverMerge) {
  StatsLedger ledger;
  runtime::BufferPool pool;
  RequestQueue q(ledger);
  BatchRecorder rec;
  {
    Batcher b("test", {/*max_batch=*/8, /*max_wait=*/1ms}, q, ledger, pool,
              rec.fn());
    PendingResult a = q.submit(make_request(1, 4));
    PendingResult c = q.submit(make_request(1, 6));
    Tensor ta = a.get(), tc = c.get();
    EXPECT_EQ(ta.at(0, 1), 4.0f);
    EXPECT_EQ(tc.at(0, 1), 6.0f);
  }
  std::lock_guard<std::mutex> lk(rec.mu);
  for (auto& c : rec.calls) EXPECT_EQ(c.first, 1u);  // never merged
}

TEST(Batcher, MaxWaitFlushesUnderfullBucket) {
  StatsLedger ledger;
  runtime::BufferPool pool;
  RequestQueue q(ledger);
  BatchRecorder rec;
  Batcher b("test", {/*max_batch=*/64, /*max_wait=*/2ms}, q, ledger, pool,
            rec.fn());
  PendingResult r = q.submit(make_request(1, 8));
  // Nothing else arrives; the 2ms deadline must flush the lone request.
  EXPECT_TRUE(r.wait_for(2s));
  EXPECT_NO_THROW(r.get());
}

TEST(Batcher, MultiSequenceRequestsStayWhole) {
  StatsLedger ledger;
  runtime::BufferPool pool;
  RequestQueue q(ledger);
  BatchRecorder rec;
  {
    Batcher b("test", {/*max_batch=*/4, /*max_wait=*/10min}, q, ledger, pool,
              rec.fn());
    // 3 + 3 sequences with max_batch 4: requests must not split, so the
    // scheduler runs them as two batches of 3 (3+3 > 4).
    PendingResult a = q.submit(make_request(3, 8, 2));
    PendingResult c = q.submit(make_request(3, 8, 5));
    q.close();  // drain mode flushes both
    Tensor ta = a.get(), tc = c.get();
    ASSERT_EQ(ta.dim(0), 3u);
    ASSERT_EQ(tc.dim(0), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(ta.at(i, 0), 16.0f);
      EXPECT_EQ(tc.at(i, 0), 40.0f);
    }
  }
  std::lock_guard<std::mutex> lk(rec.mu);
  for (auto& c : rec.calls) EXPECT_LE(c.first, 4u);
}

TEST(Batcher, OversizeRequestStillRuns) {
  StatsLedger ledger;
  runtime::BufferPool pool;
  RequestQueue q(ledger);
  BatchRecorder rec;
  Batcher b("test", {/*max_batch=*/2, /*max_wait=*/1ms}, q, ledger, pool,
            rec.fn());
  PendingResult r = q.submit(make_request(5, 8, 1));
  Tensor t = r.get();
  EXPECT_EQ(t.dim(0), 5u);
}

TEST(Batcher, SoloFallbackIsolatesPoisonedBatch) {
  StatsLedger ledger;
  runtime::BufferPool pool;
  RequestQueue q(ledger);
  // Model that rejects any batch containing a negative token.
  std::atomic<int> calls{0};
  Batcher::RunFn poisonable = [&](const transformer::BatchInput& in) {
    calls.fetch_add(1);
    for (int t : in.token_ids)
      if (t < 0) throw std::out_of_range("bad token " + std::to_string(t));
    return toy_model(in);
  };
  Batcher b("test", {/*max_batch=*/3, /*max_wait=*/10min}, q, ledger, pool,
            poisonable);
  PendingResult good1 = q.submit(make_request(1, 8, 3));
  PendingResult bad = q.submit(make_request(1, 8, -7));
  PendingResult good2 = q.submit(make_request(1, 8, 4));
  // The merged batch throws; the solo fallback must reject only `bad`.
  Tensor t1 = good1.get();
  EXPECT_EQ(t1.at(0, 0), 24.0f);
  Tensor t2 = good2.get();
  EXPECT_EQ(t2.at(0, 0), 32.0f);
  try {
    bad.get();
    FAIL() << "poisoned request must throw";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("bad token -7"), std::string::npos);
  }
}

TEST(Batcher, StopDrainsEverything) {
  StatsLedger ledger;
  runtime::BufferPool pool;
  RequestQueue q(ledger);
  BatchRecorder rec;
  Batcher b("test", {/*max_batch=*/64, /*max_wait=*/10min}, q, ledger, pool,
            rec.fn());
  std::vector<PendingResult> rs;
  for (int i = 0; i < 10; ++i) rs.push_back(q.submit(make_request(1, 8, i)));
  b.stop();  // must flush the under-full bucket before joining
  for (auto& r : rs) {
    EXPECT_TRUE(r.ready());
    EXPECT_NO_THROW(r.get());
  }
}

TEST(Batcher, CancelledRequestSkippedByScheduler) {
  StatsLedger ledger;
  runtime::BufferPool pool;
  RequestQueue q(ledger);
  BatchRecorder rec;
  Batcher b("test", {/*max_batch=*/2, /*max_wait=*/2ms}, q, ledger, pool,
            rec.fn());
  PendingResult victim = q.submit(make_request(1, 8, 1));
  EXPECT_TRUE(victim.cancel());
  PendingResult a = q.submit(make_request(1, 8, 2));
  PendingResult c = q.submit(make_request(1, 8, 3));
  EXPECT_NO_THROW(a.get());
  EXPECT_NO_THROW(c.get());
  EXPECT_THROW(victim.get(), RequestCancelled);
  std::lock_guard<std::mutex> lk(rec.mu);
  for (auto& call : rec.calls) EXPECT_LE(call.first, 2u);
}

TEST(Batcher, SparseArrivalsFlushEarly) {
  // One request every 300ms against a 200ms max_wait: every gap misses.
  // The hit rate starts at 1 and loses a quarter of its distance to 0 per
  // miss (0.75, 0.56, 0.42), so requests 1-3 wait out the deadline and
  // requests 4 and 5 flush as soon as they are drained.
  StatsLedger ledger;
  runtime::BufferPool pool;
  RequestQueue q(ledger);
  BatchRecorder rec;
  constexpr auto kMaxWait = 200ms;
  Batcher b("test", {/*max_batch=*/64, /*max_wait=*/kMaxWait}, q, ledger, pool,
            rec.fn());
  auto next = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_until(next);
    const auto t0 = std::chrono::steady_clock::now();
    next = t0 + 300ms;
    PendingResult r = q.submit(make_request(1, 8, i));
    ASSERT_TRUE(r.wait_for(5s)) << "request " << i;
    const auto waited = std::chrono::steady_clock::now() - t0;
    if (i < 3) {
      EXPECT_GE(waited, kMaxWait) << "request " << i;
    } else {
      EXPECT_LT(waited, kMaxWait / 2) << "request " << i;
    }
    EXPECT_NO_THROW(r.get());
  }
  EXPECT_GT(ledger.snapshot().batches_flushed_early, 0u);
}

TEST(Batcher, ClusteredArrivalsStillMerge) {
  // Closed-loop-like traffic: bursts of 4 same-seq requests, 200ms apart,
  // against a 50ms max_wait. One gap in four misses, which keeps the hit
  // rate above 1/2, so every burst waits for its batch-mates and runs as
  // one batch of 4.
  StatsLedger ledger;
  runtime::BufferPool pool;
  RequestQueue q(ledger);
  BatchRecorder rec;
  {
    Batcher b("test", {/*max_batch=*/8, /*max_wait=*/50ms}, q, ledger, pool,
              rec.fn());
    for (int burst = 0; burst < 4; ++burst) {
      if (burst > 0) std::this_thread::sleep_for(200ms);
      std::vector<PendingResult> rs;
      for (int i = 0; i < 4; ++i)
        rs.push_back(q.submit(make_request(1, 8, burst * 4 + i)));
      for (auto& r : rs) EXPECT_NO_THROW(r.get());
    }
  }
  std::lock_guard<std::mutex> lk(rec.mu);
  ASSERT_EQ(rec.calls.size(), 4u);
  for (auto& c : rec.calls) EXPECT_EQ(c.first, 4u);
  EXPECT_EQ(ledger.snapshot().batches_flushed_early, 0u);
}

// ----------------------------------------------------- inline submits ---

/// A run function whose first call blocks until open() — long enough for a
/// test to act while a batch cycle is held — and that records the thread
/// each call ran on, keyed by the first token of the batch.
struct GatedRun {
  std::latch entered{1};
  std::latch gate{1};
  std::mutex mu;
  std::vector<std::pair<int, std::thread::id>> calls;
  std::function<Tensor(const transformer::BatchInput&)> model = toy_model;

  Batcher::RunFn fn() {
    return [this](const transformer::BatchInput& in) {
      bool first = false;
      {
        std::lock_guard<std::mutex> lk(mu);
        first = calls.empty();
        calls.emplace_back(in.token_ids.front(), std::this_thread::get_id());
      }
      if (first) {
        entered.count_down();
        gate.wait();
      }
      return model(in);
    };
  }
  void open() { gate.count_down(); }
  std::thread::id thread_of(int first_token) {
    std::lock_guard<std::mutex> lk(mu);
    for (const auto& c : calls)
      if (c.first == first_token) return c.second;
    return {};
  }
};

TEST(BatcherInline, IdleSlotRunsTheRequestOnTheSubmittingThread) {
  StatsLedger ledger;
  runtime::BufferPool pool;
  RequestQueue q(ledger);
  std::thread::id ran_on;
  Batcher b("test", {/*max_batch=*/8, /*max_wait=*/0us}, q, ledger, pool,
            [&](const transformer::BatchInput& in) {
              ran_on = std::this_thread::get_id();
              return toy_model(in);
            });
  PendingResult r = b.submit(make_request(1, 8, 3));
  // Resolved before submit returned, on this thread, with no queueing.
  EXPECT_TRUE(r.ready());
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(r.get().at(0, 0), 24.0f);
  EXPECT_EQ(q.depths().peak, 0u);
  const SlotStats s = ledger.snapshot();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.batches, 1u);
}

TEST(BatcherInline, WaitingBucketQueuesForTheScheduler) {
  // A cold bucket with a real max_wait is not sparse: the request would
  // wait for batch-mates, so it is queued, and max_batch then flushes it
  // together with the next one.
  StatsLedger ledger;
  runtime::BufferPool pool;
  RequestQueue q(ledger);
  BatchRecorder rec;
  Batcher b("test", {/*max_batch=*/2, /*max_wait=*/10min}, q, ledger, pool,
            rec.fn());
  PendingResult a = b.submit(make_request(1, 8, 1));
  PendingResult c = b.submit(make_request(1, 8, 2));
  EXPECT_EQ(a.get().at(0, 0), 8.0f);
  EXPECT_EQ(c.get().at(0, 0), 16.0f);
  std::lock_guard<std::mutex> lk(rec.mu);
  ASSERT_EQ(rec.calls.size(), 1u);
  EXPECT_EQ(rec.calls[0].first, 2u);
}

TEST(BatcherInline, BusyCycleQueuesForTheSchedulerAndMatchesDirectBits) {
  // Hold the slot's cycle: a helper thread's request runs inline and blocks
  // in the model. A submit meanwhile must not run inline; it queues, the
  // scheduler runs it once the cycle is free, and its logits are the bits
  // of a direct InferenceModel::logits call.
  using namespace nnlut::transformer;
  ModelConfig cfg = ModelConfig::roberta_like();
  cfg.vocab = 32;
  cfg.hidden = 16;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.ffn = 32;
  cfg.max_seq = 12;
  Rng rng(91);
  const TaskModel model(cfg, HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(model.config().act);
  InferenceModel served(model, nl);
  InferenceModel direct(model, nl);
  Workspace ws;

  StatsLedger ledger;
  runtime::BufferPool pool;
  RequestQueue q(ledger);
  GatedRun run;
  run.model = [&](const BatchInput& in) { return served.logits(in, ws); };
  Batcher b("test", {/*max_batch=*/8, /*max_wait=*/0us}, q, ledger, pool,
            run.fn());

  PendingResult held;
  std::thread holder([&] { held = b.submit(make_request(1, 8, 1)); });
  run.entered.wait();

  BatchInput in = make_request(1, 8, 2);
  in.token_ids = {2, 5, 7, 11, 13, 17, 19, 23};
  PendingResult queued = b.submit(in);
  // The cycle is held, so the scheduler cannot even drain it yet.
  EXPECT_FALSE(queued.ready());
  EXPECT_EQ(q.depth(), 1u);

  run.open();
  holder.join();
  EXPECT_TRUE(held.ready());
  const Tensor got = queued.get();
  const std::thread::id ran_on = run.thread_of(2);
  EXPECT_NE(ran_on, std::thread::id{});
  EXPECT_NE(ran_on, std::this_thread::get_id());
  EXPECT_NE(ran_on, run.thread_of(1));  // not the holder either

  const Tensor want = direct.logits(in);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::size_t i = 0; i < want.size(); ++i) {
    std::uint32_t g = 0, w = 0;
    std::memcpy(&g, got.data() + i, sizeof g);
    std::memcpy(&w, want.data() + i, sizeof w);
    ASSERT_EQ(g, w) << "elem " << i;
  }
  EXPECT_EQ(ledger.snapshot().completed, 2u);
}

TEST(BatcherInline, ResubmitFromAResolveCallbackCompletes) {
  // A request resolved inside a batch cycle runs its on_ready callback
  // there. A callback that submits to the same slot again must neither
  // deadlock nor re-lock the cycle it runs in: it queues, and the
  // scheduler's next cycle serves it.
  StatsLedger ledger;
  runtime::BufferPool pool;
  RequestQueue q(ledger);
  GatedRun run;
  Batcher b("test", {/*max_batch=*/8, /*max_wait=*/0us}, q, ledger, pool,
            run.fn());

  // Queue `first` behind a held cycle, so its callback is registered before
  // it resolves and fires on the scheduler, inside the cycle.
  PendingResult held;
  std::thread holder([&] { held = b.submit(make_request(1, 8, 1)); });
  run.entered.wait();
  PendingResult first = b.submit(make_request(1, 8, 2));
  PendingResult second;
  std::thread::id callback_on;
  std::latch resubmitted(1);
  first.on_ready([&] {
    callback_on = std::this_thread::get_id();
    second = b.submit(make_request(1, 8, 3));
    resubmitted.count_down();
  });
  run.open();
  holder.join();

  resubmitted.wait();
  EXPECT_NE(callback_on, std::this_thread::get_id());
  EXPECT_EQ(first.get().at(0, 0), 16.0f);
  EXPECT_EQ(second.get().at(0, 0), 24.0f);
  EXPECT_EQ(held.get().at(0, 0), 8.0f);
  EXPECT_EQ(run.thread_of(3), run.thread_of(2));  // both on the scheduler
  b.stop();
  const SlotStats s = ledger.snapshot();
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.completed, 3u);
}

// ------------------------------------------------------------ histogram ---

// quantile() linearly interpolates within the log2 bucket holding the rank,
// the way PromQL's histogram_quantile() reads the scraped buckets.
TEST(LatencyHistogram, QuantilesFromBuckets) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.50), 0.0);  // empty
  for (int i = 0; i < 90; ++i) h.record(3us);    // bucket [2,4)
  for (int i = 0; i < 10; ++i) h.record(1000us);  // bucket [512,1024)
  EXPECT_EQ(h.count(), 100u);

  // The 50th of 90 observations in [2,4) sits 50/90 of the way through the
  // bucket; the 95th lands halfway through [512,1024).
  EXPECT_NEAR(h.quantile(0.50), 2.0 + 2.0 * (50.0 / 90.0), 1e-9);
  EXPECT_NEAR(h.quantile(0.95), 512.0 + 0.5 * 512.0, 1e-9);
  // A rank that exhausts a bucket reads exactly its upper edge, and no
  // quantile leaves the bucket that holds its rank.
  EXPECT_EQ(h.quantile(0.90), 4.0);
  EXPECT_EQ(h.quantile(1.00), 1024.0);
  EXPECT_LE(h.quantile(0.50), LatencyHistogram::bucket_upper_us(1));
  EXPECT_GE(h.quantile(0.95), LatencyHistogram::bucket_upper_us(8));
}

// The last bucket is the scrape's +Inf bucket. histogram_quantile() answers
// a rank there with the highest finite bound (2^31 µs) rather than
// extrapolating past it; quantile() must agree.
TEST(LatencyHistogram, OverflowBucketReadsHighestFiniteBound) {
  const double highest_finite =
      LatencyHistogram::bucket_upper_us(LatencyHistogram::kBuckets - 2);
  EXPECT_EQ(highest_finite, 2147483648.0);  // 2^31

  LatencyHistogram h;
  h.record(std::chrono::microseconds(std::int64_t{1} << 32));
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.quantile(0.50), highest_finite);
  EXPECT_EQ(h.quantile(1.00), highest_finite);

  // Ranks below the overflow bucket still interpolate.
  h.record(3us);
  EXPECT_NEAR(h.quantile(0.25), 2.0 + 2.0 * 0.5, 1e-9);
  EXPECT_EQ(h.quantile(0.95), highest_finite);
}

TEST(LatencyHistogram, SumMergeAndBuckets) {
  LatencyHistogram a, b;
  a.record(3us);
  a.record(3us);
  b.record(1000us);
  EXPECT_EQ(a.sum_us(), 6u);
  EXPECT_EQ(b.sum_us(), 1000u);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum_us(), 1006u);
  EXPECT_EQ(a.bucket_count(1), 2u);  // [2,4)
  EXPECT_EQ(a.bucket_count(9), 1u);  // [512,1024)
  EXPECT_EQ(LatencyHistogram::bucket_upper_us(1), 4.0);
  EXPECT_EQ(LatencyHistogram::bucket_upper_us(9), 1024.0);
}

// The ledger decomposes each request's latency into pipeline stages; the
// snapshot carries the raw per-stage histogram copies the metrics registry
// scrapes, and readers derive quantiles and means from them.
TEST(StatsLedger, StageDecomposition) {
  StatsLedger ledger;
  StageLatency st;
  st.queue_wait = 3us;
  st.batch_wait = 10us;
  st.exec = 100us;
  st.resolve = 5us;
  st.total = 118us;
  for (int i = 0; i < 4; ++i) ledger.record_done(st, /*ok=*/true);
  const SlotStats s = ledger.snapshot();
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.hist_queue_wait.count(), 4u);
  EXPECT_EQ(s.hist_exec.count(), 4u);
  EXPECT_EQ(s.hist_exec.sum_us() / s.hist_exec.count(), 100u);
  EXPECT_EQ(s.hist_total.count(), 4u);
  EXPECT_EQ(s.hist_total.sum_us(), 4u * 118u);
  EXPECT_EQ(s.hist_queue_wait.bucket_count(1), 4u);   // 3us -> [2,4)
  EXPECT_EQ(s.hist_exec.bucket_count(6), 4u);         // 100us -> [64,128)
  // Stage quantiles stay inside their bucket.
  EXPECT_GE(s.hist_exec.quantile(0.50), 64.0);
  EXPECT_LE(s.hist_exec.quantile(0.50), 128.0);
  EXPECT_GE(s.hist_queue_wait.quantile(0.95), 2.0);
  EXPECT_LE(s.hist_queue_wait.quantile(0.95), 4.0);
}

}  // namespace
}  // namespace nnlut::serve
