// Thread-safe submission queue for the serving subsystem. Clients enqueue
// tokenized requests (a BatchInput of one or more fixed-length sequences)
// and receive a PendingResult — a promise/future pair over the logits
// Tensor with cancellation and per-request error propagation. The batcher's
// scheduler thread is the single consumer of queued requests: it blocks in
// wait() until work arrives, a flush deadline passes, or the queue closes,
// then drain()s. A submitter that runs an idle slot's request itself still
// admits it here (submit with `run_here`), so admission and its accounting
// have one owner whichever thread executes the request.
//
// Lifecycle of a request:
//   submit() -> kQueued -> claim() by the executing thread -> kRunning
//            -> set_value / set_error -> done (get() returns / throws)
// cancel() succeeds only in kQueued: the result is rejected immediately and
// the scheduler discards the submission when it drains it. A request that
// already entered a batch runs to completion.
//
// Admission control: an AdmissionConfig bounds the queue depth. At the
// bound, ShedPolicy::kRejectNew refuses the incoming request and
// kRejectOldest evicts the oldest queued request to admit the new one;
// either way the shed request's PendingResult resolves with
// ServerOverloaded, so under overload every submission still resolves as
// exactly one of: completed, failed, cancelled, or ServerOverloaded.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/thread_annotations.h"
#include "serve/stats.h"
#include "tensor/tensor.h"
#include "transformer/encoder.h"

namespace nnlut::serve {

namespace detail {

/// Shared promise/future state for one request. All transitions happen
/// under `mu`; waiters block on `cv`.
class ResultState {
 public:
  enum class Phase { kQueued, kRunning, kDone };

  /// Scheduler side: transition kQueued -> kRunning. Returns false if the
  /// request was cancelled (already done) and must be skipped.
  bool claim();

  /// Fulfil with logits / reject with an error. Reject works from any
  /// not-done phase (cancel rejects a queued request, the batcher rejects a
  /// running one).
  void set_value(Tensor logits);
  void set_error(std::exception_ptr err);

  /// Admission-control eviction: reject with `err` only if the request is
  /// still queued. Returns false when it already resolved (i.e. was
  /// cancelled) so the caller can account for it correctly.
  bool reject_if_queued(std::exception_ptr err);

  /// Client side.
  bool cancel();  // true if the request was still queued and is now rejected
  void wait() const;
  bool wait_for(std::chrono::microseconds timeout) const;
  bool done() const;
  /// Register `cb` to run EXACTLY ONCE when the request resolves — by
  /// set_value, set_error, reject_if_queued (eviction / shutdown drain) or
  /// cancel — on whichever thread performs the resolving transition. If the
  /// request already resolved, `cb` runs immediately on the calling thread.
  /// Invariants the network front-end leans on:
  ///   - `cb` is invoked OUTSIDE the state's mutex, so it may take its own
  ///     locks, call done()/take(), or re-enter the queue freely.
  ///   - `cb` is destroyed right after it runs (its captures are released),
  ///     so a callback holding a weak_ptr to its submitter neither keeps
  ///     the submitter alive nor touches it after expiry — the resolved-
  ///     after-submitter-gone contract pinned by serve_test.
  /// At most one callback per request: a second registration throws
  /// std::logic_error; a null callback throws std::invalid_argument.
  void on_done(std::function<void()> cb);
  /// Blocks until done; throws the stored error if rejected. The logits
  /// move out exactly once: a second take() (from this handle or any copy
  /// sharing the state) throws std::logic_error instead of returning a
  /// moved-from tensor. Error results stay rethrowable any number of times.
  Tensor take();

 private:
  mutable Mutex mu_;
  mutable CondVar cv_;
  Phase phase_ NNLUT_GUARDED_BY(mu_) = Phase::kQueued;
  bool taken_ NNLUT_GUARDED_BY(mu_) = false;  // value moved out by take()
  Tensor value_ NNLUT_GUARDED_BY(mu_);
  std::exception_ptr error_ NNLUT_GUARDED_BY(mu_);
  /// Pending completion hook; moved out (captures released) by the
  /// resolving transition and invoked after mu_ is dropped.
  std::function<void()> done_cb_ NNLUT_GUARDED_BY(mu_);
  bool done_cb_registered_ NNLUT_GUARDED_BY(mu_) = false;
};

}  // namespace detail

/// Raised into a PendingResult when the request is cancelled or the queue
/// shuts down before execution.
class RequestCancelled : public std::runtime_error {
 public:
  explicit RequestCancelled(const std::string& what)
      : std::runtime_error(what) {}
};

/// Raised into a PendingResult shed by admission control: the queue was at
/// its depth bound and the request was either refused at submit
/// (ShedPolicy::kRejectNew) or evicted while queued (kRejectOldest).
class ServerOverloaded : public std::runtime_error {
 public:
  explicit ServerOverloaded(const std::string& what)
      : std::runtime_error(what) {}
};

/// What to shed when a bounded queue is full.
enum class ShedPolicy {
  kRejectNew,     // refuse the incoming request (favors queued work)
  kRejectOldest,  // evict the oldest queued request (favors fresh work)
};

/// Per-slot admission control, enforced inside RequestQueue::submit under
/// the queue mutex so depth accounting and shedding are atomic.
struct AdmissionConfig {
  /// Maximum requests queued (not yet drained by the scheduler);
  /// 0 = unbounded.
  std::size_t max_queue_depth = 0;
  ShedPolicy shed_policy = ShedPolicy::kRejectNew;
};

/// Client-side handle on a submitted request. Copyable (copies share the
/// underlying state); default-constructed handles are invalid.
class PendingResult {
 public:
  PendingResult() = default;

  bool valid() const { return state_ != nullptr; }
  /// Result (or error) is available; get() will not block.
  bool ready() const;
  void wait() const;
  /// False on timeout.
  bool wait_for(std::chrono::microseconds timeout) const;
  /// Blocks until done, then returns the logits or rethrows the request's
  /// error (std::out_of_range from validation, RequestCancelled,
  /// ServerOverloaded, ...). Moves the tensor out — the result is one-shot:
  /// a second get() on this handle (or on any copy, since copies share the
  /// state) throws std::logic_error rather than silently returning a
  /// moved-from tensor. A rejected request's error, by contrast, rethrows
  /// on every get().
  Tensor get();
  /// Best-effort cancel: true if the request had not started executing and
  /// is now rejected with RequestCancelled; false if it already ran (its
  /// result stays available) or already finished.
  bool cancel();
  /// Async completion: run `cb` exactly once when the request resolves
  /// (immediately, on this thread, if it already has). See
  /// detail::ResultState::on_done for the invocation contract. The network
  /// front-end uses this to route results back to the owning connection
  /// without a blocked thread per request. Throws std::logic_error on an
  /// invalid handle or a second registration.
  void on_ready(std::function<void()> cb);

 private:
  friend class RequestQueue;
  explicit PendingResult(std::shared_ptr<detail::ResultState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::ResultState> state_;
};

/// One admitted request, handed to the batcher by drain() (or straight back
/// to an inline submitter by submit()).
struct Submission {
  std::shared_ptr<detail::ResultState> state;
  transformer::BatchInput input;
  std::chrono::steady_clock::time_point enqueued;
  /// Stamped by the batcher when this entry enters a batch cycle; epoch
  /// (i.e. unset) until then. Feeds the queue-wait stage histogram and
  /// trace spans.
  std::chrono::steady_clock::time_point dequeued{};
  /// PROCESS-GLOBAL request id (atomic counter across every queue), so
  /// trace spans from different threads — and different model slots —
  /// correlate unambiguously by id.
  std::uint64_t id = 0;
};

class RequestQueue {
 public:
  /// `ledger` (must outlive the queue) receives ALL submit-side accounting
  /// — admitted / overload rejects / shutdown rejects / kRejectOldest
  /// evictions — recorded under the queue mutex, atomically with the queue
  /// operation itself. That ordering guarantees (a) a request's
  /// record_admitted always precedes any record for its later fate (done,
  /// cancel drain, eviction), so counters can never transiently underflow,
  /// and (b) a client observing its rejection or eviction always finds it
  /// already counted in a stats snapshot. Validation rejects never reach
  /// the queue; the caller records those itself. `admission` bounds the
  /// queue depth (0 = unbounded) and picks the shed policy applied at the
  /// bound.
  explicit RequestQueue(StatsLedger& ledger, AdmissionConfig admission = {});

  /// Admit a request. After close() the request is rejected immediately
  /// (the returned handle's get() throws RequestCancelled); at the depth
  /// bound, admission control sheds per the policy. Every outcome lands in
  /// the ledger. An admitted request is queued and the consumer woken —
  /// except when `run_here` is set and the queue is empty: then the
  /// admitted submission (id and enqueue stamp included) is moved into
  /// `*run_here` for the caller to execute itself, nothing is queued and
  /// the consumer is not woken, so a queued request is never bypassed.
  PendingResult submit(transformer::BatchInput in,
                       std::optional<Submission>* run_here = nullptr);

  /// Reject-and-enqueue-nothing variant: returns a handle already rejected
  /// with `err`. Used by the server front-end for failed validation.
  static PendingResult rejected(std::exception_ptr err);

  /// Stop accepting submissions and wake the consumer. Idempotent.
  void close();

  /// Requests currently queued (not yet drained).
  std::size_t depth() const;

  /// True when the queue is at (or over) its depth bound right now, i.e. a
  /// submit at this instant would shed. Always false when unbounded.
  bool overloaded() const;

  /// Consistent {depth, peak} pair taken under ONE lock acquisition, so a
  /// snapshot never reports depth > peak; peak is the high-water mark of
  /// depth() over the queue's lifetime.
  struct Depths {
    std::size_t depth = 0;
    std::size_t peak = 0;
  };
  Depths depths() const;

  /// Consumer side: block until the queue is non-empty, `deadline` passes,
  /// or close() is called. Takes nothing; drain() does.
  void wait(std::optional<std::chrono::steady_clock::time_point> deadline);

  /// Consumer side, non-blocking: clear `out` and move everything queued
  /// into it, reusing its capacity (the batcher drains into one long-lived
  /// vector, so its steady-state cycle performs no heap allocation of its
  /// own; the queue's deque nodes are submit-side and out of scope).
  /// Returns whether the queue is closed, read under the same lock: when it
  /// is, `out` holds the last request the queue will ever admit.
  bool drain(std::vector<Submission>& out);

 private:
  /// The one depth-bound test, shared by submit() and overloaded().
  bool at_depth_bound() const NNLUT_REQUIRES(mu_);

  const AdmissionConfig admission_;
  StatsLedger& ledger_;
  mutable Mutex mu_;
  mutable CondVar cv_;
  std::deque<Submission> items_ NNLUT_GUARDED_BY(mu_);
  bool closed_ NNLUT_GUARDED_BY(mu_) = false;
  std::size_t peak_depth_ NNLUT_GUARDED_BY(mu_) = 0;
};

}  // namespace nnlut::serve
