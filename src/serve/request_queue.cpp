#include "serve/request_queue.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace nnlut::serve {

namespace {
// Process-global so request ids are unique across every queue (and so
// across model slots); trace viewers can then correlate a request's spans
// by id alone. Starts at 1: id 0 marks "no request" in span args.
std::atomic<std::uint64_t> g_next_request_id{1};
}  // namespace

namespace detail {

bool ResultState::claim() {
  MutexLock lk(mu_);
  if (phase_ != Phase::kQueued) return false;  // cancelled while queued
  phase_ = Phase::kRunning;
  return true;
}

void ResultState::set_value(Tensor logits) {
  std::function<void()> cb;
  {
    MutexLock lk(mu_);
    if (phase_ == Phase::kDone) return;
    value_ = std::move(logits);
    phase_ = Phase::kDone;
    cb = std::move(done_cb_);
    done_cb_ = nullptr;
  }
  cv_.notify_all();
  if (cb) cb();  // outside mu_, then destroyed: captures released here
}

void ResultState::set_error(std::exception_ptr err) {
  std::function<void()> cb;
  {
    MutexLock lk(mu_);
    if (phase_ == Phase::kDone) return;
    error_ = std::move(err);
    phase_ = Phase::kDone;
    cb = std::move(done_cb_);
    done_cb_ = nullptr;
  }
  cv_.notify_all();
  if (cb) cb();
}

bool ResultState::reject_if_queued(std::exception_ptr err) {
  std::function<void()> cb;
  {
    MutexLock lk(mu_);
    if (phase_ != Phase::kQueued) return false;  // already cancelled
    error_ = std::move(err);
    phase_ = Phase::kDone;
    cb = std::move(done_cb_);
    done_cb_ = nullptr;
  }
  cv_.notify_all();
  if (cb) cb();
  return true;
}

bool ResultState::cancel() {
  std::function<void()> cb;
  {
    MutexLock lk(mu_);
    if (phase_ != Phase::kQueued) return false;
    error_ = std::make_exception_ptr(
        RequestCancelled("serve: request cancelled before execution"));
    phase_ = Phase::kDone;
    cb = std::move(done_cb_);
    done_cb_ = nullptr;
  }
  cv_.notify_all();
  if (cb) cb();
  return true;
}

void ResultState::on_done(std::function<void()> cb) {
  if (!cb)
    throw std::invalid_argument("ResultState::on_done: null callback");
  bool fire_now = false;
  {
    MutexLock lk(mu_);
    if (done_cb_registered_)
      throw std::logic_error(
          "ResultState::on_done: a completion callback is already "
          "registered (at most one per request)");
    done_cb_registered_ = true;
    if (phase_ == Phase::kDone) {
      fire_now = true;  // run below, outside mu_
    } else {
      done_cb_ = std::move(cb);
    }
  }
  if (fire_now) cb();
}

void ResultState::wait() const {
  UniqueLock lk(mu_);
  while (phase_ != Phase::kDone) cv_.wait(lk);
}

bool ResultState::wait_for(std::chrono::microseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  UniqueLock lk(mu_);
  while (phase_ != Phase::kDone) {
    if (cv_.wait_until(lk, deadline) == std::cv_status::timeout)
      return phase_ == Phase::kDone;
  }
  return true;
}

bool ResultState::done() const {
  MutexLock lk(mu_);
  return phase_ == Phase::kDone;
}

Tensor ResultState::take() {
  UniqueLock lk(mu_);
  while (phase_ != Phase::kDone) cv_.wait(lk);
  if (error_) std::rethrow_exception(error_);
  if (taken_)
    throw std::logic_error(
        "PendingResult::get: result already taken (get() moves the logits "
        "out and may only be called once per request)");
  taken_ = true;
  return std::move(value_);
}

}  // namespace detail

bool PendingResult::ready() const { return state_ && state_->done(); }

void PendingResult::wait() const {
  if (!state_) throw std::logic_error("PendingResult::wait: invalid handle");
  state_->wait();
}

bool PendingResult::wait_for(std::chrono::microseconds timeout) const {
  if (!state_) throw std::logic_error("PendingResult::wait_for: invalid handle");
  return state_->wait_for(timeout);
}

Tensor PendingResult::get() {
  if (!state_) throw std::logic_error("PendingResult::get: invalid handle");
  return state_->take();
}

bool PendingResult::cancel() { return state_ && state_->cancel(); }

void PendingResult::on_ready(std::function<void()> cb) {
  if (!state_)
    throw std::logic_error("PendingResult::on_ready: invalid handle");
  state_->on_done(std::move(cb));
}

RequestQueue::RequestQueue(StatsLedger& ledger, AdmissionConfig admission)
    : admission_(admission), ledger_(ledger) {}

bool RequestQueue::at_depth_bound() const {
  return admission_.max_queue_depth > 0 &&
         items_.size() >= admission_.max_queue_depth;
}

PendingResult RequestQueue::submit(transformer::BatchInput in,
                                   std::optional<Submission>* run_here) {
  auto state = std::make_shared<detail::ResultState>();
  // Evicted states are rejected outside the queue mutex: set_error notifies
  // a client that may immediately re-submit (and take the same mutex).
  std::vector<std::shared_ptr<detail::ResultState>> evicted;
  enum class Refused { kNo, kClosed, kOverload } refused = Refused::kNo;
  bool queued = false;
  {
    MutexLock lk(mu_);
    if (closed_) {
      ledger_.record_rejected_shutdown();
      refused = Refused::kClosed;
    } else if (at_depth_bound() &&
               admission_.shed_policy == ShedPolicy::kRejectNew) {
      ledger_.record_rejected_overload();
      refused = Refused::kOverload;
    } else {
      // At the bound only kRejectOldest gets here: free exactly the slots
      // needed. An evicted entry that was already cancelled still frees its
      // slot but resolves as cancelled, not as an overload shed. Classify
      // and record the ledger HERE, before the victim's result resolves
      // below, so the victim's client never observes ServerOverloaded ahead
      // of the shed appearing in stats. (A cancel() racing the
      // classification can at worst swap one shed for one cancel in the
      // breakdown; the reconciliation totals stay exact either way.)
      while (at_depth_bound()) {
        auto victim = std::move(items_.front().state);
        items_.pop_front();
        if (victim->done()) {
          ledger_.record_cancelled();  // cancel already resolved it
        } else {
          ledger_.record_shed_oldest();
          evicted.push_back(std::move(victim));
        }
      }
      const std::uint64_t id =
          g_next_request_id.fetch_add(1, std::memory_order_relaxed);
      Submission sub{state, std::move(in), std::chrono::steady_clock::now(),
                     std::chrono::steady_clock::time_point{}, id};
      if (run_here != nullptr && items_.empty()) {
        run_here->emplace(std::move(sub));
      } else {
        items_.push_back(std::move(sub));
        peak_depth_ = std::max(peak_depth_, items_.size());
        queued = true;
      }
      ledger_.record_admitted();
      obs::instant("req.submit", id);
    }
  }
  if (queued) cv_.notify_all();
  for (auto& victim : evicted)
    victim->reject_if_queued(std::make_exception_ptr(
        ServerOverloaded("serve: queue full, oldest request shed "
                         "(ShedPolicy::kRejectOldest)")));
  if (refused == Refused::kClosed) {
    state->set_error(std::make_exception_ptr(
        RequestCancelled("serve: queue closed, request rejected")));
  } else if (refused == Refused::kOverload) {
    state->set_error(std::make_exception_ptr(ServerOverloaded(
        "serve: queue full, request rejected (ShedPolicy::kRejectNew)")));
  }
  return PendingResult(std::move(state));
}

PendingResult RequestQueue::rejected(std::exception_ptr err) {
  auto state = std::make_shared<detail::ResultState>();
  state->set_error(std::move(err));
  return PendingResult(std::move(state));
}

void RequestQueue::close() {
  {
    MutexLock lk(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t RequestQueue::depth() const {
  MutexLock lk(mu_);
  return items_.size();
}

bool RequestQueue::overloaded() const {
  // The network front-end asks this before every submit: an unbounded
  // queue (admission_ is const) answers without taking the lock.
  if (admission_.max_queue_depth == 0) return false;
  MutexLock lk(mu_);
  return at_depth_bound();
}

RequestQueue::Depths RequestQueue::depths() const {
  MutexLock lk(mu_);
  return Depths{items_.size(), peak_depth_};
}

void RequestQueue::wait(
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  UniqueLock lk(mu_);
  while (!closed_ && items_.empty()) {
    if (deadline) {
      if (cv_.wait_until(lk, *deadline) == std::cv_status::timeout) return;
    } else {
      cv_.wait(lk);
    }
  }
}

bool RequestQueue::drain(std::vector<Submission>& out) {
  out.clear();
  MutexLock lk(mu_);
  out.reserve(items_.size());
  while (!items_.empty()) {
    out.push_back(std::move(items_.front()));
    items_.pop_front();
  }
  return closed_;
}

}  // namespace nnlut::serve
