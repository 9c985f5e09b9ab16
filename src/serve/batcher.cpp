#include "serve/batcher.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace nnlut::serve {

namespace {

// Weight of the newest arrival in a bucket's hit-rate EWMA.
constexpr double kHitRateAlpha = 0.25;
// An under-full bucket whose hit rate is below this flushes at once: a
// batch-mate within max_wait has become the exception, so waiting for one
// only adds latency.
constexpr double kFlushBelowHitRate = 0.5;

// Set while this thread runs a batch cycle of any slot. Requests resolve
// inside the cycle, so a resolve callback that submits again runs here; it
// must queue rather than try_lock a cycle lock its own thread may hold.
thread_local bool t_in_cycle = false;

class CycleScope {
 public:
  CycleScope() { t_in_cycle = true; }
  ~CycleScope() { t_in_cycle = false; }
  CycleScope(const CycleScope&) = delete;
  CycleScope& operator=(const CycleScope&) = delete;
};

SlotConfig normalized(SlotConfig cfg) {
  if (cfg.max_batch == 0) cfg.max_batch = 1;
  return cfg;
}

}  // namespace

Batcher::Batcher(std::string_view model_id, const SlotConfig& cfg,
                 RequestQueue& queue, StatsLedger& ledger,
                 runtime::BufferPool& pool, RunFn run)
    : cfg_(normalized(cfg)), queue_(queue), ledger_(ledger), pool_(pool),
      run_(std::move(run)) {
  std::string name = "nnlut-sched-" + std::string(model_id);
  if (name.size() > 15) name = "ns-" + std::string(model_id);
  scheduler_ = std::thread([this, name = std::move(name)] {
    runtime::set_current_thread_name(name.c_str());
    loop();
  });
}

Batcher::~Batcher() { stop(); }

void Batcher::stop() {
  if (stopped_.exchange(true)) return;
  queue_.close();
  if (scheduler_.joinable()) scheduler_.join();
}

PendingResult Batcher::submit(transformer::BatchInput in) {
  if (!t_in_cycle && mu_.try_lock()) {
    // Decide before admitting, so an inline attempt never leaves work in a
    // bucket whose deadline the sleeping scheduler does not know. The
    // decision reads the clock before the queue stamps the request, and a
    // later stamp only lowers the hit rate, so the cycle below flushes it.
    PendingResult result;
    try {
      if (flushes_alone(in, std::chrono::steady_clock::now())) {
        std::optional<Submission> mine;
        result = queue_.submit(std::move(in), &mine);
        if (mine) {
          arrivals_.push_back(std::move(*mine));
          cycle(/*closed=*/false);
        }
      }
    } catch (...) {
      mu_.unlock();
      throw;
    }
    mu_.unlock();
    if (result.valid()) return result;
  }
  return queue_.submit(std::move(in));
}

void Batcher::loop() {
  std::optional<std::chrono::steady_clock::time_point> deadline;
  for (;;) {
    // Sleep until new work, the nearest bucket flush deadline, or close.
    // An inline cycle meanwhile only empties buckets, so a deadline taken
    // under the previous cycle's lock is never later than the real one.
    queue_.wait(deadline);
    MutexLock lk(mu_);
    // Drain under the cycle lock: an inline submitter that finds the queue
    // empty then cannot overtake requests drained but not yet bucketed.
    const bool closed = queue_.drain(arrivals_);
    cycle(closed);
    // Closed: this drain took the last admitted request and the cycle
    // flushed every bucket. (Inline runs admit before the close and hold
    // the cycle lock until they finish, so none is still running.)
    if (closed) return;
    deadline = next_deadline();
  }
}

double Batcher::hit_rate_after(
    const Bucket& b, std::chrono::steady_clock::time_point arrival) const {
  if (!b.last_arrival) return b.hit_rate;
  const double hit = arrival - *b.last_arrival <= cfg_.max_wait ? 1.0 : 0.0;
  return b.hit_rate + kHitRateAlpha * (hit - b.hit_rate);
}

bool Batcher::flushes_alone(const transformer::BatchInput& in,
                            std::chrono::steady_clock::time_point now) const {
  const auto it = buckets_.find(in.seq);
  if (it != buckets_.end() && !it->second.items.empty()) return false;
  // Full on its own, or already due: an arrival at `now` with max_wait 0
  // has waited it out.
  if (in.batch >= cfg_.max_batch || now + cfg_.max_wait <= now) return true;
  // Sparse once this arrival is counted (a cold bucket starts at 1).
  return it != buckets_.end() &&
         hit_rate_after(it->second, now) < kFlushBelowHitRate;
}

std::optional<std::chrono::steady_clock::time_point> Batcher::next_deadline()
    const {
  std::optional<std::chrono::steady_clock::time_point> deadline;
  for (const auto& kv : buckets_) {
    if (kv.second.items.empty()) continue;
    const auto d = kv.second.items.front().enqueued + cfg_.max_wait;
    if (!deadline || d < *deadline) deadline = d;
  }
  return deadline;
}

void Batcher::cycle(bool closed) {
  const CycleScope in_cycle;
  if (!arrivals_.empty()) {
    // One stamp per cycle: every request bucketed together left the queue
    // at the same instant.
    obs::instant("batcher.drain", arrivals_.size());
    const auto drained_at = std::chrono::steady_clock::now();
    for (Submission& sub : arrivals_) {
      sub.dequeued = drained_at;
      Bucket& b = buckets_[sub.input.seq];
      b.hit_rate = hit_rate_after(b, sub.enqueued);
      b.last_arrival = sub.enqueued;
      b.sequences += sub.input.batch;
      b.items.push_back(std::move(sub));
    }
    arrivals_.clear();
  }

  // Flush buckets that reached the batch threshold.
  for (auto& kv : buckets_)
    while (kv.second.sequences >= cfg_.max_batch) flush_chunk(kv.second);

  // Flush buckets whose oldest member has waited out max_wait, buckets
  // whose arrivals rarely come within max_wait (flushed early) and, on
  // shutdown, everything still buffered.
  const auto now = std::chrono::steady_clock::now();
  for (auto& kv : buckets_) {
    Bucket& b = kv.second;
    const bool sparse = b.hit_rate < kFlushBelowHitRate;
    while (!b.items.empty()) {
      const bool due =
          closed || b.items.front().enqueued + cfg_.max_wait <= now;
      if (!due && !sparse) break;
      if (!due) ledger_.record_early_flush();
      flush_chunk(b);
    }
  }
}

void Batcher::flush_chunk(Bucket& bucket) {
  // Requests never split across batches: take whole requests from the front
  // until max_batch sequences are aboard. The first request always goes, so
  // one larger than max_batch still runs (alone).
  chunk_.clear();
  std::size_t seqs = 0;
  std::size_t taken = 0;
  while (taken < bucket.items.size()) {
    const std::size_t b = bucket.items[taken].input.batch;
    if (!chunk_.empty() && seqs + b > cfg_.max_batch) break;
    seqs += b;
    chunk_.push_back(std::move(bucket.items[taken]));
    ++taken;
    if (seqs >= cfg_.max_batch) break;
  }
  bucket.items.erase(bucket.items.begin(),
                     bucket.items.begin() + static_cast<std::ptrdiff_t>(taken));
  bucket.sequences -= seqs;
  execute();
}

// Stats records run BEFORE the result is released to the waiting client, so
// a stats() snapshot taken after get() returns always counts that request.
void Batcher::finish(const Submission& sub, bool ok,
                     std::chrono::steady_clock::time_point exec_start,
                     std::chrono::steady_clock::time_point exec_end) {
  const auto now = std::chrono::steady_clock::now();
  if (obs::trace_enabled()) {
    // Replay the request's lifecycle as four adjacent complete spans, all
    // carrying the process-global request id so a trace viewer can follow
    // one request across threads (its req.submit instant lands on the
    // client thread, these spans on the thread that ran the cycle: the
    // scheduler, or the client itself when it ran an idle slot's request).
    const std::uint64_t t0 = obs::trace_ns(sub.enqueued);
    const std::uint64_t t1 = obs::trace_ns(sub.dequeued);
    const std::uint64_t t2 = obs::trace_ns(exec_start);
    const std::uint64_t t3 = obs::trace_ns(exec_end);
    const std::uint64_t t4 = obs::trace_ns(now);
    obs::complete("req.queue_wait", t0, t1, sub.id);
    obs::complete("req.batch_wait", t1, t2, sub.id);
    obs::complete("req.exec", t2, t3, sub.id);
    obs::complete("req.resolve", t3, t4, sub.id);
  }
  const auto us = [](std::chrono::steady_clock::duration d) {
    return std::chrono::duration_cast<std::chrono::microseconds>(d);
  };
  StageLatency st;
  st.queue_wait = us(sub.dequeued - sub.enqueued);
  st.batch_wait = us(exec_start - sub.dequeued);
  st.exec = us(exec_end - exec_start);
  st.resolve = us(now - exec_end);
  st.total = us(now - sub.enqueued);
  ledger_.record_done(st, ok);
}

void Batcher::execute() {
  // Claim each member; requests cancelled while queued drop out here.
  std::vector<Submission>& live = live_;
  live.clear();
  live.reserve(chunk_.size());
  for (Submission& sub : chunk_) {
    if (sub.state->claim()) {
      live.push_back(std::move(sub));
    } else {
      obs::instant("req.cancelled", sub.id);
      ledger_.record_cancelled();
    }
  }
  chunk_.clear();
  if (live.empty()) return;

  const std::size_t seq = live.front().input.seq;
  std::size_t total_batch = 0;
  bool any_types = false;
  for (const Submission& s : live) {
    total_batch += s.input.batch;
    if (!s.input.type_ids.empty()) any_types = true;
  }

  // Merge: row-wise concatenation. encode() reads an empty type_ids as
  // all-zero segment ids, so zero-filling a member's missing type_ids keeps
  // its rows bit-identical when another member supplies real ones. merged_
  // is a long-lived staging buffer: clear() keeps the vectors' capacity, so
  // a warmed scheduler merges without allocating.
  const transformer::BatchInput* input;
  transformer::BatchInput& merged = merged_;
  merged.token_ids.clear();
  merged.type_ids.clear();
  if (live.size() == 1) {
    input = &live.front().input;
  } else {
    // Span id = member request count; the merged row-concat is the part of
    // batching that actually copies token data.
    obs::ScopedSpan merge_span("batch.merge", live.size());
    merged.batch = total_batch;
    merged.seq = seq;
    merged.token_ids.reserve(total_batch * seq);
    if (any_types) merged.type_ids.reserve(total_batch * seq);
    for (const Submission& s : live) {
      merged.token_ids.insert(merged.token_ids.end(), s.input.token_ids.begin(),
                              s.input.token_ids.end());
      if (any_types) {
        if (s.input.type_ids.empty()) {
          merged.type_ids.resize(merged.type_ids.size() +
                                 s.input.batch * s.input.seq);
        } else {
          merged.type_ids.insert(merged.type_ids.end(),
                                 s.input.type_ids.begin(),
                                 s.input.type_ids.end());
        }
      }
    }
    input = &merged;
  }

  Tensor out;
  std::exception_ptr batch_err;
  const auto exec_start = std::chrono::steady_clock::now();
  {
    // Span id = merged sequence count (batch occupancy).
    obs::ScopedSpan exec_span("batch.exec", total_batch);
    try {
      out = run_(*input);
      if (live.size() > 1 && (out.rank() != 2 || out.dim(0) % total_batch != 0))
        throw std::logic_error("serve: model returned an unsplittable shape");
    } catch (...) {
      batch_err = std::current_exception();
    }
  }
  const auto exec_end = std::chrono::steady_clock::now();

  if (!batch_err) {
    ledger_.record_batch(live.size(), total_batch);
    if (live.size() == 1) {
      Submission& s = live.front();
      finish(s, true, exec_start, exec_end);
      s.state->set_value(std::move(out));
    } else {
      // Slice each member's rows back out. Classification heads return one
      // row per sequence, span heads `seq` rows per sequence; either way the
      // merged tensor is the concatenation of the solo results.
      const std::size_t rows_per_seq = out.dim(0) / total_batch;
      const std::size_t cols = out.dim(1);
      std::size_t row = 0;
      for (Submission& s : live) {
        const std::size_t item_rows = s.input.batch * rows_per_seq;
        Tensor piece = Tensor::pooled({item_rows, cols}, &pool_);
        std::copy(out.data() + row * cols, out.data() + (row + item_rows) * cols,
                  piece.data());
        row += item_rows;
        finish(s, true, exec_start, exec_end);
        s.state->set_value(std::move(piece));
      }
    }
  } else if (live.size() == 1) {
    // Nothing to isolate: the request owns its error.
    finish(live.front(), false, exec_start, exec_end);
    live.front().state->set_error(batch_err);
  } else {
    // A member poisoned the batch (or the model rejected it whole): fall
    // back to solo execution so only the faulty request sees its error.
    // Each solo run gets its own exec window so the stage histograms and
    // req.exec spans reflect the run that actually served the request.
    for (Submission& s : live) {
      const auto solo_start = std::chrono::steady_clock::now();
      try {
        Tensor solo;
        {
          obs::ScopedSpan solo_span("batch.exec", s.input.batch);
          solo = run_(s.input);
        }
        ledger_.record_batch(1, s.input.batch);
        finish(s, true, solo_start, std::chrono::steady_clock::now());
        s.state->set_value(std::move(solo));
      } catch (...) {
        finish(s, false, solo_start, std::chrono::steady_clock::now());
        s.state->set_error(std::current_exception());
      }
    }
  }
  // Release the resolved states now (clients may be the last owners);
  // clear() keeps the vector's capacity for the next chunk.
  live.clear();
}

}  // namespace nnlut::serve
