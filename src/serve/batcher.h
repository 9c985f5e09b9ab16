// Dynamic batch former: buckets a slot's requests by sequence length and
// flushes a bucket as a single merged BatchInput when it holds max_batch
// sequences or its oldest request has waited max_wait.
//
// max_wait is an upper bound, not a fixed delay: a bucket whose arrivals
// rarely come within max_wait of each other flushes at once. Each bucket
// keeps, across flushes, an EWMA of "this arrival came within max_wait of
// the previous same-seq one" (its hit rate, starting at 1 so a cold bucket
// waits as before); an under-full bucket whose hit rate has fallen below
// 1/2 is flushed without waiting. Buckets are only looked at between
// executions, so arrivals during an execution still batch.
//
// Run to completion at light load: a batch cycle runs on one of two kinds
// of thread. The slot's scheduler thread drains the queue and runs cycles
// for everything queued. A thread calling submit() runs the cycle itself
// when the slot is idle and the request would be flushed alone at once:
// the cycle lock is free, the queue is empty (nothing queued is bypassed),
// the request's bucket is empty, and the bucket would flush it on arrival
// (sparse, max_wait 0, or the request alone fills max_batch). That saves
// the scheduler hand-off; everything else is queued and batched exactly
// as before. A thread already inside a cycle (a resolve callback that
// submits again) always queues.
//
// Determinism: only requests with identical `seq` merge, and the merged
// input is the row-wise concatenation of the member requests. Every kernel
// under InferenceModel::logits is independent per batch element (matmul
// output rows, attention rows offset by batch index, softmax/LayerNorm
// rows), so the rows a request gets back from a merged batch are
// BIT-IDENTICAL to running it alone — batching changes scheduling, never
// results, and neither does which thread runs the cycle.
//
// Error isolation: if a merged batch throws, the batcher falls back to
// running each member solo, so an error rejects only the request that owns
// it while the rest still complete (with identical bits, per the contract
// above). The scheduler thread survives any request error.
//
// Concurrency: one Mutex, the cycle lock, guards the buckets, the staging
// vectors and the right to call `run` (so also whatever `run` owns, such
// as the slot's Workspace): at most one cycle runs at a time. Requests
// resolve inside the cycle. The queue, ledger and pool lock internally;
// lock order is cycle lock, then queue mutex. `stopped_` is an atomic flag
// whose exchange() makes stop() idempotent.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"
#include "runtime/buffer_pool.h"
#include "serve/request_queue.h"
#include "serve/stats.h"
#include "transformer/infer.h"

namespace nnlut::serve {

/// Per-model serving configuration. The batching knobs are what the slot's
/// Batcher runs; the matmul mode and admission control configure the slot's
/// InferenceModel and RequestQueue.
struct SlotConfig {
  /// Flush threshold, counted in sequences (a request with batch=k
  /// contributes k). A request larger than max_batch still runs, alone.
  /// 1 disables aggregation; 0 is read as 1.
  std::size_t max_batch = 32;
  /// Upper bound on how long the oldest request in a bucket may wait before
  /// the bucket is flushed even if under-full; a bucket whose arrivals
  /// rarely come within it flushes at once. 0 flushes every drain cycle
  /// (latency floor, no aggregation beyond what arrives together).
  std::chrono::microseconds max_wait{2000};
  /// Matmul precision of the slot's InferenceModel.
  transformer::MatmulMode matmul = transformer::MatmulMode::kFp32;
  /// Bounded queue depth + shed policy; default unbounded.
  AdmissionConfig admission = {};
};

class Batcher {
 public:
  /// `run` maps a merged BatchInput to logits ([batch, outputs] or
  /// [batch*seq, outputs] — any leading dim divisible by batch). It runs
  /// under the cycle lock, on the scheduler thread or on a submitting
  /// thread, never on two threads at once.
  using RunFn = std::function<Tensor(const transformer::BatchInput&)>;

  /// Starts the scheduler thread of model `model_id`, named
  /// "nnlut-sched-<model_id>", or "ns-<model_id>" when the 15-char Linux
  /// thread-name limit would otherwise truncate the model id away, so
  /// concurrent slots stay distinguishable in profiles and TSan reports.
  /// `queue`, `ledger` and `pool` must outlive the batcher. The ledger
  /// observes execution from whichever thread runs the cycle: record_batch
  /// per model invocation, record_done per resolved request,
  /// record_cancelled per drained-but-cancelled request, record_early_flush
  /// per bucket chunk flushed on its hit rate before max_wait. Result
  /// slices of merged batches draw their storage from `pool`, so each
  /// piece's slab returns for reuse when the client destroys the tensor.
  Batcher(std::string_view model_id, const SlotConfig& cfg,
          RequestQueue& queue, StatsLedger& ledger, runtime::BufferPool& pool,
          RunFn run);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// The config the batcher runs: `cfg` with max_batch 0 read as 1.
  const SlotConfig& config() const { return cfg_; }

  /// Admit `in` through the queue. When the slot is idle and the request
  /// would be flushed alone at once (see the header comment), the calling
  /// thread runs its batch cycle before returning, so the result is ready
  /// on return; otherwise the request is queued for the scheduler.
  PendingResult submit(transformer::BatchInput in);

  /// Close the queue, execute everything still pending, join the scheduler
  /// thread. Idempotent. A request a submitter is running itself was
  /// admitted before the close, and the scheduler's last cycle waits for it.
  void stop();

 private:
  struct Bucket {
    std::vector<Submission> items;
    std::size_t sequences = 0;  // sum of items[i].input.batch
    // Arrival history, kept while the bucket is empty: the last same-seq
    // enqueue time and the EWMA hit rate of gaps within max_wait.
    std::optional<std::chrono::steady_clock::time_point> last_arrival;
    double hit_rate = 1.0;
  };

  void loop();
  /// One batch cycle, shared by the scheduler and an inline submitter:
  /// moves arrivals_ into their buckets, then flushes full buckets, buckets
  /// whose oldest member waited out max_wait, sparse buckets and, when
  /// `closed`, everything still buffered.
  void cycle(bool closed) NNLUT_REQUIRES(mu_);
  /// True when `in`, arriving at `now`, would leave its (empty) bucket in
  /// the next cycle's flush pass.
  bool flushes_alone(const transformer::BatchInput& in,
                     std::chrono::steady_clock::time_point now) const
      NNLUT_REQUIRES(mu_);
  /// `b`'s hit rate once an arrival at `arrival` is counted.
  double hit_rate_after(const Bucket& b,
                        std::chrono::steady_clock::time_point arrival) const;
  /// The nearest flush deadline over all buckets, if any holds a request.
  std::optional<std::chrono::steady_clock::time_point> next_deadline() const
      NNLUT_REQUIRES(mu_);
  /// Execute up to max_batch sequences from the front of `bucket`.
  void flush_chunk(Bucket& bucket) NNLUT_REQUIRES(mu_);
  /// Runs the submissions in chunk_ (cleared on return).
  void execute() NNLUT_REQUIRES(mu_);
  /// Resolve-side accounting for one request: stage-decomposed latency into
  /// the ledger, plus the request's lifecycle trace spans (queue-wait /
  /// batch-wait / exec / resolve, correlated by sub.id). `exec_start` /
  /// `exec_end` bracket the model invocation that served this request.
  void finish(const Submission& sub, bool ok,
              std::chrono::steady_clock::time_point exec_start,
              std::chrono::steady_clock::time_point exec_end);

  const SlotConfig cfg_;
  RequestQueue& queue_;
  StatsLedger& ledger_;
  runtime::BufferPool& pool_;
  Mutex mu_;  // the cycle lock
  RunFn run_ NNLUT_GUARDED_BY(mu_);
  // Keyed by seq, one entry per distinct seq ever seen (never erased, so
  // the arrival history survives flushes).
  std::map<std::size_t, Bucket> buckets_ NNLUT_GUARDED_BY(mu_);
  // Staging, recycled across cycles so the drain -> bucket -> flush ->
  // merge path reuses its vector capacity instead of reallocating per
  // batch.
  std::vector<Submission> arrivals_ NNLUT_GUARDED_BY(mu_);  // cycle input
  std::vector<Submission> chunk_ NNLUT_GUARDED_BY(mu_);  // flush -> execute
  std::vector<Submission> live_ NNLUT_GUARDED_BY(mu_);   // claim() survivors
  transformer::BatchInput merged_ NNLUT_GUARDED_BY(mu_);  // row concat
  std::thread scheduler_;
  std::atomic<bool> stopped_{false};  // first stop() wins; later calls no-op
};

}  // namespace nnlut::serve
