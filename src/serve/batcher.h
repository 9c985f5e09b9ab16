// Dynamic batch former: drains the request queue on a dedicated scheduler
// thread, buckets submissions by sequence length, and flushes a bucket as a
// single merged BatchInput when it holds max_batch sequences or its oldest
// request has waited max_wait.
//
// max_wait is an upper bound, not a fixed delay: a bucket whose arrivals
// rarely come within max_wait of each other flushes at once. Each bucket
// keeps, across flushes, an EWMA of "this arrival came within max_wait of
// the previous same-seq one" (its hit rate, starting at 1 so a cold bucket
// waits as before); an under-full bucket whose hit rate has fallen below
// 1/2 is flushed without waiting. The scheduler only looks at its buckets
// between executions, so arrivals during an execution still batch.
//
// Determinism: only requests with identical `seq` merge, and the merged
// input is the row-wise concatenation of the member requests. Every kernel
// under InferenceModel::logits is independent per batch element (matmul
// output rows, attention rows offset by batch index, softmax/LayerNorm
// rows), so the rows a request gets back from a merged batch are
// BIT-IDENTICAL to running it alone — batching changes scheduling, never
// results.
//
// Error isolation: if a merged batch throws, the batcher falls back to
// running each member solo, so an error rejects only the request that owns
// it while the rest still complete (with identical bits, per the contract
// above). The scheduler thread survives any request error.
//
// Concurrency story (why this class carries no GUARDED_BY annotations,
// unlike every other serve/ type — see core/thread_annotations.h): the
// batcher owns NO mutex. All staging state below is confined to the
// scheduler thread; the only cross-thread members are the borrowed
// RequestQueue, StatsLedger and BufferPool (each locks internally) and
// `stopped_`, an atomic flag whose exchange() makes stop() idempotent; the
// scheduler join() provides the happens-after edge for everything the
// final drain wrote.
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
  /// [batch*seq, outputs] — any leading dim divisible by batch). It is only
  /// ever invoked from the scheduler thread.
  using RunFn = std::function<Tensor(const transformer::BatchInput&)>;

  /// Starts the scheduler thread of model `model_id`, named
  /// "nnlut-sched-<model_id>", or "ns-<model_id>" when the 15-char Linux
  /// thread-name limit would otherwise truncate the model id away, so
  /// concurrent slots stay distinguishable in profiles and TSan reports.
  /// `queue`, `ledger` and `pool` must outlive the batcher. The ledger
  /// observes execution from the scheduler thread: record_batch per model
  /// invocation, record_done per resolved request, record_cancelled per
  /// drained-but-cancelled request, record_early_flush per bucket chunk
  /// flushed on its hit rate before max_wait. Result slices of merged
  /// batches draw their storage from `pool`, so each piece's slab returns
  /// for reuse when the client destroys the tensor.
  Batcher(std::string_view model_id, const SlotConfig& cfg,
          RequestQueue& queue, StatsLedger& ledger, runtime::BufferPool& pool,
          RunFn run);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// The config the scheduler runs: `cfg` with max_batch 0 read as 1.
  const SlotConfig& config() const { return cfg_; }

  /// Close the queue, execute everything still pending, join the scheduler
  /// thread. Idempotent.
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
  /// Execute up to max_batch sequences from the front of `bucket`.
  void flush_chunk(Bucket& bucket);
  /// Runs the submissions in chunk_ (cleared on return).
  void execute();
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
  RunFn run_;
  // Keyed by seq, one entry per distinct seq ever seen (never erased, so
  // the arrival history survives flushes); scheduler-only.
  std::map<std::size_t, Bucket> buckets_;
  // Scheduler-thread staging, recycled across cycles so the drain -> bucket
  // -> flush -> merge path reuses its vector capacity instead of
  // reallocating per batch. All scheduler-only state.
  std::vector<Submission> drained_;        // wait_drain target
  std::vector<Submission> chunk_;          // flush_chunk -> execute handoff
  std::vector<Submission> live_;           // claim() survivors
  transformer::BatchInput merged_;         // row-wise concatenation buffer
  std::thread scheduler_;
  std::atomic<bool> stopped_{false};  // first stop() wins; later calls no-op
};

}  // namespace nnlut::serve
