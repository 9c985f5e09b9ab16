// Serving statistics: every ModelSlot of the multi-model Engine owns one
// ledger, and EngineStats aggregates them.
//
// StatsLedger is the single mutex-guarded accounting object of the serving
// subsystem: the submit path records admission decisions, the thread that
// runs a batch cycle records execution events, and snapshot() produces a
// consistent SlotStats. Wall-clock exists only here, never in results.
//
// Reconciliation contract (exact after a full drain / shutdown):
//
//   submit() calls == submitted + rejected_validation
//                   + rejected_overload + rejected_shutdown
//   submitted      == completed + failed + cancelled
//
// The two reject families are disjoint: validation rejects never touched
// the queue; overload rejects are admission-control sheds (ServerOverloaded).
// Under ShedPolicy::kRejectOldest a shed victim was *previously* counted
// submitted, so record_shed_oldest() reclassifies it (submitted ->
// rejected_overload) to keep both identities exact.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "core/thread_annotations.h"
#include "runtime/buffer_pool.h"

namespace nnlut::serve {

/// Fixed-bucket log2 latency histogram: bucket i counts completions with
/// latency in [2^i, 2^(i+1)) microseconds (bucket 0 also takes 0 µs, the
/// last bucket everything above its lower edge). Allocation-free and O(1)
/// to record. Not thread-safe on its own; StatsLedger guards it.
///
/// quantile(q) is the one quantile reading: within-bucket LINEAR
/// INTERPOLATION, the estimate PromQL's histogram_quantile() computes from
/// the scraped buckets (including its rule for the overflow bucket).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  void record(std::chrono::microseconds latency);
  std::uint64_t count() const { return total_; }
  /// Sum of recorded latencies (µs) — the Prometheus histogram `_sum`.
  std::uint64_t sum_us() const { return sum_us_; }
  /// Point estimate (µs) at quantile q in [0, 1] via within-bucket linear
  /// interpolation, observations assumed uniform inside a bucket; 0 when
  /// empty. A rank in the overflow bucket reads as its lower edge, 2^31,
  /// the highest finite bound (histogram_quantile() returns that for +Inf).
  double quantile(double q) const;

  /// Raw bucket count (i in [0, kBuckets)).
  std::uint64_t bucket_count(std::size_t i) const { return counts_[i]; }
  /// Upper edge (µs) of bucket i: 2^(i+1).
  static double bucket_upper_us(std::size_t i) {
    return static_cast<double>(1ull << (i + 1));
  }

  /// Add another histogram's observations into this one (bucket-wise).
  /// EngineStats uses this to aggregate per-slot histograms.
  void merge(const LatencyHistogram& other);

 private:
  std::uint64_t counts_[kBuckets] = {};
  std::uint64_t total_ = 0;
  std::uint64_t sum_us_ = 0;
};

/// Stage decomposition of one served request's latency, measured by the
/// thread that ran its batch cycle (wall-clock lives only in serve//obs/):
///   queue_wait  submit (enqueue) -> taken into a batch cycle
///   batch_wait  drained -> its batch starts executing (bucket residence)
///   exec        model invocation (merged batch) wall time
///   resolve     execution done -> result handed to the waiting client
///   total       submit -> resolved (== the end-to-end latency histogram)
struct StageLatency {
  std::chrono::microseconds queue_wait{0};
  std::chrono::microseconds batch_wait{0};
  std::chrono::microseconds exec{0};
  std::chrono::microseconds resolve{0};
  std::chrono::microseconds total{0};
};

/// Snapshot of one model slot's serving counters since construction.
/// Latency is carried only as raw histograms; readers derive quantiles and
/// means at read time (hist_total.quantile(0.95), sum_us() / count()).
struct SlotStats {
  std::uint64_t submitted = 0;  // accepted into the queue
  std::uint64_t rejected = 0;   // all refusals: validation+overload+shutdown
  std::uint64_t rejected_validation = 0;  // malformed input, never queued
  std::uint64_t rejected_overload = 0;    // admission-control sheds
  std::uint64_t rejected_shutdown = 0;    // submit after/racing shutdown
  std::uint64_t completed = 0;  // resolved with logits
  std::uint64_t failed = 0;     // resolved with an execution error
  std::uint64_t cancelled = 0;  // withdrawn via cancel() before execution
  std::uint64_t batches = 0;    // model invocations
  // Under-full bucket chunks flushed before max_wait because their arrivals
  // rarely came within it (see serve/batcher.h).
  std::uint64_t batches_flushed_early = 0;
  double mean_batch_requests = 0.0;   // requests per model invocation
  double mean_batch_occupancy = 0.0;  // sequences per model invocation
  std::size_t queue_depth = 0;  // requests queued at snapshot time
  std::size_t peak_queue_depth = 0;

  // Per-stage latency histograms (see StageLatency for stage meanings);
  // hist_total is the end-to-end submit->resolve histogram.
  LatencyHistogram hist_queue_wait;
  LatencyHistogram hist_batch_wait;
  LatencyHistogram hist_exec;
  LatencyHistogram hist_resolve;
  LatencyHistogram hist_total;

  // Buffer-pool counters of the slot's memory path. pool_alloc_count is the
  // heap-miss count: acquisitions the pool had to serve with a fresh
  // allocation. A warmed slot serves every acquisition from its free lists,
  // so over a steady-state window the DELTA of pool_alloc_count is zero —
  // the property the memory bench and CI assert.
  std::uint64_t pool_alloc_count = 0;  // pool acquisitions that hit the heap
  std::uint64_t pool_reuse_count = 0;  // acquisitions served from free lists
  std::uint64_t pool_outstanding = 0;  // slabs currently out of the pool
  std::size_t pool_bytes_live = 0;     // outstanding + cached bytes
  std::size_t pool_bytes_peak = 0;     // high-water mark of bytes_live
};

/// Thread-safe serving counters + latency histogram for one model slot.
/// Submit-side records run on client threads, execution-side records on
/// the thread running the slot's batch cycle; one mutex covers both so
/// snapshots are consistent.
class StatsLedger {
 public:
  // --- submit path (client threads) ---
  void record_admitted();
  void record_rejected_validation();
  void record_rejected_overload();  // refused at the door (kRejectNew)
  void record_rejected_shutdown();
  /// kRejectOldest eviction: reclassify a previously-admitted request as an
  /// overload shed (submitted -> rejected_overload). The queue records this
  /// BEFORE resolving the victim's PendingResult, so a stats() snapshot
  /// taken after the victim observes ServerOverloaded always includes it.
  void record_shed_oldest();

  // --- execution path (batch cycle) ---
  /// After each executed batch: member request count and merged sequence
  /// count (occupancy).
  void record_batch(std::size_t requests, std::size_t sequences);
  /// An under-full bucket chunk flushed before max_wait on its hit rate.
  void record_early_flush();
  /// After each request resolves: its stage-decomposed latency and success
  /// flag. `stages.total` feeds the end-to-end histogram.
  void record_done(const StageLatency& stages, bool ok);
  /// A drained request found cancelled (it never executes and never reaches
  /// record_done) — keeps completion counters reconcilable.
  void record_cancelled();

  /// Consistent snapshot; queue depths are passed in by the owner (the
  /// queue keeps its own high-water mark), as are the buffer-pool counters.
  SlotStats snapshot(std::size_t queue_depth = 0,
                     std::size_t peak_queue_depth = 0,
                     const runtime::PoolStats& pool = {}) const;

 private:
  mutable Mutex mu_;
  std::uint64_t submitted_ NNLUT_GUARDED_BY(mu_) = 0;
  std::uint64_t rejected_validation_ NNLUT_GUARDED_BY(mu_) = 0;
  std::uint64_t rejected_overload_ NNLUT_GUARDED_BY(mu_) = 0;
  std::uint64_t rejected_shutdown_ NNLUT_GUARDED_BY(mu_) = 0;
  std::uint64_t completed_ NNLUT_GUARDED_BY(mu_) = 0;
  std::uint64_t failed_ NNLUT_GUARDED_BY(mu_) = 0;
  std::uint64_t cancelled_ NNLUT_GUARDED_BY(mu_) = 0;
  std::uint64_t batches_ NNLUT_GUARDED_BY(mu_) = 0;
  std::uint64_t batches_flushed_early_ NNLUT_GUARDED_BY(mu_) = 0;
  std::uint64_t batch_requests_ NNLUT_GUARDED_BY(mu_) = 0;
  std::uint64_t batch_sequences_ NNLUT_GUARDED_BY(mu_) = 0;
  LatencyHistogram latency_ NNLUT_GUARDED_BY(mu_);
  LatencyHistogram queue_wait_ NNLUT_GUARDED_BY(mu_);
  LatencyHistogram batch_wait_ NNLUT_GUARDED_BY(mu_);
  LatencyHistogram exec_ NNLUT_GUARDED_BY(mu_);
  LatencyHistogram resolve_ NNLUT_GUARDED_BY(mu_);
};

/// Engine-wide view: per-model slot snapshots plus an aggregate in which
/// counters sum and histograms merge bucket-wise, so the aggregate's
/// quantiles are those of the merged traffic.
struct EngineStats {
  std::map<std::string, SlotStats> models;
  SlotStats total;
  /// submit() calls naming a model_id that was never registered; these have
  /// no slot ledger to land in.
  std::uint64_t rejected_unknown_model = 0;
};

}  // namespace nnlut::serve
