#include "serve/stats.h"

namespace nnlut::serve {

void LatencyHistogram::record(std::chrono::microseconds latency) {
  const std::uint64_t us =
      latency.count() < 0 ? 0 : static_cast<std::uint64_t>(latency.count());
  std::size_t bucket = 0;
  while (bucket + 1 < kBuckets && (1ull << (bucket + 1)) <= us) ++bucket;
  ++counts_[bucket];
  ++total_;
  sum_us_ += us;
}

double LatencyHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  const double target = q * static_cast<double>(total_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += counts_[b];
    if (static_cast<double>(seen) < target) continue;
    // PromQL's histogram_quantile() answers a rank in the +Inf bucket with
    // the highest finite bound; the overflow bucket is our +Inf.
    if (b + 1 == kBuckets) break;
    // The q-quantile lands in bucket b = [2^b, 2^(b+1)); place it by the
    // fraction of the bucket's mass below the target, observations assumed
    // uniform within the bucket. Bucket 0 spans [0, 2) so its lower edge is
    // treated as 0.
    const double lower = b == 0 ? 0.0 : static_cast<double>(1ull << b);
    const double upper = static_cast<double>(1ull << (b + 1));
    double frac = (target - before) / static_cast<double>(counts_[b]);
    if (frac < 0.0) frac = 0.0;
    if (frac > 1.0) frac = 1.0;
    return lower + frac * (upper - lower);
  }
  return bucket_upper_us(kBuckets - 2);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  total_ += other.total_;
  sum_us_ += other.sum_us_;
}

void StatsLedger::record_admitted() {
  MutexLock lk(mu_);
  ++submitted_;
}

void StatsLedger::record_shed_oldest() {
  MutexLock lk(mu_);
  // The victim was counted submitted when it was admitted; it resolves as
  // ServerOverloaded now.
  --submitted_;
  ++rejected_overload_;
}

void StatsLedger::record_rejected_validation() {
  MutexLock lk(mu_);
  ++rejected_validation_;
}

void StatsLedger::record_rejected_overload() {
  MutexLock lk(mu_);
  ++rejected_overload_;
}

void StatsLedger::record_rejected_shutdown() {
  MutexLock lk(mu_);
  ++rejected_shutdown_;
}

void StatsLedger::record_batch(std::size_t requests, std::size_t sequences) {
  MutexLock lk(mu_);
  ++batches_;
  batch_requests_ += requests;
  batch_sequences_ += sequences;
}

void StatsLedger::record_early_flush() {
  MutexLock lk(mu_);
  ++batches_flushed_early_;
}

void StatsLedger::record_done(const StageLatency& stages, bool ok) {
  MutexLock lk(mu_);
  if (ok) {
    ++completed_;
  } else {
    ++failed_;
  }
  latency_.record(stages.total);
  queue_wait_.record(stages.queue_wait);
  batch_wait_.record(stages.batch_wait);
  exec_.record(stages.exec);
  resolve_.record(stages.resolve);
}

void StatsLedger::record_cancelled() {
  MutexLock lk(mu_);
  ++cancelled_;
}

SlotStats StatsLedger::snapshot(std::size_t queue_depth,
                                std::size_t peak_queue_depth,
                                const runtime::PoolStats& pool) const {
  MutexLock lk(mu_);
  SlotStats s;
  s.submitted = submitted_;
  s.rejected_validation = rejected_validation_;
  s.rejected_overload = rejected_overload_;
  s.rejected_shutdown = rejected_shutdown_;
  s.rejected = rejected_validation_ + rejected_overload_ + rejected_shutdown_;
  s.completed = completed_;
  s.failed = failed_;
  s.cancelled = cancelled_;
  s.batches = batches_;
  s.batches_flushed_early = batches_flushed_early_;
  if (batches_ > 0) {
    s.mean_batch_requests =
        static_cast<double>(batch_requests_) / static_cast<double>(batches_);
    s.mean_batch_occupancy =
        static_cast<double>(batch_sequences_) / static_cast<double>(batches_);
  }
  s.queue_depth = queue_depth;
  s.peak_queue_depth = peak_queue_depth;
  s.hist_queue_wait = queue_wait_;
  s.hist_batch_wait = batch_wait_;
  s.hist_exec = exec_;
  s.hist_resolve = resolve_;
  s.hist_total = latency_;
  s.pool_alloc_count = pool.alloc_count;
  s.pool_reuse_count = pool.reuse_count;
  s.pool_outstanding = pool.outstanding;
  s.pool_bytes_live = pool.bytes_live;
  s.pool_bytes_peak = pool.bytes_peak;
  return s;
}

}  // namespace nnlut::serve
