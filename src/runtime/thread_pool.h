// Parallel runtime for the encoder hot path. NN-LUT's hardware evaluates
// independent rows on parallel comparator banks; the software analogue is a
// persistent worker pool that shards row blocks of the batched kernels
// (softmax_rows, layer_norm_rows, activation spans, matmul output rows).
//
// Determinism contract: parallel_for partitions [begin, end) into FIXED
// contiguous shards (static partitioning, one shard per pool lane, no
// work-stealing and no atomics in the result path). Every shard runs the
// existing single-thread kernel over its sub-range, so as long as items are
// independent — which every sharded call site guarantees row-wise — results
// are bit-identical to a single-threaded run for ANY pool size. Setting
// RuntimeConfig::threads = 1 recovers the exact serial execution path.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/lut_kernel_simd.h"
#include "core/thread_annotations.h"

namespace nnlut::runtime {

/// Non-owning callable reference, the zero-allocation replacement for
/// `const std::function&` on the kernel dispatch path: constructing a
/// std::function from a capturing lambda heap-allocates once its captures
/// outgrow the small-buffer slot, which put one hidden allocation on EVERY
/// parallel_for call — exactly the steady-state churn the buffer-pool work
/// eliminates elsewhere. A FunctionRef is two words (object pointer +
/// trampoline) and never allocates. The referenced callable must outlive
/// the call, which parallel_for/ThreadPool::run guarantee by blocking until
/// every shard drains.
template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  FunctionRef() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // NOLINT: implicit by design, mirrors std::function
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }
  explicit operator bool() const { return call_ != nullptr; }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

/// Process-wide runtime knobs. `threads` is the total number of execution
/// lanes (the calling thread counts as lane 0); 0 means
/// std::thread::hardware_concurrency(). Reconfiguring is safe at any time,
/// including while kernels are in flight on other threads (a serving loop
/// resizing its budget): in-flight kernels keep a handle on the pool they
/// started on and drain there; subsequent kernels see the new pool.
///
/// `simd` pins the ISA tier (scalar / AVX2 / AVX-512) of every kernel
/// family for the whole process; nullopt restores automatic CPUID + environment selection
/// (core/lut_kernel_simd.h). The two knobs compose as "shards across
/// cores, wide lanes within a shard": parallel_for splits rows over the
/// pool and each shard evaluates its block through the selected SIMD tier.
/// Results are bit-identical for every (threads, simd) combination.
struct RuntimeConfig {
  std::size_t threads = 0;
  std::optional<simd::SimdTier> simd = std::nullopt;
};

void set_runtime_config(const RuntimeConfig& cfg);
RuntimeConfig runtime_config();

/// Name the calling thread for profilers, TSan reports and /proc
/// (pthread_setname_np). Names longer than the platform limit (15 chars on
/// Linux) are truncated; a no-op on platforms without the facility. The
/// pool names its workers "nnlut-worker-N" and each serving scheduler is
/// named "nnlut-sched-<model>" (compacted to "ns-<model>" when the model
/// id would not fit).
void set_current_thread_name(const char* name);

/// Persistent pool of `lanes - 1` workers plus the calling thread. A job is
/// a shard function executed as fn(s) for s in [0, nshards); shard s runs on
/// lane s (the caller executes shard 0), which keeps the shard → thread
/// mapping fixed.
///
/// One orchestrator uses the workers at a time; concurrent orchestrators
/// (the per-model scheduler threads of a multi-model Engine, or a server
/// plus a direct caller) are admitted FAIRLY, in FIFO arrival order via a
/// ticket lock: a late orchestrator waits for its turn on the workers
/// instead of degrading to inline-serial execution, so N models sharing the
/// process pool each still get "shards across cores, wide within a shard"
/// and none can starve the others. Results are bit-identical either way —
/// admission order changes scheduling, never bits. Nested calls from inside
/// a shard still execute inline (they hold the workers already).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t lanes);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t lanes() const { return workers_.size() + 1; }

  /// `fn` is borrowed for the duration of the call only (run() blocks until
  /// every shard drains), so passing a stack lambda is safe and free.
  void run(std::size_t nshards, FunctionRef<void(std::size_t)> fn);

 private:
  void worker_loop(std::size_t lane);

  std::vector<std::thread> workers_;  // immutable after construction
  Mutex mu_;
  CondVar cv_start_;
  CondVar cv_done_;
  FunctionRef<void(std::size_t)> job_ NNLUT_GUARDED_BY(mu_);
  std::size_t job_shards_ NNLUT_GUARDED_BY(mu_) = 0;
  std::uint64_t epoch_ NNLUT_GUARDED_BY(mu_) = 0;
  std::size_t done_ NNLUT_GUARDED_BY(mu_) = 0;
  // First shard failure, rethrown by run().
  std::exception_ptr error_ NNLUT_GUARDED_BY(mu_);
  bool stop_ NNLUT_GUARDED_BY(mu_) = false;

  // FIFO ticket lock admitting one orchestrator at a time, in arrival
  // order. Kept separate from mu_ (the job mutex) so a waiting orchestrator
  // never contends with workers synchronizing shard completion; the two
  // mutexes are never held together.
  Mutex orch_mu_;
  CondVar cv_orch_;
  std::uint64_t orch_next_ticket_ NNLUT_GUARDED_BY(orch_mu_) = 0;
  std::uint64_t orch_serving_ NNLUT_GUARDED_BY(orch_mu_) = 0;
};

/// Acquire the process-wide pool, created lazily from the current
/// RuntimeConfig. The returned handle keeps the pool alive even if a
/// concurrent set_runtime_config retires it mid-job; the retired pool joins
/// its workers once the last in-flight holder releases it.
std::shared_ptr<ThreadPool> acquire_pool();

/// Process-wide pool execution counters, maintained with relaxed atomics
/// (readers may observe slightly stale values; the counters survive pool
/// rebuilds). `busy_lanes` is instantaneous occupancy — lanes executing a
/// shard at the moment of the read — the value the metrics registry
/// exposes as the occupancy gauge.
struct ThreadPoolStats {
  std::uint64_t jobs = 0;         // parallel jobs dispatched through run()
  std::uint64_t inline_runs = 0;  // run() calls that executed inline
  std::uint64_t shards = 0;       // shard executions, lane 0 included
  std::size_t lanes = 0;          // execution lanes of the current config
  std::size_t busy_lanes = 0;     // lanes inside a shard right now
};
ThreadPoolStats thread_pool_stats();

/// Shard [begin, end) into at most `lanes` contiguous blocks of at least
/// `grain` items each and run fn(block_begin, block_end) on each block.
/// Blocks are disjoint, cover the range exactly, and are assigned to fixed
/// lanes; when one block suffices it runs inline on the caller. Takes a
/// FunctionRef, so calling with a capturing lambda never allocates.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  FunctionRef<void(std::size_t, std::size_t)> fn);

/// Minimum per-shard workload (in scalar ops) under which forking a shard
/// costs more than it saves.
inline constexpr std::size_t kMinShardWork = 16384;

/// Grain (items per shard) so each shard carries >= kMinShardWork scalar ops
/// given the per-item cost, e.g. grain_for(ncols) for row-sharded kernels.
inline std::size_t grain_for(std::size_t work_per_item) {
  if (work_per_item == 0) return kMinShardWork;
  return (kMinShardWork + work_per_item - 1) / work_per_item;
}

}  // namespace nnlut::runtime
