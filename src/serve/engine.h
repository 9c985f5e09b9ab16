// Multi-model serving engine: a registry of named ModelSlots, each owning
// an InferenceModel, a RequestQueue with admission control, a StatsLedger
// and a Batcher (one scheduler thread per slot). The deployment shape the
// paper's premise generalizes to: one process, one shared thread pool, many
// NN-LUT-approximated models served at once.
//
//   clients ──submit(model_id, in)──▶ Engine registry
//        │ per-slot validate + admission control (bounded queue, shedding)
//        ▼
//   ModelSlot["a"]: RequestQueue ─▶ Batcher (nnlut-sched-a) ─▶ logits
//   ModelSlot["b"]: RequestQueue ─▶ Batcher (nnlut-sched-b) ─▶ logits
//        │             the scheduler threads share the process ThreadPool
//        ▼             (FIFO-fair orchestrator admission): shards across
//   PendingResult      cores, wide SIMD within a shard, per model in turn
//
// Determinism: each slot's scheduler is the only caller of its model, only
// identical-seq requests of the SAME slot merge, and the pool admits
// orchestrators one at a time — so logits served for any model are
// bit-identical to direct single-threaded calls regardless of how many
// other models are being served concurrently.
//
// Admission control: each slot bounds its queue depth
// (AdmissionConfig{max_queue_depth, shed_policy}); at the bound the slot
// sheds per policy and the shed request resolves with ServerOverloaded.
// After shutdown the slot's stats reconcile exactly:
//   submit calls == submitted + rejected_validation + rejected_overload
//                 + rejected_shutdown
//   submitted    == completed + failed + cancelled
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/lut_kernel_simd.h"
#include "core/thread_annotations.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/request_queue.h"
#include "serve/stats.h"
#include "transformer/infer.h"

namespace nnlut::serve {

/// Per-model serving configuration.
struct SlotConfig {
  /// Flush threshold in sequences; 1 disables aggregation.
  std::size_t max_batch = 32;
  /// Upper bound on how long a request may sit in an under-full bucket; a
  /// bucket whose arrivals rarely come within it flushes at once.
  std::chrono::microseconds max_wait{2000};
  /// Matmul precision of the slot's InferenceModel.
  transformer::MatmulMode matmul = transformer::MatmulMode::kFp32;
  /// Bounded queue depth + shed policy; default unbounded.
  AdmissionConfig admission = {};
};

/// Process-wide knobs, applied to the RuntimeConfig at Engine construction.
struct EngineConfig {
  /// Execution lanes for the encoder kernels; 0 = hardware_concurrency.
  std::size_t threads = 0;
  /// LUT-kernel ISA tier; nullopt = automatic (CPUID + env caps).
  std::optional<simd::SimdTier> simd = std::nullopt;
};

class Engine {
 public:
  explicit Engine(EngineConfig cfg = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Register a model under `model_id` and start its scheduler thread
  /// ("nnlut-sched-<model_id>", compacted to "nns-<model_id>" when the
  /// 15-char Linux thread-name limit would otherwise truncate the model
  /// id away). Borrows the trained model and backend; both must outlive
  /// the engine. Throws std::invalid_argument on an empty or duplicate id,
  /// std::logic_error after shutdown.
  void register_model(const std::string& model_id,
                      const transformer::TaskModel& model,
                      transformer::NonlinearitySet& nl, SlotConfig cfg = {});

  /// Validate and enqueue one request for `model_id`. Takes a string_view
  /// (transparent registry lookup) so the per-request hot path never
  /// allocates for the id. Errors come back through the PendingResult,
  /// never as thrown exceptions:
  ///   - unknown model_id        -> std::out_of_range
  ///   - malformed input         -> std::invalid_argument / std::out_of_range
  ///   - queue at depth bound    -> ServerOverloaded (per the shed policy)
  ///   - submit after shutdown   -> RequestCancelled
  PendingResult submit(std::string_view model_id, transformer::BatchInput in);

  /// True when the slot's bounded queue is at (or over) its admission
  /// depth right now — i.e. a submit at this instant would shed. False for
  /// unbounded slots and unknown ids. The network front-end consults this
  /// BEFORE deserializing a request's tokens ("shed before parse"): under
  /// overload the expensive part of admission is refused at the socket for
  /// the cost of a depth read. Advisory by nature — the queue re-checks
  /// under its own mutex at submit, which remains the authoritative shed.
  bool overloaded(std::string_view model_id) const;

  bool has_model(std::string_view model_id) const;
  /// Registered ids in registration order.
  std::vector<std::string> model_ids() const;
  /// The slot's effective config (normalized: max_batch 0 becomes 1, as
  /// the batcher runs it); throws std::out_of_range on unknown id.
  const SlotConfig& model_config(std::string_view model_id) const;

  /// One slot's counters; throws std::out_of_range on unknown id.
  SlotStats model_stats(std::string_view model_id) const;
  /// Every slot plus the aggregate (counters summed, latency histograms
  /// merged bucket-wise).
  EngineStats stats() const;

  /// Prometheus text exposition of every registered instrument, evaluated
  /// at call time: per-slot serving counters, queue depths, stage-latency
  /// histograms and pool counters (model="<id>" labels), plus process-wide
  /// thread-pool and tracer series. See docs/OBSERVABILITY.md.
  std::string scrape() const { return metrics_.scrape(); }
  /// The engine's registry, for embedders that want to hang extra
  /// instruments onto the same scrape page.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Drain every slot's outstanding requests and stop all scheduler
  /// threads. Idempotent; the destructor calls it. submit() after shutdown
  /// rejects immediately; register_model() after shutdown throws.
  void shutdown();

 private:
  /// One registered model: the unit of isolation. Slots never share
  /// queues or ledgers; they share only the process ThreadPool.
  struct ModelSlot {
    ModelSlot(std::string id_, const transformer::TaskModel& model,
              transformer::NonlinearitySet& nl, SlotConfig cfg_);

    /// Ledger counters with the queue depths and pool counters folded in.
    SlotStats snapshot() const;

    const std::string id;
    const SlotConfig cfg;
    transformer::InferenceModel model;
    StatsLedger ledger;  // before queue: the queue records evictions to it
    RequestQueue queue;
    // Memory path: the forward pass runs in a persistent Workspace, and
    // result tensors draw pool slabs that return when clients destroy them.
    // Declared before the batcher so the scheduler thread stops before they
    // go away, and the pool before the workspace that draws from it. Slabs
    // clients still hold when the pool goes away free directly.
    runtime::BufferPool pool;
    transformer::Workspace ws;
    std::unique_ptr<Batcher> batcher;  // last member: stops before the rest
  };

  /// nullptr when unknown. The returned pointer stays valid until the
  /// engine is destroyed (slots are never erased, only shut down).
  ModelSlot* find_slot(std::string_view model_id) const;

  /// Hang one slot's instruments onto metrics_ (called once per
  /// register_model; callbacks capture the ModelSlot*, which stays valid
  /// for the engine's lifetime since slots are never erased).
  void register_slot_metrics(ModelSlot* slot);
  /// Process-wide instruments (thread pool, tracer, unknown-model
  /// rejects), registered once at construction.
  void register_process_metrics();

  EngineConfig cfg_;
  // Declared before the slot registry: destroyed after it, and callbacks
  // only run through scrape() on a live engine.
  obs::MetricsRegistry metrics_;
  // Reader/writer lock over the registry: submits (every request, all
  // models) take it shared, so the hot path never serializes across slots;
  // register_model/shutdown take it exclusive. Slots themselves are never
  // erased, so a ModelSlot* read under a ReaderLock stays valid afterwards.
  mutable SharedMutex mu_;
  bool shut_down_ NNLUT_GUARDED_BY(mu_) = false;
  // std::less<> enables heterogeneous (string_view) lookup.
  std::map<std::string, std::unique_ptr<ModelSlot>, std::less<>> slots_
      NNLUT_GUARDED_BY(mu_);
  std::vector<std::string> order_ NNLUT_GUARDED_BY(mu_);  // registration order
  mutable Mutex unknown_mu_;
  std::uint64_t rejected_unknown_model_ NNLUT_GUARDED_BY(unknown_mu_) = 0;
};

}  // namespace nnlut::serve
