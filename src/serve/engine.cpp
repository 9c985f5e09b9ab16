#include "serve/engine.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace nnlut::serve {

namespace {
// Stored and effective config must agree: the batcher treats max_batch 0
// as 1, so normalize before the slot keeps its copy.
SlotConfig normalized(SlotConfig cfg) {
  if (cfg.max_batch == 0) cfg.max_batch = 1;
  return cfg;
}

// LatencyHistogram -> pull-time registry snapshot. 31 finite upper edges
// (2 µs .. 2^31 µs); the last log2 bucket becomes the +Inf overflow entry.
obs::HistogramSnapshot histogram_snapshot(const LatencyHistogram& h) {
  obs::HistogramSnapshot out;
  out.upper_bounds.reserve(LatencyHistogram::kBuckets - 1);
  out.counts.reserve(LatencyHistogram::kBuckets);
  for (std::size_t b = 0; b + 1 < LatencyHistogram::kBuckets; ++b)
    out.upper_bounds.push_back(LatencyHistogram::bucket_upper_us(b));
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b)
    out.counts.push_back(h.bucket_count(b));
  out.sum = static_cast<double>(h.sum_us());
  out.count = h.count();
  return out;
}
}  // namespace

Engine::ModelSlot::ModelSlot(std::string id_,
                             const transformer::TaskModel& model_in,
                             transformer::NonlinearitySet& nl, SlotConfig cfg_)
    : id(std::move(id_)),
      cfg(normalized(cfg_)),
      model(model_in, nl, cfg_.matmul),
      queue(cfg_.admission, &ledger),
      ws(&pool) {
  BatcherConfig bcfg;
  bcfg.max_batch = cfg.max_batch;
  bcfg.max_wait = cfg.max_wait;
  bcfg.pool = &pool;
  // Linux truncates thread names at 15 chars; when the canonical
  // "nnlut-sched-<model>" would lose the model id to truncation, fall back
  // to the compact "ns-<model>" so concurrent slots stay distinguishable
  // in profiles and TSan reports.
  bcfg.thread_name = "nnlut-sched-" + id;
  if (bcfg.thread_name.size() > 15) bcfg.thread_name = "ns-" + id;
  // The slot's scheduler thread is the only caller of its model (and of the
  // slot's workspace); N slots mean N orchestrators, admitted FIFO-fairly
  // by the process pool.
  batcher = std::make_unique<Batcher>(
      queue,
      [this](const transformer::BatchInput& in) { return model.logits(in, ws); },
      std::move(bcfg), &ledger);
}

SlotStats Engine::ModelSlot::snapshot() const {
  // depths() reads {depth, peak} under one lock: two separate depth() /
  // peak_depth() calls can interleave with a submit and snapshot an
  // impossible depth > peak.
  const RequestQueue::Depths d = queue.depths();
  return ledger.snapshot(d.depth, d.peak, pool.stats());
}

Engine::Engine(EngineConfig cfg) : cfg_(cfg) {
  runtime::set_runtime_config({cfg_.threads, cfg_.simd});
  register_process_metrics();
}

Engine::~Engine() { shutdown(); }

void Engine::register_model(const std::string& model_id,
                            const transformer::TaskModel& model,
                            transformer::NonlinearitySet& nl, SlotConfig cfg) {
  if (model_id.empty())
    throw std::invalid_argument("Engine::register_model: empty model id");
  WriterLock lk(mu_);
  if (shut_down_)
    throw std::logic_error("Engine::register_model: engine is shut down");
  if (slots_.count(model_id) != 0)
    throw std::invalid_argument("Engine::register_model: duplicate model id '" +
                                model_id + "'");
  auto [it, inserted] = slots_.emplace(
      model_id, std::make_unique<ModelSlot>(model_id, model, nl, cfg));
  order_.push_back(model_id);
  register_slot_metrics(it->second.get());
}

void Engine::register_slot_metrics(ModelSlot* slot) {
  using Labels = obs::MetricsRegistry::Labels;
  const std::string& id = slot->id;
  const auto snap = [slot] { return slot->snapshot(); };

  struct CounterField {
    const char* label;
    std::uint64_t SlotStats::*field;
  };
  static const CounterField kOutcomes[] = {
      {"completed", &SlotStats::completed},
      {"failed", &SlotStats::failed},
      {"cancelled", &SlotStats::cancelled},
  };
  for (const CounterField& o : kOutcomes)
    metrics_.add_counter("nnlut_requests_total",
                         "Requests resolved, by final outcome.",
                         Labels{{"model", id}, {"outcome", o.label}},
                         [snap, f = o.field] { return snap().*f; });
  static const CounterField kReasons[] = {
      {"validation", &SlotStats::rejected_validation},
      {"overload", &SlotStats::rejected_overload},
      {"shutdown", &SlotStats::rejected_shutdown},
  };
  for (const CounterField& r : kReasons)
    metrics_.add_counter("nnlut_rejected_total",
                         "Requests refused, by rejection reason.",
                         Labels{{"model", id}, {"reason", r.label}},
                         [snap, f = r.field] { return snap().*f; });
  metrics_.add_counter("nnlut_submitted_total",
                       "Requests admitted into the slot's queue.",
                       Labels{{"model", id}},
                       [snap] { return snap().submitted; });
  metrics_.add_counter("nnlut_batches_total",
                       "Model invocations (merged batches).",
                       Labels{{"model", id}}, [snap] { return snap().batches; });
  metrics_.add_counter("nnlut_batch_early_flushes_total",
                       "Under-full batches flushed before max_wait because "
                       "the bucket's arrivals rarely come within it.",
                       Labels{{"model", id}},
                       [snap] { return snap().batches_flushed_early; });
  metrics_.add_gauge("nnlut_queue_depth",
                     "Requests queued (admitted, not yet drained).",
                     Labels{{"model", id}}, [slot] {
                       return static_cast<double>(slot->queue.depths().depth);
                     });
  metrics_.add_gauge("nnlut_queue_peak_depth",
                     "High-water mark of nnlut_queue_depth.",
                     Labels{{"model", id}}, [slot] {
                       return static_cast<double>(slot->queue.depths().peak);
                     });

  metrics_.add_counter("nnlut_pool_alloc_total",
                       "Buffer-pool acquisitions that hit the heap (misses). "
                       "Zero delta over a warmed window is the zero-alloc "
                       "steady-state contract.",
                       Labels{{"model", id}},
                       [snap] { return snap().pool_alloc_count; });
  metrics_.add_counter("nnlut_pool_reuse_total",
                       "Buffer-pool acquisitions served from free lists.",
                       Labels{{"model", id}},
                       [snap] { return snap().pool_reuse_count; });
  metrics_.add_gauge("nnlut_pool_outstanding",
                     "Pool slabs currently checked out.", Labels{{"model", id}},
                     [snap] {
                       return static_cast<double>(snap().pool_outstanding);
                     });
  metrics_.add_gauge("nnlut_pool_bytes_live",
                     "Outstanding + cached pool bytes.", Labels{{"model", id}},
                     [snap] {
                       return static_cast<double>(snap().pool_bytes_live);
                     });
  metrics_.add_gauge("nnlut_pool_bytes_peak",
                     "High-water mark of nnlut_pool_bytes_live.",
                     Labels{{"model", id}}, [snap] {
                       return static_cast<double>(snap().pool_bytes_peak);
                     });

  struct Stage {
    const char* name;
    LatencyHistogram SlotStats::*hist;
  };
  static const Stage kStages[] = {
      {"queue_wait", &SlotStats::hist_queue_wait},
      {"batch_wait", &SlotStats::hist_batch_wait},
      {"exec", &SlotStats::hist_exec},
      {"resolve", &SlotStats::hist_resolve},
  };
  for (const Stage& stage : kStages)
    metrics_.add_histogram(
        "nnlut_stage_latency_us",
        "Per-stage request latency (µs, log2 buckets): queue_wait = submit "
        "to drain, batch_wait = drain to execution, exec = model "
        "invocation, resolve = execution to client handoff.",
        Labels{{"model", id}, {"stage", stage.name}},
        [snap, hist = stage.hist] { return histogram_snapshot(snap().*hist); });
  metrics_.add_histogram(
      "nnlut_request_latency_us",
      "End-to-end request latency (µs, log2 buckets), submit to resolve.",
      Labels{{"model", id}},
      [snap] { return histogram_snapshot(snap().hist_total); });
}

void Engine::register_process_metrics() {
  using Labels = obs::MetricsRegistry::Labels;
  metrics_.add_counter(
      "nnlut_rejected_unknown_model_total",
      "submit() calls naming a model id that was never registered.",
      Labels{}, [this]() -> std::uint64_t {
        MutexLock lk(unknown_mu_);
        return rejected_unknown_model_;
      });
  metrics_.add_counter(
      "nnlut_threadpool_jobs_total",
      "Parallel jobs dispatched through the process thread pool.", Labels{},
      [] { return runtime::thread_pool_stats().jobs; });
  metrics_.add_counter("nnlut_threadpool_inline_runs_total",
                       "Pool run() calls that executed inline on the caller.",
                       Labels{},
                       [] { return runtime::thread_pool_stats().inline_runs; });
  metrics_.add_counter("nnlut_threadpool_shards_total",
                       "Shard executions across all lanes (lane 0 included).",
                       Labels{},
                       [] { return runtime::thread_pool_stats().shards; });
  metrics_.add_gauge("nnlut_threadpool_lanes",
                     "Execution lanes of the current runtime config.",
                     Labels{}, [] {
                       return static_cast<double>(
                           runtime::thread_pool_stats().lanes);
                     });
  metrics_.add_gauge("nnlut_threadpool_busy_lanes",
                     "Lanes executing a shard at scrape time (occupancy).",
                     Labels{}, [] {
                       return static_cast<double>(
                           runtime::thread_pool_stats().busy_lanes);
                     });
  metrics_.add_counter(
      "nnlut_trace_events_recorded_total",
      "Trace events pushed this tracing session (retained + overwritten).",
      Labels{},
      [] { return obs::TraceRecorder::instance().stats().recorded; });
  metrics_.add_counter(
      "nnlut_trace_events_dropped_total",
      "Trace events overwritten by ring wraparound this session (exact).",
      Labels{},
      [] { return obs::TraceRecorder::instance().stats().dropped; });
  metrics_.add_gauge("nnlut_trace_threads",
                     "Threads with a trace ring this session.", Labels{}, [] {
                       return static_cast<double>(
                           obs::TraceRecorder::instance().stats().threads);
                     });
}

Engine::ModelSlot* Engine::find_slot(std::string_view model_id) const {
  ReaderLock lk(mu_);
  auto it = slots_.find(model_id);
  return it == slots_.end() ? nullptr : it->second.get();
}

PendingResult Engine::submit(std::string_view model_id,
                             transformer::BatchInput in) {
  ModelSlot* slot = find_slot(model_id);
  if (slot == nullptr) {
    {
      MutexLock lk(unknown_mu_);
      ++rejected_unknown_model_;
    }
    return RequestQueue::rejected(std::make_exception_ptr(std::out_of_range(
        "Engine::submit: unknown model '" + std::string(model_id) + "'")));
  }
  // Validation first, so a malformed request never occupies a queue slot
  // and never triggers shedding.
  try {
    slot->model.validate(in);
  } catch (...) {
    slot->ledger.record_rejected_validation();
    return RequestQueue::rejected(std::current_exception());
  }
  // The queue records the submit outcome (admitted / overload / shutdown)
  // in the slot's ledger itself, under the queue mutex, so accounting is
  // atomic with the queue operation.
  return slot->queue.submit(std::move(in));
}

bool Engine::has_model(std::string_view model_id) const {
  return find_slot(model_id) != nullptr;
}

bool Engine::overloaded(std::string_view model_id) const {
  ModelSlot* slot = find_slot(model_id);
  if (slot == nullptr) return false;
  const AdmissionConfig& adm = slot->queue.admission();
  return adm.max_queue_depth > 0 &&
         slot->queue.depth() >= adm.max_queue_depth;
}

std::vector<std::string> Engine::model_ids() const {
  ReaderLock lk(mu_);
  return order_;
}

const SlotConfig& Engine::model_config(std::string_view model_id) const {
  ModelSlot* slot = find_slot(model_id);
  if (slot == nullptr)
    throw std::out_of_range("Engine::model_config: unknown model '" +
                            std::string(model_id) + "'");
  return slot->cfg;
}

SlotStats Engine::model_stats(std::string_view model_id) const {
  ModelSlot* slot = find_slot(model_id);
  if (slot == nullptr)
    throw std::out_of_range("Engine::model_stats: unknown model '" +
                            std::string(model_id) + "'");
  return slot->snapshot();
}

EngineStats Engine::stats() const {
  // Snapshot the slot list under mu_, then each ledger under its own lock:
  // per-slot snapshots are exact, the cross-slot view is a near-instant.
  std::vector<ModelSlot*> slots;
  {
    ReaderLock lk(mu_);
    slots.reserve(order_.size());
    for (const std::string& id : order_) slots.push_back(slots_.at(id).get());
  }
  EngineStats out;
  for (ModelSlot* slot : slots) {
    SlotStats s = slot->snapshot();
    out.total.submitted += s.submitted;
    out.total.rejected += s.rejected;
    out.total.rejected_validation += s.rejected_validation;
    out.total.rejected_overload += s.rejected_overload;
    out.total.rejected_shutdown += s.rejected_shutdown;
    out.total.completed += s.completed;
    out.total.failed += s.failed;
    out.total.cancelled += s.cancelled;
    out.total.batches += s.batches;
    out.total.batches_flushed_early += s.batches_flushed_early;
    out.total.pool_alloc_count += s.pool_alloc_count;
    out.total.pool_reuse_count += s.pool_reuse_count;
    out.total.pool_outstanding += s.pool_outstanding;
    out.total.pool_bytes_live += s.pool_bytes_live;
    // Like peak_queue_depth: per-slot peaks need not coincide in time, so
    // report the worst single slot rather than a fictitious sum.
    out.total.pool_bytes_peak =
        std::max(out.total.pool_bytes_peak, s.pool_bytes_peak);
    out.total.queue_depth += s.queue_depth;
    // A high-water mark is not summable across slots (their peaks need not
    // coincide in time): report the worst single-slot peak.
    out.total.peak_queue_depth =
        std::max(out.total.peak_queue_depth, s.peak_queue_depth);
    // Histograms aggregate exactly (bucket-wise sums), so the total's
    // quantiles are those of the merged traffic.
    out.total.hist_queue_wait.merge(s.hist_queue_wait);
    out.total.hist_batch_wait.merge(s.hist_batch_wait);
    out.total.hist_exec.merge(s.hist_exec);
    out.total.hist_resolve.merge(s.hist_resolve);
    out.total.hist_total.merge(s.hist_total);
    out.models.emplace(slot->id, std::move(s));
  }
  // Aggregate occupancy: batch-weighted mean across slots.
  if (out.total.batches > 0) {
    double requests = 0.0, sequences = 0.0;
    for (const auto& kv : out.models) {
      requests += kv.second.mean_batch_requests *
                  static_cast<double>(kv.second.batches);
      sequences += kv.second.mean_batch_occupancy *
                   static_cast<double>(kv.second.batches);
    }
    out.total.mean_batch_requests =
        requests / static_cast<double>(out.total.batches);
    out.total.mean_batch_occupancy =
        sequences / static_cast<double>(out.total.batches);
  }
  {
    MutexLock lk(unknown_mu_);
    out.rejected_unknown_model = rejected_unknown_model_;
  }
  return out;
}

void Engine::shutdown() {
  // Mark shut down, then stop slots outside mu_: Batcher::stop joins a
  // scheduler thread that may be mid-batch, and submit() must stay able to
  // look up slots (and get queue-closed rejections) meanwhile.
  std::vector<ModelSlot*> slots;
  {
    WriterLock lk(mu_);
    shut_down_ = true;
    for (const std::string& id : order_) slots.push_back(slots_.at(id).get());
  }
  for (ModelSlot* slot : slots)
    if (slot->batcher) slot->batcher->stop();
}

}  // namespace nnlut::serve
