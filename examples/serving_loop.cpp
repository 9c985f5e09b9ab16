// Serving loop: two models behind one multi-model Engine.
//
//   1. Generate a synthetic SST-2-style task and fine-tune a tiny encoder.
//   2. Register TWO deployment backends of it on one Engine: the NN-LUT
//      FP32 slot ("nnlut-fp32") and the INT32 deployment slot
//      ("nnlut-int32"), each with its own queue, batcher (scheduler thread
//      "nnlut-sched-<model>") and stats ledger; the schedulers share the
//      process thread pool.
//   3. The fp32 slot is left unbounded; the int32 slot gets admission
//      control (bounded queue, shed-oldest) to show load shedding.
//   4. Four client threads — two per model — BURST-submit their share of
//      the dev set (all submissions up front, then await), so the bounded
//      int32 queue actually overflows while batches execute; shed requests
//      resolve with ServerOverloaded and are retried nowhere — exactly
//      what a front-end sees under overload.
//   5. The whole serving phase runs with lifecycle tracing enabled: after
//      the drain the example prints the engine's Prometheus scrape and
//      writes serving_trace.json — load it in Perfetto / chrome://tracing
//      to see req.* lifecycle spans, batch.merge/batch.exec flushes and
//      pool.shard worker spans on their named threads.
//
// Build & run:   ./example_serving_loop
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "approx/linear_lut.h"
#include "eval/pipeline.h"
#include "numerics/math.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "tasks/tasks.h"

int main() {
  using namespace nnlut;
  using namespace nnlut::transformer;
  using namespace std::chrono_literals;

  // A small task and model: enough to have real trained weights to serve.
  tasks::TaskGenOptions gen;
  gen.n_train = 768;
  gen.n_dev = 64;
  gen.seq_len = 16;
  gen.vocab = 64;
  const tasks::TaskData task = tasks::make_task(tasks::TaskId::kSst2, gen);

  ModelConfig cfg = ModelConfig::roberta_like();
  cfg.vocab = gen.vocab;
  cfg.hidden = 32;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.ffn = 64;
  cfg.max_seq = gen.seq_len;

  std::printf("Training a %zux%zu encoder on %zu examples...\n", cfg.layers,
              cfg.hidden, task.train.size());
  eval::TrainOptions topt;
  topt.epochs = 6;
  TaskModel model = eval::train_model(task, cfg, topt);

  // Deployment backends: NN-LUT tables for all four base functions, at two
  // precisions — the same weights served two ways from one process.
  LutSet luts{fit_linear_lut(gelu_exact, kGeluRange, 16),
              fit_linear_lut(exp_exact, {-16.0f, 0.0f}, 16),
              fit_fixed_breakpoint_lut(reciprocal_exact, {1.0f, 1024.0f}, 16,
                                       BreakpointMode::kExponential),
              fit_fixed_breakpoint_lut(rsqrt_exact, kRsqrtRange, 16,
                                       BreakpointMode::kExponential)};
  LutNonlinearities::Options lopt;
  lopt.select = ApproxSelection::all();
  auto fp32_backend = make_lut_backend(luts, LutPrecision::kFp32, lopt);
  auto int32_backend = make_lut_backend(luts, LutPrecision::kInt32, lopt);

  // Trace the serving phase only (training stays untraced). Tracing never
  // steers scheduling: results below are bit-identical with it disabled.
  obs::TraceRecorder::instance().enable(/*events_per_thread=*/16384);

  serve::Engine engine;  // threads = 0: every hardware thread

  serve::SlotConfig fp32_slot;
  fp32_slot.max_batch = 8;     // pack up to 8 sequences per model call
  fp32_slot.max_wait = 2000us; // ... but never delay a request by more than 2ms
  engine.register_model("nnlut-fp32", model, *fp32_backend, fp32_slot);

  serve::SlotConfig int32_slot = fp32_slot;
  int32_slot.admission = {/*max_queue_depth=*/8,
                          serve::ShedPolicy::kRejectOldest};
  engine.register_model("nnlut-int32", model, *int32_backend, int32_slot);

  std::printf("Serving %zu dev examples from 4 client threads across "
              "models {%s, %s}...\n",
              task.dev.size(), engine.model_ids()[0].c_str(),
              engine.model_ids()[1].c_str());

  std::atomic<int> correct{0};
  std::atomic<int> shed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      // Clients 0/2 serve nnlut-fp32, clients 1/3 nnlut-int32 (dev example
      // i goes to the slot matching its parity). Submit the whole share as
      // a burst, then await: while a batch executes, the rest of the burst
      // piles into the queue — which is what overflows the int32 slot's
      // depth-8 bound and triggers shed-oldest.
      const char* mdl = (c % 2 == 0) ? "nnlut-fp32" : "nnlut-int32";
      std::vector<std::size_t> indices;
      std::vector<serve::PendingResult> pending;
      for (std::size_t i = static_cast<std::size_t>(c); i < task.dev.size();
           i += 4) {
        indices.push_back(i);
        pending.push_back(engine.submit(mdl, eval::to_batch(task.dev, i, 1)));
      }
      for (std::size_t k = 0; k < pending.size(); ++k) {
        try {
          const Tensor logits = pending[k].get();  // awaits the batched result
          const int pred = logits.at(0, 1) > logits.at(0, 0) ? 1 : 0;
          if (pred == task.dev[indices[k]].label) correct.fetch_add(1);
        } catch (const serve::ServerOverloaded&) {
          shed.fetch_add(1);  // admission control shed this request
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  // Drained: everything the clients submitted has resolved. Scrape the
  // unified metrics registry while the engine is still live — this is the
  // exact text a Prometheus endpoint would serve.
  const std::string scrape = engine.scrape();
  const serve::EngineStats stats = engine.stats();
  engine.shutdown();

  obs::TraceRecorder::instance().disable();
  const obs::TraceRecorder::Stats tstats = obs::TraceRecorder::instance().stats();
  const char* trace_path = "serving_trace.json";
  if (!obs::TraceRecorder::instance().export_json_file(trace_path)) {
    std::fprintf(stderr, "failed to write %s\n", trace_path);
    return 1;
  }

  std::printf("\n--- Prometheus scrape (post-drain) ---\n%s"
              "--- end scrape ---\n",
              scrape.c_str());
  std::printf("\nChrome trace written to %s (%llu events recorded on %zu "
              "threads, %llu dropped) — open in Perfetto or "
              "chrome://tracing.\n",
              trace_path, static_cast<unsigned long long>(tstats.recorded),
              tstats.threads, static_cast<unsigned long long>(tstats.dropped));

  for (const auto& kv : stats.models) {
    const serve::SlotStats& s = kv.second;
    std::printf("\n[%s] %llu completed in %llu batches "
                "(mean occupancy %.2f seq/batch), %llu shed, "
                "p50 %.0fus, p95 %.0fus.",
                kv.first.c_str(),
                static_cast<unsigned long long>(s.completed),
                static_cast<unsigned long long>(s.batches),
                s.mean_batch_occupancy,
                static_cast<unsigned long long>(s.rejected_overload),
                s.hist_total.quantile(0.50), s.hist_total.quantile(0.95));
    // Memory path, after the drain: alloc = slabs the slot's buffer pool
    // had to take from the heap (its working set), reuse = acquisitions
    // recycled from the free lists. Sustained serving grows reuse, not
    // alloc; the outstanding slabs are the slot's persistent workspace.
    std::printf("\n[%s] pool: %llu slabs allocated, %llu reused "
                "(%.1f reuses/alloc), peak %zu KiB, %llu outstanding.",
                kv.first.c_str(),
                static_cast<unsigned long long>(s.pool_alloc_count),
                static_cast<unsigned long long>(s.pool_reuse_count),
                s.pool_alloc_count > 0
                    ? static_cast<double>(s.pool_reuse_count) /
                          static_cast<double>(s.pool_alloc_count)
                    : 0.0,
                s.pool_bytes_peak / 1024,
                static_cast<unsigned long long>(s.pool_outstanding));
  }
  std::printf("\n\nServed %llu requests total; %d shed by admission "
              "control.\n",
              static_cast<unsigned long long>(stats.total.completed),
              shed.load());
  std::printf("Dev accuracy through the engine (both models): %.3f\n",
              static_cast<double>(correct.load()) /
                  static_cast<double>(task.dev.size() -
                                      static_cast<std::size_t>(shed.load())));
  std::printf(
      "\nEach slot's batcher only merges identical-length requests of its\n"
      "own model, so every result is bit-identical to a solo\n"
      "InferenceModel::logits call — no matter how many models share the\n"
      "process.\n");
  return 0;
}
