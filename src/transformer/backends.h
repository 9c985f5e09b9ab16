// Nonlinearity backends for approximate inference. The inference engine
// calls these instead of the exact ops; swapping the backend realizes the
// paper's experiments:
//   ExactNonlinearities    - FP32 reference (Table 2 "Baseline")
//   LutNonlinearities      - NN-LUT or Linear-LUT at FP32/FP16/INT32, with
//                            per-op selection (Table 2a rows) and per-site
//                            LUTs + capture for calibration (Table 2b "+C")
//   IBertNonlinearities    - I-BERT integer kernels (Table 2b baseline)
//
// `site` identifies the op instance (layer number baked in by the inference
// engine) so calibration can specialize LUTs per layer.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/nnlut_ops.h"
#include "core/quantized_lut.h"
#include "core/scalar_fn.h"
#include "transformer/config.h"

namespace nnlut::transformer {

class NonlinearitySet {
 public:
  virtual ~NonlinearitySet() = default;

  /// Elementwise activation (GELU or ReLU depending on the model) over
  /// `nrows` contiguous rows of length `ncols` (the [tokens x d_ff] FFN
  /// block). Each row's result depends only on that row, so a packed
  /// multi-request batch matches solo runs bit for bit (the serving
  /// batcher's contract).
  virtual void activation_rows(std::span<float> data, std::size_t nrows,
                               std::size_t ncols, int site) = 0;
  /// In-place softmax over `nrows` contiguous rows of length `ncols`: one
  /// backend call for a whole attention-score block.
  virtual void softmax_rows(std::span<float> data, std::size_t nrows,
                            std::size_t ncols, int site) = 0;
  /// LayerNorm with affine params over `nrows` contiguous rows of length
  /// `ncols`.
  virtual void layer_norm_rows(std::span<const float> x, std::span<float> y,
                               std::size_t nrows, std::size_t ncols,
                               std::span<const float> gamma,
                               std::span<const float> beta, int site) = 0;

  // One-row forms: the rows entry points with nrows = 1. No backend
  // overrides them. They stay virtual for one reason: the benchmark's timing
  // decorator (TimedNonlinearities, bench/nnlut_bench/measure.h) declares
  // them `override`, and that directory changes only together with the
  // benchmark itself.
  virtual void activation(std::span<float> xs, int site) {
    activation_rows(xs, 1, xs.size(), site);
  }
  virtual void softmax(std::span<float> row, int site) {
    softmax_rows(row, 1, row.size(), site);
  }
  virtual void layer_norm(std::span<const float> x, std::span<float> y,
                          std::span<const float> gamma,
                          std::span<const float> beta, int site) {
    layer_norm_rows(x, y, 1, x.size(), gamma, beta, site);
  }
};

/// Exact FP32 reference implementations. The block entry points shard row
/// blocks (and the activation span) across the runtime thread pool so the
/// baseline comparison against the LUT backend is thread-for-thread fair.
class ExactNonlinearities final : public NonlinearitySet {
 public:
  explicit ExactNonlinearities(ActKind act = ActKind::kGelu) : act_(act) {}
  void activation_rows(std::span<float> data, std::size_t nrows,
                       std::size_t ncols, int site) override;
  void softmax_rows(std::span<float> data, std::size_t nrows,
                    std::size_t ncols, int site) override;
  void layer_norm_rows(std::span<const float> x, std::span<float> y,
                       std::size_t nrows, std::size_t ncols,
                       std::span<const float> gamma,
                       std::span<const float> beta, int site) override;

 private:
  ActKind act_;
};

/// Which operations are replaced by LUTs (the others stay exact) — the row
/// structure of Table 2(a).
struct ApproxSelection {
  bool gelu = true;
  bool softmax = true;
  bool layer_norm = true;

  static ApproxSelection all() { return {}; }
  static ApproxSelection gelu_only() { return {true, false, false}; }
  static ApproxSelection softmax_only() { return {false, true, false}; }
  static ApproxSelection layernorm_only() { return {false, false, true}; }
};

/// LUT-backed nonlinearities. Owns the ScalarFn evaluators. The four base
/// functions are shared across sites by default; `set_site_rsqrt` installs a
/// calibrated per-site replacement (Sec. 3.3.3). Capture mode records the
/// inputs reaching each LayerNorm's 1/sqrt so calibration can regress on
/// them.
class LutNonlinearities final : public NonlinearitySet {
 public:
  struct Options {
    ApproxSelection select;
    ActKind act = ActKind::kGelu;  // exact fallback when gelu not selected
    bool input_scaling = true;     // Sec. 3.3.2, applied to LayerNorm
  };

  /// The ScalarFns must outlive this object if supplied externally; the
  /// factory functions below create owning instances.
  LutNonlinearities(std::unique_ptr<ScalarFn> gelu, std::unique_ptr<ScalarFn> exp,
                    std::unique_ptr<ScalarFn> recip,
                    std::unique_ptr<ScalarFn> rsqrt, Options opt);

  void activation_rows(std::span<float> data, std::size_t nrows,
                       std::size_t ncols, int site) override;
  void softmax_rows(std::span<float> data, std::size_t nrows,
                    std::size_t ncols, int site) override;
  void layer_norm_rows(std::span<const float> x, std::span<float> y,
                       std::size_t nrows, std::size_t ncols,
                       std::span<const float> gamma,
                       std::span<const float> beta, int site) override;

  /// Install a calibrated rsqrt evaluator for one LayerNorm site.
  void set_site_rsqrt(int site, std::unique_ptr<ScalarFn> fn);

  /// Enable capture: inputs to each site's rsqrt are recorded (post input
  /// scaling, i.e. exactly what the LUT sees).
  void enable_rsqrt_capture();
  void disable_rsqrt_capture();
  const std::vector<float>& captured_rsqrt_inputs(int site) const;

 private:
  const ScalarFn& rsqrt_for_site(int site) const;

  std::unique_ptr<ScalarFn> gelu_fn_, exp_fn_, recip_fn_, rsqrt_fn_;
  std::vector<std::unique_ptr<ScalarFn>> site_rsqrt_;  // index = site
  Options opt_;

  bool capture_ = false;
  mutable std::vector<std::vector<float>> capture_buffers_;
};

/// I-BERT integer kernels for all three ops (ReLU models keep ReLU exact —
/// it is not a transcendental op). The block entry points route through
/// ibert's *_rows kernels, which shard row blocks across the runtime pool —
/// the same harness the LUT backend runs under, keeping the baseline fair.
class IBertNonlinearities final : public NonlinearitySet {
 public:
  explicit IBertNonlinearities(ActKind act = ActKind::kGelu) : act_(act) {}
  /// One quantization scale per row (ibert::gelu_rows).
  void activation_rows(std::span<float> data, std::size_t nrows,
                       std::size_t ncols, int site) override;
  void softmax_rows(std::span<float> data, std::size_t nrows,
                    std::size_t ncols, int site) override;
  void layer_norm_rows(std::span<const float> x, std::span<float> y,
                       std::size_t nrows, std::size_t ncols,
                       std::span<const float> gamma,
                       std::span<const float> beta, int site) override;

 private:
  ActKind act_;
};

// ------------------------------------------------------------ factories ---

/// The trained (or fitted) LUTs for the four base functions.
struct LutSet {
  PiecewiseLinear gelu;
  PiecewiseLinear exp;
  PiecewiseLinear reciprocal;
  PiecewiseLinear rsqrt;
};

/// Build a LUT backend from tables at the requested deployed precision.
std::unique_ptr<LutNonlinearities> make_lut_backend(
    const LutSet& luts, LutPrecision precision, LutNonlinearities::Options opt);

}  // namespace nnlut::transformer
