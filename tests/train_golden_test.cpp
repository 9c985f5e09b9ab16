// Training drift guard across commits, the fine-tuning companion of
// golden_logits_test. Each line of tests/golden/train_fnv1a.txt is one
// FNV-1a (64-bit) over the raw bits of three training steps; each step
// hashes the forward output, every Param::grad after backward and every
// Param::value after Adam::step (for nn::Linear also the input gradient).
//
// Weights, inputs and output gradients are bit-built (tests/bit_built.h);
// the output gradient is drawn directly rather than taken from a loss,
// whose exp/log would go through libm. Two configs, each at seq 1, 7, 33:
//  - "mobilebert": a MobileBERT-like TaskModel (NoNorm + ReLU, span head).
//    Its only libm call is expf inside softmax_exact (the attention
//    probabilities), so these lines are keyed to the libm's expf; every
//    other operation is an IEEE-754 basic operation or sqrt.
//  - "linear": one nn::Linear forward/backward, libm-free.
// Adam runs with beta1 = 0.5 and beta2 = 0.25, so the std::pow(beta, t)
// bias corrections are exact powers of two on any libm.
//
// Every ISA tier and pool size {1, 4} must reproduce every line: training
// gradients follow the same determinism contract as inference logits. A
// deliberate numeric change must update the golden file in the same diff
// (the failure message prints the replacement line) and say why in
// CHANGES.md.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bit_built.h"
#include "core/lut_kernel_simd.h"
#include "nn/optimizer.h"
#include "runtime/thread_pool.h"
#include "transformer/model.h"

namespace nnlut::transformer {
namespace {

using test::bit_built_float;
using test::splitmix64;

constexpr std::size_t kBatch = 2;
constexpr std::size_t kSeqs[] = {1, 7, 33};
constexpr int kSteps = 3;

void fnv1a_mix(std::uint64_t& h, const Tensor& t) {
  for (const float v : t.flat()) {
    const auto bits = std::bit_cast<std::uint32_t>(v);
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
}

/// Fills `t` from the stream: uniform on [-0.5, 0.5) on a 2^-24 grid.
void bit_fill(Tensor& t, std::uint64_t& state) {
  for (float& v : t.flat()) v = bit_built_float(state);
}

nn::Adam::Options adam_options() {
  nn::Adam::Options o;
  o.beta1 = 0.5f;
  o.beta2 = 0.25f;
  return o;
}

ModelConfig mobilebert_config() {
  ModelConfig c = ModelConfig::mobilebert_like();
  c.vocab = 64;
  c.hidden = 48;  // 4 heads of 12: every GEMM has edge tiles
  c.layers = 2;
  c.heads = 4;
  c.ffn = 96;
  c.max_seq = 64;
  return c;
}

BatchInput train_input(std::size_t seq) {
  std::uint64_t state = 0x747261696e6964ull + seq;
  BatchInput in;
  in.batch = kBatch;
  in.seq = seq;
  for (std::size_t i = 0; i < kBatch * seq; ++i) {
    in.token_ids.push_back(
        static_cast<int>(splitmix64(state) % mobilebert_config().vocab));
    in.type_ids.push_back(static_cast<int>(splitmix64(state) & 1u));
  }
  return in;
}

/// The MobileBERT-like span model with bit-built weights; `state` goes on
/// to draw the output gradients.
TaskModel bit_built_model(std::uint64_t& state) {
  Rng init(1);  // overwritten below; the constructor only sizes the tensors
  TaskModel model(mobilebert_config(), HeadKind::kSpan, 2, init);
  state = 0x6d6f62696c65ull;
  for (nn::Param* p : model.params()) bit_fill(p->value, state);
  return model;
}

/// Three Adam steps of the bit-built MobileBERT-like span model.
std::uint64_t mobilebert_fingerprint(std::size_t seq) {
  std::uint64_t state = 0;
  TaskModel model = bit_built_model(state);
  nn::Adam adam(model.params(), adam_options());
  const BatchInput in = train_input(seq);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int step = 0; step < kSteps; ++step) {
    adam.zero_grad();
    const Tensor logits = model.forward(in);
    fnv1a_mix(h, logits);
    Tensor dlogits(logits.shape());
    bit_fill(dlogits, state);
    model.backward(dlogits);
    for (const nn::Param* p : model.params()) fnv1a_mix(h, p->grad);
    adam.step();
    for (const nn::Param* p : model.params()) fnv1a_mix(h, p->value);
  }
  return h;
}

/// Three Adam steps of one bit-built nn::Linear over kBatch * seq rows. The
/// input width passes one 256-deep GEMM k block.
std::uint64_t linear_fingerprint(std::size_t seq) {
  Rng init(1);
  nn::Linear lin(260, 45, init);
  std::uint64_t state = 0x6c696e656172ull + seq;
  bit_fill(lin.w.value, state);
  bit_fill(lin.b.value, state);
  nn::Adam adam(lin.params(), adam_options());
  Tensor x({kBatch * seq, lin.in_features()});
  bit_fill(x, state);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int step = 0; step < kSteps; ++step) {
    adam.zero_grad();
    const Tensor y = lin.forward(x);
    fnv1a_mix(h, y);
    Tensor dy(y.shape());
    bit_fill(dy, state);
    fnv1a_mix(h, lin.backward(dy));
    fnv1a_mix(h, lin.w.grad);
    fnv1a_mix(h, lin.b.grad);
    adam.step();
    fnv1a_mix(h, lin.w.value);
    fnv1a_mix(h, lin.b.value);
  }
  return h;
}

using Key = std::pair<std::string, std::size_t>;

std::filesystem::path golden_path() {
  return std::filesystem::path(__FILE__).parent_path() / "golden" /
         "train_fnv1a.txt";
}

/// Lines "<config> <seq> <16 hex digits>"; '#' starts a comment.
std::map<Key, std::uint64_t> load_golden() {
  std::map<Key, std::uint64_t> out;
  std::ifstream f(golden_path());
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string config, hex;
    std::size_t seq = 0;
    ls >> config >> seq >> hex;
    out[{config, seq}] = std::stoull(hex, nullptr, 16);
  }
  return out;
}

std::string golden_line(const Key& key, std::uint64_t h) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  return key.first + " " + std::to_string(key.second) + " " + hex;
}

/// Every golden line at each of `tiers` (nullopt: the automatic choice,
/// which honours NNLUT_SIMD_TIER) x pool sizes {1, 4}.
void expect_golden(const std::vector<std::optional<simd::SimdTier>>& tiers) {
  const std::map<Key, std::uint64_t> golden = load_golden();
  ASSERT_FALSE(golden.empty()) << "cannot read " << golden_path();
  EXPECT_EQ(golden.size(), 2 * std::size(kSeqs))
      << "golden file has missing or stale lines";
  for (const auto& tier : tiers) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      runtime::set_runtime_config({threads, tier});
      const char* tier_name = simd::simd_tier_name(simd::active_simd_tier());
      const std::uint64_t jobs = runtime::thread_pool_stats().jobs;
      for (const std::size_t seq : kSeqs) {
        for (const auto& [config, h] :
             {std::pair{"mobilebert", mobilebert_fingerprint(seq)},
              std::pair{"linear", linear_fingerprint(seq)}}) {
          const Key key{config, seq};
          const auto it = golden.find(key);
          if (it == golden.end()) {
            ADD_FAILURE() << "missing golden line: " << golden_line(key, h);
            continue;
          }
          EXPECT_EQ(h, it->second)
              << "training drifted at tier " << tier_name << ", " << threads
              << " threads; new line: " << golden_line(key, h);
        }
      }
      // `jobs` counts only runs that forked: without this a larger shard
      // grain could turn "1 vs 4 lanes" into "1 vs 1 lane" unnoticed.
      if (threads > 1) {
        EXPECT_GT(runtime::thread_pool_stats().jobs, jobs)
            << "the " << threads << "-lane pass never forked at tier "
            << tier_name;
      }
    }
  }
  runtime::set_runtime_config({});
}

TEST(GoldenTraining, MatchesEveryTierAndPool) {
  std::vector<std::optional<simd::SimdTier>> tiers;
  for (const simd::SimdTier t : simd::available_simd_tiers())
    tiers.push_back(t);
  expect_golden(tiers);
}

// The tier automatic dispatch picks, so a NNLUT_SIMD_TIER=<tier> run of
// this case checks that tier through the environment path.
TEST(GoldenTraining, MatchesActiveTier) { expect_golden({std::nullopt}); }

// The fingerprints only guard something if the gradients carry information:
// saturated softmax rows or dead ReLUs would zero most of them.
TEST(GoldenTraining, BitBuiltModelGradientsAreNotDegenerate) {
  std::uint64_t state = 0;
  TaskModel model = bit_built_model(state);
  const Tensor logits = model.forward(train_input(33));
  Tensor dlogits(logits.shape());
  bit_fill(dlogits, state);
  model.backward(dlogits);
  for (EncoderLayer& layer : model.encoder.layers) {
    for (const nn::Param* p : layer.attn.params()) {
      std::set<float> distinct(p->grad.flat().begin(), p->grad.flat().end());
      EXPECT_GT(distinct.size(), p->grad.size() / 2);
    }
  }
}

}  // namespace
}  // namespace nnlut::transformer
