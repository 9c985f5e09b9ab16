// Numeric drift guard across commits. Every other determinism suite
// compares two paths of the same build, so a change that moves the numerics
// of both sides passes them silently. This suite pins the raw bits of
// InferenceModel::logits to fingerprints checked in under tests/golden/.
//
// The models are bit-built: every TaskModel::params() tensor is filled from
// a splitmix64 stream through exact integer-to-float conversions, so no
// libm call feeds the weights. The I-BERT backend runs (its kernels use
// floor/round/sqrt, which IEEE-754 rounds exactly) and so does the LUT
// backend at FP32/FP16/INT32. Its four tables are the fitted ones, stored
// as hex floats under tests/golden/ and parsed exactly by load_lut, so no
// libm call runs at test time. (Bit-built tables from bit_built.h are no
// use here: their random spec ranges turn every logit into NaN.)
// ExactNonlinearities is excluded because its erf/exp/tanh results differ
// between libms.
//
// A deliberate numeric change must update tests/golden/logits_fnv1a.txt in
// the same diff (the failure message prints the new line) and say why in
// CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>

#include "bit_built.h"
#include "core/lut_kernel_simd.h"
#include "core/serialization.h"
#include "runtime/thread_pool.h"
#include "transformer/infer.h"

namespace nnlut::transformer {
namespace {

using test::bit_built_float;
using test::splitmix64;

ModelConfig golden_config() {
  ModelConfig c = ModelConfig::roberta_like();
  c.vocab = 64;
  c.hidden = 64;
  c.layers = 2;
  c.heads = 4;
  c.ffn = 128;
  c.max_seq = 128;
  return c;
}

TaskModel golden_model() {
  Rng init(1);  // overwritten below; the constructor only sizes the tensors
  TaskModel m(golden_config(), HeadKind::kSpan, 2, init);
  std::uint64_t state = 0x6e6e6c7574676f6cull;
  for (nn::Param* p : m.params())
    for (float& v : p->value.flat()) v = bit_built_float(state);
  return m;
}

BatchInput golden_input(std::size_t batch, std::size_t seq) {
  std::uint64_t state = 0x746f6b656e73ull + seq;
  BatchInput in;
  in.batch = batch;
  in.seq = seq;
  for (std::size_t i = 0; i < batch * seq; ++i) {
    in.token_ids.push_back(
        static_cast<int>(splitmix64(state) % golden_config().vocab));
    in.type_ids.push_back(static_cast<int>(splitmix64(state) & 1u));
  }
  return in;
}

std::uint64_t fnv1a_bits(const Tensor& t) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const float v : t.flat()) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

const char* mode_name(MatmulMode mode) {
  switch (mode) {
    case MatmulMode::kFp32:
      return "fp32";
    case MatmulMode::kFp16:
      return "fp16";
    case MatmulMode::kInt8:
      return "int8";
  }
  return "?";
}

using Key = std::tuple<std::string, std::string, std::size_t>;

std::filesystem::path golden_dir() {
  return std::filesystem::path(__FILE__).parent_path() / "golden";
}

std::filesystem::path golden_path() {
  return golden_dir() / "logits_fnv1a.txt";
}

/// The fitted GELU / exp / reciprocal / 1/sqrt tables.
LutSet golden_luts() {
  const auto lut = [](const char* name) {
    return load_lut((golden_dir() / name).string());
  };
  return {lut("gelu.lut"), lut("exp.lut"), lut("div.lut"), lut("rsqrt.lut")};
}

std::unique_ptr<NonlinearitySet> lut_backend(LutPrecision precision) {
  LutNonlinearities::Options opt;
  opt.act = golden_config().act;
  return make_lut_backend(golden_luts(), precision, opt);
}

/// Lines "<backend> <mode> <seq> <16 hex digits>"; '#' starts a comment.
std::map<Key, std::uint64_t> load_golden() {
  std::map<Key, std::uint64_t> out;
  std::ifstream f(golden_path());
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string backend, mode, hex;
    std::size_t seq = 0;
    ls >> backend >> mode >> seq >> hex;
    out[{backend, mode, seq}] = std::stoull(hex, nullptr, 16);
  }
  return out;
}

std::string golden_line(const Key& key, std::uint64_t h) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  return std::get<0>(key) + " " + std::get<1>(key) + " " +
         std::to_string(std::get<2>(key)) + " " + hex;
}

constexpr MatmulMode kModes[] = {MatmulMode::kFp32, MatmulMode::kFp16,
                                 MatmulMode::kInt8};
constexpr std::size_t kSeqs[] = {1, 17, 128};
constexpr std::size_t kBatch = 2;

// Backends with lines in the golden file: ibert, lut_fp32, lut_fp16,
// lut_int32.
constexpr std::size_t kBackends = 4;

/// Every ISA tier and pool size must reproduce the checked-in bits of
/// backend `name` for every matmul mode and sequence length.
void expect_golden(const std::string& name, NonlinearitySet& nl) {
  const std::map<Key, std::uint64_t> golden = load_golden();
  ASSERT_FALSE(golden.empty()) << "cannot read " << golden_path();
  EXPECT_EQ(golden.size(), kBackends * std::size(kModes) * std::size(kSeqs))
      << "golden file has missing or stale lines";
  const TaskModel model = golden_model();
  for (const simd::SimdTier tier : simd::available_simd_tiers()) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      runtime::set_runtime_config({threads, tier});
      for (const MatmulMode mode : kModes) {
        InferenceModel infer(model, nl, mode);
        for (const std::size_t seq : kSeqs) {
          const Key key{name, mode_name(mode), seq};
          const std::uint64_t h =
              fnv1a_bits(infer.logits(golden_input(kBatch, seq)));
          const auto it = golden.find(key);
          if (it == golden.end()) {
            ADD_FAILURE() << "missing golden line: " << golden_line(key, h);
            continue;
          }
          EXPECT_EQ(h, it->second)
              << "logits drifted at tier " << simd::simd_tier_name(tier)
              << ", " << threads << " threads; new line: "
              << golden_line(key, h);
        }
      }
    }
  }
  runtime::set_runtime_config({});
}

TEST(GoldenLogits, IBertMatchesCheckedInFingerprints) {
  IBertNonlinearities ibert(golden_config().act);
  expect_golden("ibert", ibert);
}

TEST(GoldenLogits, LutFp32MatchesCheckedInFingerprints) {
  expect_golden("lut_fp32", *lut_backend(LutPrecision::kFp32));
}

TEST(GoldenLogits, LutFp16MatchesCheckedInFingerprints) {
  expect_golden("lut_fp16", *lut_backend(LutPrecision::kFp16));
}

TEST(GoldenLogits, LutInt32MatchesCheckedInFingerprints) {
  expect_golden("lut_int32", *lut_backend(LutPrecision::kInt32));
}

TEST(GoldenLogits, BitBuiltModelIsNotDegenerate) {
  const TaskModel model = golden_model();
  const std::unique_ptr<NonlinearitySet> ibert =
      std::make_unique<IBertNonlinearities>(model.config().act);
  const std::unique_ptr<NonlinearitySet> lut = lut_backend(LutPrecision::kFp32);
  for (NonlinearitySet* nl : {ibert.get(), lut.get()}) {
    InferenceModel infer(model, *nl);
    const Tensor logits = infer.logits(golden_input(kBatch, 17));
    std::map<float, int> distinct;
    for (const float v : logits.flat()) ++distinct[v];
    EXPECT_GT(distinct.size(), logits.size() / 2);
  }
}

}  // namespace
}  // namespace nnlut::transformer
