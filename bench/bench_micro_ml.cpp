// ML kernel micro-benchmarks (google-benchmark).
//
// Quantifies the §III-C design points:
//   * O(1) incremental prediction from a cached hidden state vs O(N)
//     recomputation of the full feature sequence,
//   * int8-quantized inference vs float inference,
//   * the cost of one window's threshold adjustment and LogReg fit.
// bench_kernels times one window's GRU training epoch.
// The paper tunes one int8 prediction to ~9 µs on a Cortex-A9; on a host
// CPU the same kernel runs in well under a microsecond.
#include <benchmark/benchmark.h>

#include "core/features.hpp"
#include "core/threshold.hpp"
#include "ml/gru.hpp"
#include "ml/logreg.hpp"
#include "ml/qgru.hpp"
#include "util/rng.hpp"

namespace {

using namespace phftl;
using namespace phftl::core;

ml::GruClassifier make_model() {
  ml::GruClassifier::Config cfg;
  cfg.input_dim = kInputDim;
  cfg.hidden_dim = 32;
  return ml::GruClassifier(cfg);
}

std::vector<float> random_input(Xoshiro256& rng) {
  RawFeatures raw;
  raw.prev_lifetime = static_cast<std::uint32_t>(rng.next_below(100000));
  raw.io_len = static_cast<std::uint16_t>(rng.next_below(64));
  raw.chunk_write = static_cast<std::uint16_t>(rng.next_below(256));
  raw.chunk_read = static_cast<std::uint16_t>(rng.next_below(256));
  raw.rw_percent = static_cast<std::uint8_t>(rng.next_below(100));
  raw.is_seq = rng.next_bool(0.3);
  return encode_features(raw);
}

void BM_FloatIncrementalPredict(benchmark::State& state) {
  const auto model = make_model();
  Xoshiro256 rng(1);
  const auto x = random_input(rng);
  std::vector<float> h(32, 0.0f);
  for (auto _ : state)
    benchmark::DoNotOptimize(model.predict_incremental(x, h));
}
BENCHMARK(BM_FloatIncrementalPredict);

void BM_Int8IncrementalPredict(benchmark::State& state) {
  const auto model = make_model();
  const ml::QuantizedGru q(model);
  Xoshiro256 rng(1);
  const auto x = random_input(rng);
  std::vector<std::int8_t> h(32, 0);
  for (auto _ : state)
    benchmark::DoNotOptimize(q.predict_incremental(x, h));
  state.counters["MACs"] = static_cast<double>(q.macs_per_step());
}
BENCHMARK(BM_Int8IncrementalPredict);

void BM_Int8FullSequencePredict(benchmark::State& state) {
  const auto model = make_model();
  const ml::QuantizedGru q(model);
  Xoshiro256 rng(1);
  std::vector<std::vector<float>> seq;
  for (std::int64_t i = 0; i < state.range(0); ++i)
    seq.push_back(random_input(rng));
  for (auto _ : state) benchmark::DoNotOptimize(q.predict_sequence(seq));
}
BENCHMARK(BM_Int8FullSequencePredict)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_FeatureEncoding(benchmark::State& state) {
  RawFeatures raw;
  raw.prev_lifetime = 123456;
  raw.io_len = 16;
  std::vector<float> out(kInputDim);
  for (auto _ : state) {
    encode_features(raw, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FeatureEncoding);

void BM_Quantization(benchmark::State& state) {
  const auto model = make_model();
  for (auto _ : state) {
    ml::QuantizedGru q(model);
    benchmark::DoNotOptimize(q.deployed());
  }
}
BENCHMARK(BM_Quantization);

void BM_ThresholdAdjustment(benchmark::State& state) {
  Xoshiro256 rng(7);
  std::vector<std::uint64_t> lifetimes;
  std::vector<std::vector<float>> feats;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t lt =
        rng.next_bool(0.7) ? 100 + rng.next_below(100)
                           : 5000 + rng.next_below(5000);
    lifetimes.push_back(lt);
    RawFeatures raw;
    raw.prev_lifetime = static_cast<std::uint32_t>(lt);
    feats.push_back(encode_features_compact(raw));
  }
  for (auto _ : state) {
    ThresholdController::Config cfg;
    ThresholdController tc(cfg);
    benchmark::DoNotOptimize(tc.pick_threshold(lifetimes, feats));
    benchmark::DoNotOptimize(tc.pick_threshold(lifetimes, feats));
  }
}
BENCHMARK(BM_ThresholdAdjustment)->Unit(benchmark::kMillisecond);

void BM_LogRegFit(benchmark::State& state) {
  Xoshiro256 rng(9);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 1024; ++i) {
    RawFeatures raw;
    raw.prev_lifetime = static_cast<std::uint32_t>(rng.next_below(10000));
    x.push_back(encode_features_compact(raw));
    y.push_back(raw.prev_lifetime < 2000 ? 1 : 0);
  }
  for (auto _ : state) {
    ml::LogisticRegression::Config cfg;
    cfg.input_dim = kCompactDim;
    ml::LogisticRegression model(cfg);
    model.fit(x, y);
    benchmark::DoNotOptimize(model.bias());
  }
}
BENCHMARK(BM_LogRegFit)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
