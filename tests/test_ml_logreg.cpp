#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "ml/logreg.hpp"
#include "util/rng.hpp"

namespace phftl::ml {
namespace {

/// A labelled row-major dataset; rows() selects every row.
struct Dataset {
  explicit Dataset(std::size_t d) : dim(d) {}

  std::size_t dim;
  std::vector<float> x;
  std::vector<int> y;

  void add(std::initializer_list<float> row, int label) {
    x.insert(x.end(), row);
    y.push_back(label);
  }
  ConstMatView view() const { return {x.data(), y.size(), dim}; }
  std::vector<std::uint32_t> rows() const {
    std::vector<std::uint32_t> r(y.size());
    std::iota(r.begin(), r.end(), 0u);
    return r;
  }
};

float proba(const LogisticRegression& model, std::vector<float> x) {
  float p = 0.0f;
  const std::uint32_t row = 0;
  model.predict_proba(ConstMatView(x.data(), 1, x.size()), {&row, 1},
                      {&p, 1});
  return p;
}

TEST(LogisticRegression, LearnsSeparableData) {
  LogisticRegression::Config cfg;
  cfg.input_dim = 2;
  cfg.epochs = 50;
  cfg.lr = 0.3f;
  LogisticRegression model(cfg);

  Xoshiro256 rng(5);
  Dataset d{2};
  for (int i = 0; i < 400; ++i) {
    const float a = static_cast<float>(rng.next_double());
    const float b = static_cast<float>(rng.next_double());
    d.add({a, b}, a + b > 1.0f ? 1 : 0);
  }
  model.fit(d.view(), d.y, d.rows());
  EXPECT_GT(model.evaluate(d.view(), d.y, d.rows()), 0.9f);
}

TEST(LogisticRegression, ProbaIsMonotoneInSignal) {
  LogisticRegression::Config cfg;
  cfg.input_dim = 1;
  cfg.epochs = 60;
  cfg.lr = 0.5f;
  LogisticRegression model(cfg);
  Dataset d{1};
  for (int i = 0; i < 200; ++i) {
    const float v = static_cast<float>(i) / 200.0f;
    d.add({v}, v > 0.5f ? 1 : 0);
  }
  model.fit(d.view(), d.y, d.rows());
  EXPECT_LT(proba(model, {0.1f}), proba(model, {0.9f}));
}

TEST(LogisticRegression, UntrainedPredictsHalf) {
  LogisticRegression::Config cfg;
  cfg.input_dim = 3;
  LogisticRegression model(cfg);
  EXPECT_FLOAT_EQ(proba(model, {1, 2, 3}), 0.5f);
}

TEST(LogisticRegression, TrainsOnlyTheSelectedRows) {
  // Rows outside `rows` must not influence training: poisoning them
  // leaves the weights unchanged.
  Xoshiro256 rng(12);
  Dataset d{3};
  for (int i = 0; i < 64; ++i) {
    const float a = static_cast<float>(rng.next_double());
    d.add({a, 1.0f - a, 0.5f}, a > 0.5f ? 1 : 0);
  }
  std::vector<std::uint32_t> even;
  for (std::uint32_t r = 0; r < 64; r += 2) even.push_back(r);
  LogisticRegression::Config cfg;
  cfg.input_dim = 3;
  LogisticRegression clean(cfg), poisoned(cfg);
  clean.fit(d.view(), d.y, even);
  Dataset bad = d;
  for (std::size_t r = 1; r < 64; r += 2) {
    bad.x[r * 3] = 1e6f;
    bad.y[r] = 1 - bad.y[r];
  }
  poisoned.fit(bad.view(), bad.y, even);
  EXPECT_EQ(clean.bias(), poisoned.bias());
  for (std::size_t j = 0; j < 3; ++j)
    EXPECT_EQ(clean.weights()[j], poisoned.weights()[j]);
}

TEST(BalancedResample, ProducesEqualClassCounts) {
  Xoshiro256 rng(9);
  std::vector<int> y;
  for (int i = 0; i < 90; ++i) y.push_back(i < 80 ? 0 : 1);  // 80 neg, 10 pos
  std::vector<std::uint32_t> rows;
  balanced_resample(y, /*max_per_class=*/64, rng, rows);
  int pos = 0, neg = 0;
  for (const std::uint32_t r : rows) (y[r] ? pos : neg)++;
  EXPECT_EQ(pos, 10);
  EXPECT_EQ(neg, 10);
}

TEST(BalancedResample, CapsPerClass) {
  Xoshiro256 rng(9);
  std::vector<int> y;
  for (int i = 0; i < 200; ++i) y.push_back(i % 2);
  std::vector<std::uint32_t> rows;
  balanced_resample(y, 16, rng, rows);
  EXPECT_EQ(rows.size(), 32u);
}

TEST(BalancedResample, SingleClassDegradesGracefully) {
  Xoshiro256 rng(9);
  const std::vector<int> y{0, 0};
  std::vector<std::uint32_t> rows;
  balanced_resample(y, 16, rng, rows);
  EXPECT_EQ(rows, (std::vector<std::uint32_t>{0, 1}));  // returned as-is
}

TEST(TrainEvalLightModel, HighAccuracyOnSeparableData) {
  Xoshiro256 rng(31);
  Dataset d{1};
  for (int i = 0; i < 300; ++i) {
    const float v = static_cast<float>(rng.next_double());
    d.add({v}, v > 0.5f ? 1 : 0);
  }
  LogisticRegression::Config cfg;
  cfg.epochs = 40;
  cfg.lr = 0.5f;
  const float acc =
      train_eval_light_model(d.view(), d.y, d.rows(), 0.25, rng, cfg);
  EXPECT_GT(acc, 0.85f);
}

TEST(TrainEvalLightModel, RandomLabelsScoreNearChance) {
  Xoshiro256 rng(33);
  Dataset d{1};
  for (int i = 0; i < 400; ++i) {
    const float v = static_cast<float>(rng.next_double());
    d.add({v}, rng.next_bool(0.5) ? 1 : 0);
  }
  const float acc = train_eval_light_model(d.view(), d.y, d.rows(), 0.25, rng);
  EXPECT_LT(acc, 0.65f);
  EXPECT_GT(acc, 0.35f);
}

TEST(TrainEvalLightModel, TinyInputReturnsZero) {
  Xoshiro256 rng(1);
  Dataset d{1};
  d.add({1.0f}, 1);
  EXPECT_EQ(train_eval_light_model(d.view(), d.y, d.rows(), 0.25, rng), 0.0f);
}

// ---- Bit-identity pins ----
//
// Recorded from the per-sample LogReg loops that preceded the flat
// kernels (one std::vector<float> per sample, rows copied by the
// resample and the split). The kernels keep every float operation's
// order, so these values must never move.

/// n rows of d features in [-1, 1); the label is a noisy linear rule.
Dataset pin_dataset(std::size_t n, std::size_t d, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Dataset out{d};
  for (std::size_t i = 0; i < n; ++i) {
    float s = 0.0f;
    for (std::size_t j = 0; j < d; ++j) {
      out.x.push_back(static_cast<float>(rng.next_double() * 2.0 - 1.0));
      if (j % 3 == 0) s += out.x.back();
    }
    out.y.push_back(
        s + static_cast<float>(rng.next_gaussian() * 0.3) > 0.0f ? 1 : 0);
  }
  return out;
}

TEST(LogisticRegression, TrainedWeightsArePinned) {
  // 75 rows in batches of 32: minibatches of 32, 32 and 11 samples, and
  // 11 columns (one full vector and a 3-wide tail).
  const Dataset d = pin_dataset(75, 11, 2024);
  LogisticRegression::Config cfg;
  cfg.input_dim = 11;
  cfg.epochs = 4;
  cfg.lr = 0.3f;
  LogisticRegression model(cfg);
  model.fit(d.view(), d.y, d.rows());
  const float want[11] = {0x1.b7170cp-3f, -0x1.039f82p-3f, 0x1.97b802p-3f,
                          0x1.a7ff54p-2f, -0x1.7ffd2ep-4f, -0x1.c2e822p-4f,
                          0x1.1ecb0ap-2f, -0x1.e98938p-5f, 0x1.d5cf18p-5f,
                          0x1.4355d6p-2f, 0x1.3d733ap-6f};
  for (std::size_t j = 0; j < 11; ++j)
    EXPECT_EQ(model.weights()[j], want[j]) << "w[" << j << "]";
  EXPECT_EQ(model.bias(), -0x1.3e1df6p-3f);
  EXPECT_EQ(model.evaluate(d.view(), d.y, d.rows()), 0x1.a740dap-1f);
  const std::uint32_t row0 = 0;
  float p0 = 0.0f;
  model.predict_proba(d.view(), {&row0, 1}, {&p0, 1});
  EXPECT_EQ(p0, 0x1.e77c7cp-3f);
}

TEST(TrainEvalLightModel, AccuracyAndDrawsArePinned) {
  // Algorithm 1's shape: 38 compact-feature columns, 12 epochs.
  const Dataset d = pin_dataset(203, 38, 77);
  Xoshiro256 rng(41);
  LogisticRegression::Config cfg;
  cfg.epochs = 12;
  cfg.lr = 0.2f;
  EXPECT_EQ(train_eval_light_model(d.view(), d.y, d.rows(), 0.25, rng, cfg),
            0x1.ae147ap-1f);
  EXPECT_EQ(rng.next_below(1000000), 152050u);  // same number of draws
}

TEST(BalancedResample, BalancedBranchRowsArePinned) {
  // The rows the copying resample returned, in its order, and the same
  // RNG state afterwards.
  std::vector<int> y;
  for (int i = 0; i < 30; ++i) y.push_back(i % 3 == 0 ? 1 : 0);
  Xoshiro256 rng(17);
  std::vector<std::uint32_t> rows;
  balanced_resample(y, 6, rng, rows);
  EXPECT_EQ(rows, (std::vector<std::uint32_t>{18, 21, 27, 6, 3, 9, 26, 1, 17,
                                              22, 7, 29}));
  EXPECT_EQ(rng.next_below(1000000), 418695u);
}

TEST(BalancedResample, OneClassBranchRowsArePinned) {
  const std::vector<int> y(20, 1);
  Xoshiro256 rng(17);
  std::vector<std::uint32_t> rows;
  balanced_resample(y, 4, rng, rows);
  EXPECT_EQ(rows, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(rng.next_below(1000000), 657992u);  // no draws
}

}  // namespace
}  // namespace phftl::ml
