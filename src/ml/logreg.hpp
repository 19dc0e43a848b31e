// Logistic regression — the "lightweight model" of Algorithm 1.
//
// The classification-threshold adjustment procedure (paper §III-B) labels a
// window's samples with each candidate threshold (the window's inflection
// point, then p − step, p and p + step), trains a logistic regression per
// candidate on a balanced resample, and keeps the threshold whose model
// scores the highest accuracy. This model exists purely to rank thresholds
// cheaply; the deployed Page Classifier is the GRU.
//
// Every call reads its samples as rows of one row-major feature matrix,
// picked by index: resampling and the train/test split shuffle row
// indices, never feature rows. Row r's label is labels[r]. The inner
// loops are the LogReg kernels in kernels.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/tensor.hpp"
#include "util/rng.hpp"

namespace phftl::ml {

class LogisticRegression {
 public:
  struct Config {
    std::size_t input_dim = 20;
    float lr = 0.05f;
    std::size_t epochs = 5;
    std::size_t batch_size = 32;
    float l2 = 1e-4f;
    std::uint64_t seed = 7;
  };

  explicit LogisticRegression(const Config& cfg);

  /// p[k] = probability of the positive (short-living) class for row
  /// rows[k] of `x`.
  void predict_proba(ConstMatView x, std::span<const std::uint32_t> rows,
                     std::span<float> p) const;

  /// Mini-batch SGD training on rows `rows` of `x`.
  void fit(ConstMatView x, std::span<const int> labels,
           std::span<const std::uint32_t> rows);

  /// Accuracy over rows `rows` of `x`.
  float evaluate(ConstMatView x, std::span<const int> labels,
                 std::span<const std::uint32_t> rows) const;

  std::span<const float> weights() const { return w_; }
  float bias() const { return b_; }

 private:
  Config cfg_;
  std::vector<float> w_;
  float b_ = 0.0f;
};

/// Train-test split + fit + held-out accuracy in one call, the exact
/// operation `TrainEvalLightModel` performs in Algorithm 1.
/// `test_fraction` of `rows` (after shuffling) is held out.
float train_eval_light_model(ConstMatView x, std::span<const int> labels,
                             std::span<const std::uint32_t> rows,
                             double test_fraction, Xoshiro256& rng,
                             LogisticRegression::Config cfg = {});

/// Pick the rows of a balanced set of at most `max_per_class` samples per
/// class into `out_rows` — "label and resample to a small, balanced
/// training set" in Algorithm 1. With one class absent, the first
/// min(n, 2 · max_per_class) rows are returned as they are.
void balanced_resample(std::span<const int> labels, std::size_t max_per_class,
                       Xoshiro256& rng, std::vector<std::uint32_t>& out_rows);

}  // namespace phftl::ml
