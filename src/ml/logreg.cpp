#include "ml/logreg.hpp"

#include <algorithm>

#include "ml/kernels.hpp"
#include "util/assert.hpp"

namespace phftl::ml {

LogisticRegression::LogisticRegression(const Config& cfg)
    : cfg_(cfg), w_(cfg.input_dim, 0.0f) {}

void LogisticRegression::predict_proba(ConstMatView x,
                                       std::span<const std::uint32_t> rows,
                                       std::span<float> p) const {
  PHFTL_CHECK(x.cols == w_.size() && p.size() == rows.size());
  for (const std::uint32_t r : rows) PHFTL_CHECK(r < x.rows);
  kernels::logreg_proba_f32(x, rows, w_.data(), b_, p.data());
}

void LogisticRegression::fit(ConstMatView x, std::span<const int> labels,
                             std::span<const std::uint32_t> rows) {
  PHFTL_CHECK(x.cols == w_.size() && labels.size() == x.rows);
  for (const std::uint32_t r : rows) PHFTL_CHECK(r < x.rows);
  if (rows.empty()) return;
  Xoshiro256 rng(cfg_.seed);
  // Shuffling the row indices applies the same swaps as shuffling
  // positions 0..n-1, so each minibatch is a contiguous slice of `order`.
  std::vector<std::uint32_t> order(rows.begin(), rows.end());

  std::vector<float> gw(w_.size());
  std::vector<float> err(cfg_.batch_size);
  for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    deterministic_shuffle(order, rng);
    std::size_t pos = 0;
    while (pos < order.size()) {
      const std::size_t end = std::min(pos + cfg_.batch_size, order.size());
      const std::span<const std::uint32_t> batch(order.data() + pos,
                                                 end - pos);
      // The weights are fixed within the minibatch: all its probabilities
      // first, then the gradient in batch order.
      kernels::logreg_proba_f32(x, batch, w_.data(), b_, err.data());
      float gb = 0.0f;
      for (std::size_t k = 0; k < batch.size(); ++k) {
        err[k] -= static_cast<float>(labels[batch[k]]);
        gb += err[k];
      }
      std::fill(gw.begin(), gw.end(), 0.0f);
      kernels::logreg_grad_f32(x, batch, err.data(), gw.data());
      const float inv = 1.0f / static_cast<float>(batch.size());
      for (std::size_t j = 0; j < w_.size(); ++j)
        w_[j] -= cfg_.lr * (gw[j] * inv + cfg_.l2 * w_[j]);
      b_ -= cfg_.lr * gb * inv;
      pos = end;
    }
  }
}

float LogisticRegression::evaluate(ConstMatView x, std::span<const int> labels,
                                   std::span<const std::uint32_t> rows) const {
  PHFTL_CHECK(labels.size() == x.rows);
  if (rows.empty()) return 0.0f;
  std::vector<float> p(rows.size());
  predict_proba(x, rows, p);
  std::size_t correct = 0;
  for (std::size_t k = 0; k < rows.size(); ++k)
    if ((p[k] >= 0.5f ? 1 : 0) == labels[rows[k]]) ++correct;
  return static_cast<float>(correct) / static_cast<float>(rows.size());
}

void balanced_resample(std::span<const int> labels, std::size_t max_per_class,
                       Xoshiro256& rng, std::vector<std::uint32_t>& out_rows) {
  out_rows.clear();
  std::vector<std::uint32_t> pos_idx, neg_idx;
  for (std::size_t i = 0; i < labels.size(); ++i)
    (labels[i] ? pos_idx : neg_idx).push_back(static_cast<std::uint32_t>(i));
  if (pos_idx.empty() || neg_idx.empty()) {
    // Degenerate window: nothing to balance; return as-is (capped).
    const std::size_t n = std::min(labels.size(), 2 * max_per_class);
    for (std::size_t i = 0; i < n; ++i)
      out_rows.push_back(static_cast<std::uint32_t>(i));
    return;
  }
  const std::size_t per_class =
      std::min({max_per_class, pos_idx.size(), neg_idx.size()});
  auto draw = [&](std::vector<std::uint32_t>& pool) {
    // Sample without replacement when possible (partial Fisher-Yates).
    for (std::size_t k = 0; k < per_class; ++k) {
      const std::size_t j = k + rng.next_below(pool.size() - k);
      std::swap(pool[k], pool[j]);
      out_rows.push_back(pool[k]);
    }
  };
  draw(pos_idx);
  draw(neg_idx);
}

float train_eval_light_model(ConstMatView x, std::span<const int> labels,
                             std::span<const std::uint32_t> rows,
                             double test_fraction, Xoshiro256& rng,
                             LogisticRegression::Config cfg) {
  if (rows.size() < 4) return 0.0f;
  // Shuffled row indices: the first n_train train, the rest test.
  std::vector<std::uint32_t> order(rows.begin(), rows.end());
  deterministic_shuffle(order, rng);

  const auto n_test = static_cast<std::size_t>(
      static_cast<double>(rows.size()) * test_fraction);
  const std::size_t n_train = rows.size() - std::max<std::size_t>(n_test, 1);
  const std::span<const std::uint32_t> train(order.data(), n_train);
  const std::span<const std::uint32_t> test(order.data() + n_train,
                                            order.size() - n_train);
  if (train.empty() || test.empty()) return 0.0f;
  cfg.input_dim = x.cols;
  LogisticRegression model(cfg);
  model.fit(x, labels, train);
  return model.evaluate(x, labels, test);
}

}  // namespace phftl::ml
