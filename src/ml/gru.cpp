#include "ml/gru.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/kernels.hpp"

namespace phftl::ml {

namespace {

// The matrix loops and activations of backward_impl and
// accumulate_gate_grads. ReferenceOps is tensor.hpp's scalar code on the
// row-major weights and the scalar activation bodies, the parity
// reference. KernelOps runs the dispatched kernels (kernels.hpp); their
// gate matvecs read the transposed weights in Workspace::gates_t. Both
// apply the same float operations in the same order to every element, so
// they train bit-identical weights.
struct ReferenceOps {
  static void matvec(ConstMatView w, const float* /*wt*/,
                     std::span<const float> x, std::span<float> y) {
    ml::matvec(w, x, y);
  }
  static void matvec_acc(ConstMatView w, const float* /*wt*/,
                         std::span<const float> x, std::span<float> y) {
    ml::matvec_acc(w, x, y);
  }
  /// dw += g_k ⊗ x_k for k = 0..n-1 (g: [n x dw.rows], x: [n x dw.cols]).
  static void outer_acc_batch(const float* g, const float* x, std::size_t n,
                              MatView dw) {
    for (std::size_t k = 0; k < n; ++k)
      ml::outer_acc({g + k * dw.rows, dw.rows}, {x + k * dw.cols, dw.cols},
                    dw);
  }
  static void matvec_transpose_acc(ConstMatView w, std::span<const float> g,
                                   std::span<float> xg) {
    ml::matvec_transpose_acc(w, g, xg);
  }
  static void sigmoid(std::span<float> v) {
    for (auto& e : v) e = kernels::sigmoid_scalar(e);
  }
  static void tanh(std::span<float> v) {
    for (auto& e : v) e = kernels::tanh_scalar(e);
  }
};

struct KernelOps {
  static void matvec(ConstMatView w, const float* wt,
                     std::span<const float> x, std::span<float> y) {
    PHFTL_CHECK(w.cols == x.size() && w.rows == y.size());
    kernels::matvec_t_f32(wt, w.rows, w.cols, x.data(), y.data());
  }
  static void matvec_acc(ConstMatView w, const float* wt,
                         std::span<const float> x, std::span<float> y) {
    PHFTL_CHECK(w.cols == x.size() && w.rows == y.size());
    kernels::matvec_t_acc_f32(wt, w.rows, w.cols, x.data(), y.data());
  }
  static void outer_acc_batch(const float* g, const float* x, std::size_t n,
                              MatView dw) {
    kernels::outer_acc_batch_f32(g, x, n, dw.rows, dw.cols, dw.data);
  }
  static void matvec_transpose_acc(ConstMatView w, std::span<const float> g,
                                   std::span<float> xg) {
    PHFTL_CHECK(w.rows == g.size() && w.cols == xg.size());
    kernels::matvec_transpose_acc_f32(w.data, w.rows, w.cols, g.data(),
                                      xg.data());
  }
  static void sigmoid(std::span<float> v) {
    kernels::sigmoid_f32(v.data(), v.size());
  }
  static void tanh(std::span<float> v) {
    kernels::tanh_f32(v.data(), v.size());
  }
};

/// Row k of `buf` viewed as `dim` floats, growing `buf` to hold it.
std::span<float> record_row(std::vector<float>& buf, std::size_t k,
                            std::size_t dim) {
  if (buf.size() < (k + 1) * dim) buf.resize((k + 1) * dim);
  return {buf.data() + k * dim, dim};
}

}  // namespace

float softmax_cross_entropy(std::span<const float> logits, int label,
                            std::span<float> probs) {
  PHFTL_CHECK(logits.size() == probs.size());
  std::copy(logits.begin(), logits.end(), probs.begin());
  softmax(probs);
  const float p = probs[static_cast<std::size_t>(label)];
  return -std::log(p > 1e-12f ? p : 1e-12f);
}

GruClassifier::GruClassifier(const Config& cfg)
    : cfg_(cfg),
      adam_(0, cfg.adam),
      wz_(store_.alloc_matrix(cfg.hidden_dim, cfg.input_dim)),
      wr_(store_.alloc_matrix(cfg.hidden_dim, cfg.input_dim)),
      wn_(store_.alloc_matrix(cfg.hidden_dim, cfg.input_dim)),
      uz_(store_.alloc_matrix(cfg.hidden_dim, cfg.hidden_dim)),
      ur_(store_.alloc_matrix(cfg.hidden_dim, cfg.hidden_dim)),
      un_(store_.alloc_matrix(cfg.hidden_dim, cfg.hidden_dim)),
      bz_(store_.alloc_vector(cfg.hidden_dim)),
      br_(store_.alloc_vector(cfg.hidden_dim)),
      bn_(store_.alloc_vector(cfg.hidden_dim)),
      bun_(store_.alloc_vector(cfg.hidden_dim)),
      wo_(store_.alloc_matrix(cfg.num_classes, cfg.hidden_dim)),
      bo_(store_.alloc_vector(cfg.num_classes)) {
  Xoshiro256 rng(cfg.seed);
  for (std::size_t id : {wz_, wr_, wn_, uz_, ur_, un_, wo_})
    store_.init_glorot(id, rng);
  adam_ = Adam(store_.size(), cfg.adam);

  const std::size_t hd = cfg.hidden_dim;
  ws_.z.resize(hd);
  ws_.r.resize(hd);
  ws_.n.resize(hd);
  ws_.s.resize(hd);
  ws_.logits.resize(cfg.num_classes);
  ws_.probs.resize(cfg.num_classes);
  ws_.dlogits.resize(cfg.num_classes);
  ws_.dh.resize(hd);
  ws_.dz.resize(hd);
  ws_.dr.resize(hd);
  ws_.dn.resize(hd);
  ws_.dh_prev.resize(hd);
  ws_.zero_h.assign(hd, 0.0f);  // read-only zeros (t = 0 hidden state)
  ws_.h_seq.resize(hd);
  ws_.gates_t.resize(3 * hd * cfg.input_dim + 3 * hd * hd);
}

void GruClassifier::transpose_gates() {
  float* out = ws_.gates_t.data();
  for (std::size_t id : {wz_, wr_, wn_, uz_, ur_, un_}) {
    const ConstMatView w = store_.param_matrix(id);
    kernels::transpose_f32(w.data, w.rows, w.cols, out);
    out += w.size();
  }
}

void GruClassifier::step(std::span<const float> x,
                         std::span<const float> h_prev,
                         std::span<float> h_next) const {
  const std::size_t h = cfg_.hidden_dim;
  std::vector<float>&z = ws_.z, &r = ws_.r, &n = ws_.n, &s = ws_.s;

  matvec(store_.param_matrix(wz_), x, z);
  matvec_acc(store_.param_matrix(uz_), h_prev, z);
  axpy(1.0f, store_.param_vector(bz_), z);
  kernels::sigmoid_f32(z.data(), h);

  matvec(store_.param_matrix(wr_), x, r);
  matvec_acc(store_.param_matrix(ur_), h_prev, r);
  axpy(1.0f, store_.param_vector(br_), r);
  kernels::sigmoid_f32(r.data(), h);

  matvec(store_.param_matrix(un_), h_prev, s);
  axpy(1.0f, store_.param_vector(bun_), s);
  matvec(store_.param_matrix(wn_), x, n);
  axpy(1.0f, store_.param_vector(bn_), n);
  for (std::size_t i = 0; i < h; ++i) n[i] += r[i] * s[i];
  kernels::tanh_f32(n.data(), h);

  for (std::size_t i = 0; i < h; ++i)
    h_next[i] = (1.0f - z[i]) * n[i] + z[i] * h_prev[i];
}

void GruClassifier::head(std::span<const float> h,
                         std::span<float> logits) const {
  matvec(store_.param_matrix(wo_), h, logits);
  axpy(1.0f, store_.param_vector(bo_), logits);
}

int GruClassifier::predict_sequence(
    const std::vector<std::vector<float>>& steps) const {
  std::vector<float>& h = ws_.h_seq;
  fill(h, 0.0f);
  for (const auto& x : steps) step(x, h, h);
  std::vector<float>& logits = ws_.logits;
  head(h, logits);
  return static_cast<int>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

int GruClassifier::predict_incremental(std::span<const float> x,
                                       std::span<float> h_inout) const {
  step(x, h_inout, h_inout);
  std::vector<float>& logits = ws_.logits;
  head(h_inout, logits);
  return static_cast<int>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

template <class Ops>
float GruClassifier::backward_impl(const Sequence& seq) {
  const std::size_t hd = cfg_.hidden_dim;
  const std::size_t steps = seq.steps.size();
  PHFTL_CHECK(steps > 0);

  // Transposed gate weights, in transpose_gates() order.
  const std::size_t xin = hd * cfg_.input_dim, hh = hd * hd;
  const float* wz_t = ws_.gates_t.data();
  const float* wr_t = wz_t + xin;
  const float* wn_t = wr_t + xin;
  const float* uz_t = wn_t + xin;
  const float* ur_t = uz_t + hh;
  const float* un_t = ur_t + hh;

  // ---- Forward pass, caching activations per step. ----
  // The activation cache and every temporary live in ws_ (see gru.hpp):
  // buffers are fully rewritten before each read, inputs are referenced
  // from seq.steps instead of copied, and `dh = dh_prev` became a swap —
  // none of which changes a single float operation.
  if (ws_.acts.size() < steps) ws_.acts.resize(steps);
  std::span<const float> h_prev = ws_.zero_h;
  for (std::size_t t = 0; t < steps; ++t) {
    StepActs& a = ws_.acts[t];
    const auto& x = seq.steps[t];
    PHFTL_CHECK(x.size() == cfg_.input_dim);
    a.z.resize(hd);
    a.r.resize(hd);
    a.n.resize(hd);
    a.s.resize(hd);
    a.h.resize(hd);

    Ops::matvec(store_.param_matrix(wz_), wz_t, x, a.z);
    Ops::matvec_acc(store_.param_matrix(uz_), uz_t, h_prev, a.z);
    axpy(1.0f, store_.param_vector(bz_), a.z);
    Ops::sigmoid(a.z);

    Ops::matvec(store_.param_matrix(wr_), wr_t, x, a.r);
    Ops::matvec_acc(store_.param_matrix(ur_), ur_t, h_prev, a.r);
    axpy(1.0f, store_.param_vector(br_), a.r);
    Ops::sigmoid(a.r);

    Ops::matvec(store_.param_matrix(un_), un_t, h_prev, a.s);
    axpy(1.0f, store_.param_vector(bun_), a.s);
    Ops::matvec(store_.param_matrix(wn_), wn_t, x, a.n);
    axpy(1.0f, store_.param_vector(bn_), a.n);
    for (std::size_t i = 0; i < hd; ++i) a.n[i] += a.r[i] * a.s[i];
    Ops::tanh(a.n);

    for (std::size_t i = 0; i < hd; ++i)
      a.h[i] = (1.0f - a.z[i]) * a.n[i] + a.z[i] * h_prev[i];
    h_prev = a.h;
  }

  // ---- Head + loss. ----
  std::vector<float>& logits = ws_.logits;
  std::vector<float>& probs = ws_.probs;
  const StepActs& last = ws_.acts[steps - 1];
  head(last.h, logits);
  const float loss = softmax_cross_entropy(logits, seq.label, probs);

  // dlogits = probs - onehot(label)
  std::vector<float>& dlogits = ws_.dlogits;
  std::copy(probs.begin(), probs.end(), dlogits.begin());
  dlogits[static_cast<std::size_t>(seq.label)] -= 1.0f;

  Ops::outer_acc_batch(dlogits.data(), last.h.data(), 1,
                       store_.grad_matrix(wo_));
  axpy(1.0f, dlogits, store_.grad_vector(bo_));

  fill(ws_.dh, 0.0f);
  Ops::matvec_transpose_acc(store_.param_matrix(wo_), dlogits, ws_.dh);

  // ---- BPTT. ----
  // The chain produces each step's gate gradients. The weight gradients
  // they feed (outer products with x_t and h_{t-1}) never feed back into
  // it, so each step is appended to the records and accumulate_gate_grads()
  // adds them later, in the same order.
  std::vector<float>&dz = ws_.dz, &dr = ws_.dr, &dn = ws_.dn;
  for (std::size_t ti = steps; ti-- > 0;) {
    std::vector<float>& dh = ws_.dh;
    std::vector<float>& dh_prev = ws_.dh_prev;
    const StepActs& a = ws_.acts[ti];
    const auto& x = seq.steps[ti];
    std::span<const float> h_before =
        ti == 0 ? std::span<const float>(ws_.zero_h)
                : std::span<const float>(ws_.acts[ti - 1].h);

    const std::size_t k = ws_.records++;
    std::span<float> dan = record_row(ws_.rec_dan, k, hd);
    std::span<float> ds = record_row(ws_.rec_ds, k, hd);
    std::span<float> daz = record_row(ws_.rec_daz, k, hd);
    std::span<float> dar = record_row(ws_.rec_dar, k, hd);
    std::ranges::copy(x, record_row(ws_.rec_x, k, cfg_.input_dim).begin());
    std::ranges::copy(h_before, record_row(ws_.rec_h, k, hd).begin());

    fill(dh_prev, 0.0f);
    for (std::size_t i = 0; i < hd; ++i) {
      dz[i] = dh[i] * (h_before[i] - a.n[i]);
      dn[i] = dh[i] * (1.0f - a.z[i]);
      dh_prev[i] = dh[i] * a.z[i];
    }
    for (std::size_t i = 0; i < hd; ++i) {
      dan[i] = dn[i] * (1.0f - a.n[i] * a.n[i]);
      dr[i] = dan[i] * a.s[i];
      ds[i] = dan[i] * a.r[i];
      daz[i] = dz[i] * a.z[i] * (1.0f - a.z[i]);
      dar[i] = dr[i] * a.r[i] * (1.0f - a.r[i]);
    }

    axpy(1.0f, dan, store_.grad_vector(bn_));
    axpy(1.0f, ds, store_.grad_vector(bun_));
    Ops::matvec_transpose_acc(store_.param_matrix(un_), ds, dh_prev);

    axpy(1.0f, daz, store_.grad_vector(bz_));
    Ops::matvec_transpose_acc(store_.param_matrix(uz_), daz, dh_prev);

    axpy(1.0f, dar, store_.grad_vector(br_));
    Ops::matvec_transpose_acc(store_.param_matrix(ur_), dar, dh_prev);

    std::swap(ws_.dh, ws_.dh_prev);
  }
  return loss;
}

template <class Ops>
void GruClassifier::accumulate_gate_grads() {
  const std::size_t n = ws_.records;
  const float* x = ws_.rec_x.data();
  const float* h = ws_.rec_h.data();
  Ops::outer_acc_batch(ws_.rec_dan.data(), x, n, store_.grad_matrix(wn_));
  Ops::outer_acc_batch(ws_.rec_ds.data(), h, n, store_.grad_matrix(un_));
  Ops::outer_acc_batch(ws_.rec_daz.data(), x, n, store_.grad_matrix(wz_));
  Ops::outer_acc_batch(ws_.rec_daz.data(), h, n, store_.grad_matrix(uz_));
  Ops::outer_acc_batch(ws_.rec_dar.data(), x, n, store_.grad_matrix(wr_));
  Ops::outer_acc_batch(ws_.rec_dar.data(), h, n, store_.grad_matrix(ur_));
  ws_.records = 0;
}

template <class Ops>
float GruClassifier::train_epoch_impl(const std::vector<Sequence>& data,
                                      std::size_t batch_size,
                                      Xoshiro256& rng) {
  if (data.empty()) return 0.0f;
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  deterministic_shuffle(order, rng);

  double total_loss = 0.0;
  std::size_t pos = 0;
  while (pos < order.size()) {
    const std::size_t end = std::min(pos + batch_size, order.size());
    store_.zero_grads();
    transpose_gates();
    for (std::size_t i = pos; i < end; ++i)
      total_loss += backward_impl<Ops>(data[order[i]]);
    accumulate_gate_grads<Ops>();
    // Average the batch gradient.
    const float inv = 1.0f / static_cast<float>(end - pos);
    for (auto& g : store_.all_grads()) g *= inv;
    adam_.step(store_.all_params(), store_.all_grads());
    pos = end;
  }
  return static_cast<float>(total_loss / static_cast<double>(data.size()));
}

float GruClassifier::backward_sequence(const Sequence& seq) {
  transpose_gates();
  const float loss = backward_impl<KernelOps>(seq);
  accumulate_gate_grads<KernelOps>();
  return loss;
}

float GruClassifier::train_epoch(const std::vector<Sequence>& data,
                                 std::size_t batch_size, Xoshiro256& rng) {
  return train_epoch_impl<KernelOps>(data, batch_size, rng);
}

float GruClassifier::train_epoch_reference(const std::vector<Sequence>& data,
                                           std::size_t batch_size,
                                           Xoshiro256& rng) {
  return train_epoch_impl<ReferenceOps>(data, batch_size, rng);
}

float GruClassifier::evaluate(const std::vector<Sequence>& data) const {
  if (data.empty()) return 0.0f;
  std::size_t correct = 0;
  for (const auto& s : data)
    if (predict_sequence(s.steps) == s.label) ++correct;
  return static_cast<float>(correct) / static_cast<float>(data.size());
}

}  // namespace phftl::ml
