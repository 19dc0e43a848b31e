// Kernel layer: exactness against the reference scalar paths.
//
// The fused int8 kernels accumulate in int32, so their results must be *bit
// identical* to the naive loops regardless of which dispatch target (scalar
// or AVX2) runs — these tests assert that, both at the GEMV level and
// end-to-end through QuantizedGru::predict_incremental. The float training
// kernels keep every output element's operation order, so they too must
// match tensor.hpp's loops bit for bit, tails and zero rows included. The
// activations' vector body must return the scalar body's bits for every
// input, specials included, and stay within a pinned error of libm. The
// LogReg kernels' vector bodies must store the scalar bodies' bits for
// every feature width and sample count, specials included.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "ml/gru.hpp"
#include "ml/kernels.hpp"
#include "ml/qgru.hpp"
#include "util/rng.hpp"

namespace phftl::ml {
namespace {

std::vector<std::int8_t> random_i8(std::size_t n, Xoshiro256& rng) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v)
    x = static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) - 127);
  return v;
}

std::vector<float> random_unit_vec(std::size_t n, Xoshiro256& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.next_double());
  return v;
}

TEST(PackedGates3, LayoutInterleavesRowsAndZeroPads) {
  // 2 rows x 3 cols, three distinct matrices.
  const std::int8_t g0[] = {1, 2, 3, 4, 5, 6};
  const std::int8_t g1[] = {10, 20, 30, 40, 50, 60};
  const std::int8_t g2[] = {-1, -2, -3, -4, -5, -6};
  const auto p = kernels::pack_gates3(g0, g1, g2, 2, 3);
  EXPECT_EQ(p.rows, 2u);
  EXPECT_EQ(p.cols, 3u);
  EXPECT_EQ(p.stride % kernels::kLaneAlign, 0u);
  // Row block r holds gate-0, gate-1, gate-2 rows back to back.
  EXPECT_EQ(p.row_block(1)[0], 4);
  EXPECT_EQ(p.row_block(1)[p.stride + 1], 50);
  EXPECT_EQ(p.row_block(1)[2 * p.stride + 2], -6);
  // Padding beyond the logical columns is zero.
  for (std::size_t c = 3; c < p.stride; ++c)
    EXPECT_EQ(p.row_block(0)[c], 0) << "col " << c;
}

TEST(FusedGemv3, MatchesReferenceGemvExactly) {
  Xoshiro256 rng(11);
  // Odd shapes exercise the stride padding; larger ones the unrolled loops.
  const std::size_t shapes[][2] = {{1, 1},  {3, 5},   {16, 6},
                                   {32, 32}, {32, 20}, {24, 7},
                                   {40, 33}, {64, 96}};
  for (const auto& shape : shapes) {
    const std::size_t rows = shape[0], cols = shape[1];
    const auto g0 = random_i8(rows * cols, rng);
    const auto g1 = random_i8(rows * cols, rng);
    const auto g2 = random_i8(rows * cols, rng);
    const auto p = kernels::pack_gates3(g0.data(), g1.data(), g2.data(), rows,
                                        cols);
    // x padded to the stride with zeros, as the kernel contract requires.
    std::vector<std::int8_t> x(p.stride, 0);
    const auto xv = random_i8(cols, rng);
    std::copy(xv.begin(), xv.end(), x.begin());

    std::vector<std::int32_t> out0(rows), out1(rows), out2(rows);
    kernels::fused_gemv3_i8(p, x.data(), out0.data(), out1.data(),
                            out2.data());
    std::vector<std::int32_t> ref0(rows), ref1(rows), ref2(rows);
    kernels::gemv_i8_ref(g0.data(), rows, cols, x.data(), ref0.data());
    kernels::gemv_i8_ref(g1.data(), rows, cols, x.data(), ref1.data());
    kernels::gemv_i8_ref(g2.data(), rows, cols, x.data(), ref2.data());
    EXPECT_EQ(out0, ref0) << rows << "x" << cols;
    EXPECT_EQ(out1, ref1) << rows << "x" << cols;
    EXPECT_EQ(out2, ref2) << rows << "x" << cols;
  }
}

/// End-to-end parity: the fused predict_incremental must return the same
/// class and leave the same int8 hidden state as the retained reference
/// implementation, bit for bit, over randomized models and sequences.
TEST(QuantizedGruFused, BitExactAgainstReferenceAcrossRandomModels) {
  Xoshiro256 rng(2027);
  const std::size_t dims[][2] = {{6, 16}, {20, 32}, {7, 24}, {33, 40}};
  for (const auto& d : dims) {
    GruClassifier::Config cfg;
    cfg.input_dim = d[0];
    cfg.hidden_dim = d[1];
    cfg.seed = 100 + d[0];
    const GruClassifier model(cfg);
    QuantizedGru q(model);
    q.set_decision_bias(static_cast<float>(rng.next_gaussian()));

    for (int trial = 0; trial < 10; ++trial) {
      std::vector<std::int8_t> h_fused(q.hidden_dim(), 0);
      std::vector<std::int8_t> h_ref(q.hidden_dim(), 0);
      for (int t = 0; t < 12; ++t) {
        const auto x = random_unit_vec(d[0], rng);
        const int cls_fused = q.predict_incremental(x, h_fused);
        const int cls_ref = q.predict_incremental_reference(x, h_ref);
        ASSERT_EQ(cls_fused, cls_ref)
            << "dims " << d[0] << "x" << d[1] << " trial " << trial
            << " step " << t;
        ASSERT_EQ(0, std::memcmp(h_fused.data(), h_ref.data(),
                                 h_fused.size()))
            << "hidden state diverged at dims " << d[0] << "x" << d[1]
            << " trial " << trial << " step " << t;
      }
    }
  }
}

/// Parity must also hold for a *trained* model (weights far from init) and
/// across redeployments.
TEST(QuantizedGruFused, BitExactAfterTraining) {
  GruClassifier::Config cfg;
  cfg.input_dim = 6;
  cfg.hidden_dim = 16;
  cfg.seed = 21;
  GruClassifier model(cfg);
  Xoshiro256 rng(77);
  std::vector<Sequence> data;
  for (int i = 0; i < 200; ++i) {
    Sequence s;
    for (int t = 0; t < 4; ++t) s.steps.push_back(random_unit_vec(6, rng));
    s.label = s.steps.back()[0] > 0.5f ? 1 : 0;
    data.push_back(std::move(s));
  }
  Xoshiro256 train_rng(4);
  for (int e = 0; e < 10; ++e) model.train_epoch(data, 32, train_rng);

  const QuantizedGru q(model);
  std::vector<std::int8_t> h_fused(q.hidden_dim(), 0);
  std::vector<std::int8_t> h_ref(q.hidden_dim(), 0);
  for (int t = 0; t < 64; ++t) {
    const auto x = random_unit_vec(6, rng);
    ASSERT_EQ(q.predict_incremental(x, h_fused),
              q.predict_incremental_reference(x, h_ref));
    ASSERT_EQ(0, std::memcmp(h_fused.data(), h_ref.data(), h_fused.size()));
  }
}

// ---- Float training kernels vs tensor.hpp ----

/// Values in [-1, 1) with exact 0.0f and -0.0f mixed in.
std::vector<float> random_signed_vec(std::size_t n, Xoshiro256& rng) {
  std::vector<float> v(n);
  for (auto& x : v) {
    const double u = rng.next_double();
    if (u < 0.1) x = 0.0f;
    else if (u < 0.2) x = -0.0f;
    else x = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  }
  return v;
}

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// {rows, cols}: below, at and above one 8-lane block and the 32-row block,
// with every tail length.
const std::size_t kFloatShapes[][2] = {
    {1, 1},   {4, 3},   {6, 4},   {9, 5},   {7, 8},   {8, 8},  {32, 20},
    {32, 32}, {2, 32},  {33, 17}, {40, 7},  {31, 39}, {64, 96}, {3, 70}};

TEST(TrainKernels, MatvecTransposedMatchesMatvecExactly) {
  Xoshiro256 rng(5);
  for (const auto& shape : kFloatShapes) {
    const std::size_t rows = shape[0], cols = shape[1];
    const auto w = random_signed_vec(rows * cols, rng);
    const auto x = random_signed_vec(cols, rng);
    std::vector<float> wt(rows * cols);
    kernels::transpose_f32(w.data(), rows, cols, wt.data());
    const ConstMatView wv(w.data(), rows, cols);

    std::vector<float> ref(rows), out(rows, 7.0f);
    matvec(wv, x, ref);
    kernels::matvec_t_f32(wt.data(), rows, cols, x.data(), out.data());
    EXPECT_TRUE(bit_equal(out, ref)) << "matvec " << rows << "x" << cols;

    const auto y0 = random_signed_vec(rows, rng);
    std::vector<float> ref_acc = y0, out_acc = y0;
    matvec_acc(wv, x, ref_acc);
    kernels::matvec_t_acc_f32(wt.data(), rows, cols, x.data(),
                              out_acc.data());
    EXPECT_TRUE(bit_equal(out_acc, ref_acc))
        << "matvec_acc " << rows << "x" << cols;
  }
}

TEST(TrainKernels, OuterAccBatchMatchesReferenceExactly) {
  // A batch of n outer products must equal n outer_acc calls in order,
  // into a dw that holds signed zeros, as a gradient buffer does.
  Xoshiro256 rng(6);
  for (const auto& shape : kFloatShapes) {
    const std::size_t rows = shape[0], cols = shape[1];
    for (const std::size_t n : {1u, 3u, 40u}) {
      const auto g = random_signed_vec(n * rows, rng);
      const auto x = random_signed_vec(n * cols, rng);
      std::vector<float> ref = random_signed_vec(rows * cols, rng);
      std::vector<float> out = ref;
      for (std::size_t k = 0; k < n; ++k)
        outer_acc({g.data() + k * rows, rows}, {x.data() + k * cols, cols},
                  MatView{ref.data(), rows, cols});
      kernels::outer_acc_batch_f32(g.data(), x.data(), n, rows, cols,
                                   out.data());
      EXPECT_TRUE(bit_equal(out, ref)) << rows << "x" << cols << " n " << n;
    }
  }
}

TEST(TrainKernels, MatvecTransposeAccMatchesReferenceExactly) {
  Xoshiro256 rng(7);
  for (const auto& shape : kFloatShapes) {
    const std::size_t rows = shape[0], cols = shape[1];
    const auto w = random_signed_vec(rows * cols, rng);
    const auto g = random_signed_vec(rows, rng);
    std::vector<float> ref = random_signed_vec(cols, rng);
    std::vector<float> out = ref;
    matvec_transpose_acc(ConstMatView(w.data(), rows, cols), g, ref);
    kernels::matvec_transpose_acc_f32(w.data(), rows, cols, g.data(),
                                      out.data());
    EXPECT_TRUE(bit_equal(out, ref)) << rows << "x" << cols;
  }
}

TEST(TrainKernels, AllZeroGradientRowsLeaveOutputsUntouched) {
  // The reference skips rows whose gradient is ±0. Without that skip a
  // -0.0f accumulator would turn into +0.0f, so the kernels must skip too.
  Xoshiro256 rng(8);
  for (const auto& shape : kFloatShapes) {
    const std::size_t rows = shape[0], cols = shape[1];
    std::vector<float> g(rows, 0.0f);
    for (std::size_t r = 1; r < rows; r += 2) g[r] = -0.0f;
    const auto w = random_signed_vec(rows * cols, rng);
    const auto x = random_signed_vec(cols, rng);

    std::vector<float> dw(rows * cols, -0.0f);
    const auto dw0 = dw;
    kernels::outer_acc_batch_f32(g.data(), x.data(), 1, rows, cols,
                                 dw.data());
    EXPECT_TRUE(bit_equal(dw, dw0)) << "outer " << rows << "x" << cols;

    std::vector<float> xg(cols, -0.0f);
    const auto xg0 = xg;
    kernels::matvec_transpose_acc_f32(w.data(), rows, cols, g.data(),
                                      xg.data());
    EXPECT_TRUE(bit_equal(xg, xg0)) << "transpose " << rows << "x" << cols;
  }
}

// ---- Activations ----

// kernels.cpp's tanh clamp, where the rational reaches exactly ±1.
constexpr float kTanhClamp = 7.90531110763549805f;

/// The special inputs, then a dense grid over [-20, 20]. The specials
/// come first so they fill whole vectors, not the scalar tail: signed
/// zeros, denormals, both sides of the tanh clamp and of sigmoid's (twice
/// the tanh clamp), ±FLT_MAX, ±inf and NaNs.
std::vector<float> activation_inputs() {
  std::vector<float> v;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const float x :
       {0.0f, FLT_TRUE_MIN, FLT_MIN / 2, FLT_MIN, kTanhClamp,
        std::nextafter(kTanhClamp, 0.0f), std::nextafter(kTanhClamp, inf),
        2 * kTanhClamp, std::nextafter(2 * kTanhClamp, 0.0f),
        std::nextafter(2 * kTanhClamp, inf), FLT_MAX, inf, nan}) {
    v.push_back(x);
    v.push_back(-x);
  }
  v.push_back(std::numeric_limits<float>::signaling_NaN());
  constexpr int kSteps = 1 << 17;
  for (int i = 0; i <= kSteps; ++i)
    v.push_back(-20.0f + 40.0f * static_cast<float>(i) / kSteps);
  return v;
}

/// One vector call over all of `in`.
std::vector<float> activate(const std::vector<float>& in, bool sigmoid) {
  std::vector<float> out = in;
  if (sigmoid) kernels::sigmoid_f32(out.data(), out.size());
  else kernels::tanh_f32(out.data(), out.size());
  return out;
}

TEST(Activations, VectorBodyMatchesScalarBodyBitForBit) {
  const auto in = activation_inputs();
  ASSERT_NE(in.size() % 8, 0u);  // a partial last vector runs too
  for (const bool sigmoid : {false, true}) {
    const auto out = activate(in, sigmoid);
    for (std::size_t i = 0; i < in.size(); ++i) {
      const float ref = sigmoid ? kernels::sigmoid_scalar(in[i])
                                : kernels::tanh_scalar(in[i]);
      ASSERT_EQ(0, std::memcmp(&out[i], &ref, sizeof(float)))
          << (sigmoid ? "sigmoid(" : "tanh(") << in[i] << "): vector "
          << out[i] << " scalar " << ref << " (avx2 "
          << kernels::activations_use_avx2() << ")";
    }
  }
}

TEST(Activations, MaxErrorAgainstDoubleLibmWithin2e6) {
  double max_tanh = 0.0, max_sigmoid = 0.0;
  for (const float x : activation_inputs()) {
    if (std::isnan(x)) continue;
    const double d = x;
    max_tanh = std::max(
        max_tanh, std::fabs(kernels::tanh_scalar(x) - std::tanh(d)));
    max_sigmoid =
        std::max(max_sigmoid, std::fabs(kernels::sigmoid_scalar(x) -
                                        1.0 / (1.0 + std::exp(-d))));
  }
  EXPECT_LE(max_tanh, 2e-6);
  EXPECT_LE(max_sigmoid, 2e-6);
}

TEST(Activations, RangeSymmetryAndSpecials) {
  // qgru.hpp's int8 hidden state assumes |tanh| <= 1 and sigmoid in
  // [0, 1], so that (1 - z) n + z h stays in [-1, 1].
  const auto in = activation_inputs();
  const auto t = activate(in, false);
  const auto s = activate(in, true);
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (std::isnan(in[i])) {
      EXPECT_TRUE(std::isnan(t[i]) && std::isnan(s[i])) << i;
      continue;
    }
    EXPECT_TRUE(t[i] >= -1.0f && t[i] <= 1.0f) << in[i] << " -> " << t[i];
    EXPECT_TRUE(s[i] >= 0.0f && s[i] <= 1.0f) << in[i] << " -> " << s[i];
    EXPECT_EQ(kernels::tanh_scalar(-in[i]), -t[i]) << in[i];
  }
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(kernels::tanh_scalar(kTanhClamp), 1.0f);
  EXPECT_EQ(kernels::tanh_scalar(inf), 1.0f);
  EXPECT_EQ(kernels::tanh_scalar(-FLT_MAX), -1.0f);
  EXPECT_EQ(kernels::sigmoid_scalar(inf), 1.0f);
  EXPECT_EQ(kernels::sigmoid_scalar(-inf), 0.0f);
  EXPECT_EQ(kernels::sigmoid_scalar(0.0f), 0.5f);
  EXPECT_EQ(kernels::sigmoid_scalar(-0.0f), 0.5f);
  EXPECT_TRUE(std::signbit(kernels::tanh_scalar(-0.0f)));
  // A NaN comes back as itself, not as the clamp value.
  const float nan = -std::numeric_limits<float>::quiet_NaN();
  const float out = kernels::tanh_scalar(nan);
  EXPECT_EQ(0, std::memcmp(&out, &nan, sizeof(float)));
}

// ---- LogReg ----

/// Signed values in [-1, 1) mixed with ±0, ± denormals and large
/// magnitudes, so that some logits and gradient sums overflow to ±inf and
/// NaN.
std::vector<float> logreg_values(std::size_t n, Xoshiro256& rng) {
  const float specials[] = {0.0f,         -0.0f,   FLT_TRUE_MIN,
                            -FLT_TRUE_MIN, FLT_MIN / 2, -FLT_MIN / 2,
                            1e30f,        -3e38f};
  std::vector<float> v = random_signed_vec(n, rng);
  for (auto& x : v)
    if (rng.next_below(6) == 0) x = specials[rng.next_below(8)];
  return v;
}

/// Every feature width from below one vector to above the 38-column
/// compact encoding, and every sample count around the 8-lane and
/// 32-sample blocks.
const std::size_t kLogRegWidths[] = {1, 7, 8, 9, 20, 38, 40};
const std::size_t kLogRegBatches[] = {1, 7, 8, 9, 31, 32, 33, 70};

TEST(LogRegKernels, ProbaMatchesScalarBodyBitForBit) {
  Xoshiro256 rng(21);
  for (const std::size_t d : kLogRegWidths) {
    for (const std::size_t n : kLogRegBatches) {
      // Rows drawn with repeats from a larger matrix, as a resample picks
      // them.
      const std::size_t m = n + 5;
      const auto x = logreg_values(m * d, rng);
      const auto w = logreg_values(d, rng);
      const float b = logreg_values(1, rng)[0];
      std::vector<std::uint32_t> rows(n);
      for (auto& r : rows) r = static_cast<std::uint32_t>(rng.next_below(m));
      const ConstMatView xv(x.data(), m, d);

      std::vector<float> ref(n, 7.0f), out(n, 7.0f);
      kernels::logreg_proba_scalar(xv, rows, w.data(), b, ref.data());
      kernels::logreg_proba_f32(xv, rows, w.data(), b, out.data());
      EXPECT_TRUE(bit_equal(out, ref)) << "d " << d << " n " << n;
    }
  }
}

TEST(LogRegKernels, GradMatchesScalarBodyBitForBit) {
  Xoshiro256 rng(22);
  for (const std::size_t d : kLogRegWidths) {
    for (const std::size_t n : kLogRegBatches) {
      const std::size_t m = n + 5;
      const auto x = logreg_values(m * d, rng);
      const auto err = logreg_values(n, rng);
      std::vector<std::uint32_t> rows(n);
      for (auto& r : rows) r = static_cast<std::uint32_t>(rng.next_below(m));
      const ConstMatView xv(x.data(), m, d);

      // The accumulators start with signed zeros and specials too.
      std::vector<float> ref = logreg_values(d, rng);
      std::vector<float> out = ref;
      kernels::logreg_grad_scalar(xv, rows, err.data(), ref.data());
      kernels::logreg_grad_f32(xv, rows, err.data(), out.data());
      EXPECT_TRUE(bit_equal(out, ref)) << "d " << d << " n " << n;
    }
  }
}

}  // namespace
}  // namespace phftl::ml
