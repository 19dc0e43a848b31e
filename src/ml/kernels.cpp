#include "ml/kernels.hpp"

#include <algorithm>
#include <cstring>

#include "ml/tensor.hpp"
#include "util/assert.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PHFTL_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace phftl::ml::kernels {

PackedGates3 pack_gates3(const std::int8_t* g0, const std::int8_t* g1,
                         const std::int8_t* g2, std::size_t rows,
                         std::size_t cols) {
  PackedGates3 p;
  p.rows = rows;
  p.cols = cols;
  p.stride = padded_cols(cols);
  p.data.assign(rows * 3 * p.stride, 0);
  const std::int8_t* gates[3] = {g0, g1, g2};
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t g = 0; g < 3; ++g)
      std::memcpy(p.data.data() + (r * 3 + g) * p.stride, gates[g] + r * cols,
                  cols);
  return p;
}

namespace {

void fused_gemv3_scalar(const PackedGates3& m, const std::int8_t* x,
                        std::int32_t* out0, std::int32_t* out1,
                        std::int32_t* out2) {
  const std::size_t stride = m.stride;
  const std::int8_t* __restrict xp = x;
  for (std::size_t r = 0; r < m.rows; ++r) {
    const std::int8_t* __restrict w0 = m.data.data() + r * 3 * stride;
    const std::int8_t* __restrict w1 = w0 + stride;
    const std::int8_t* __restrict w2 = w1 + stride;
    std::int32_t a0 = 0, a1 = 0, a2 = 0;
    // stride is a multiple of kLaneAlign, so the 4-way unroll has no tail;
    // each x[c] is loaded once and feeds all three gate accumulators.
    for (std::size_t c = 0; c < stride; c += 4) {
      const std::int32_t xc0 = xp[c + 0], xc1 = xp[c + 1];
      const std::int32_t xc2 = xp[c + 2], xc3 = xp[c + 3];
      a0 += w0[c + 0] * xc0 + w0[c + 1] * xc1 + w0[c + 2] * xc2 +
            w0[c + 3] * xc3;
      a1 += w1[c + 0] * xc0 + w1[c + 1] * xc1 + w1[c + 2] * xc2 +
            w1[c + 3] * xc3;
      a2 += w2[c + 0] * xc0 + w2[c + 1] * xc1 + w2[c + 2] * xc2 +
            w2[c + 3] * xc3;
    }
    out0[r] = a0;
    out1[r] = a1;
    out2[r] = a2;
  }
}

#if PHFTL_KERNELS_X86

#ifndef __AVX2__
__attribute__((target("avx2")))
#endif
inline std::int32_t hsum_epi32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

#ifndef __AVX2__
__attribute__((target("avx2")))
#endif
void fused_gemv3_avx2(const PackedGates3& m, const std::int8_t* x,
                      std::int32_t* out0, std::int32_t* out1,
                      std::int32_t* out2) {
  const std::size_t stride = m.stride;
  for (std::size_t r = 0; r < m.rows; ++r) {
    const std::int8_t* w0 = m.data.data() + r * 3 * stride;
    const std::int8_t* w1 = w0 + stride;
    const std::int8_t* w2 = w1 + stride;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    // 16 int8 lanes per step, widened to int16; each 16-lane chunk of x is
    // loaded once and multiply-accumulated against all three gate rows.
    // madd_epi16 pair-sums into int32, which cannot overflow here:
    // |product| ≤ 127², and rows are at most a few hundred columns.
    for (std::size_t c = 0; c < stride; c += 16) {
      const __m256i xv = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + c)));
      const __m256i v0 = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w0 + c)));
      const __m256i v1 = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w1 + c)));
      const __m256i v2 = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w2 + c)));
      acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(v0, xv));
      acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(v1, xv));
      acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(v2, xv));
    }
    out0[r] = hsum_epi32(acc0);
    out1[r] = hsum_epi32(acc1);
    out2[r] = hsum_epi32(acc2);
  }
}

#endif  // PHFTL_KERNELS_X86

using KernelFn = void (*)(const PackedGates3&, const std::int8_t*,
                          std::int32_t*, std::int32_t*, std::int32_t*);

KernelFn resolve_kernel() {
#if PHFTL_KERNELS_X86
  if (__builtin_cpu_supports("avx2")) return fused_gemv3_avx2;
#endif
  return fused_gemv3_scalar;
}

const KernelFn g_fused_gemv3 = resolve_kernel();

}  // namespace

void fused_gemv3_i8(const PackedGates3& m, const std::int8_t* x,
                    std::int32_t* out0, std::int32_t* out1,
                    std::int32_t* out2) {
  g_fused_gemv3(m, x, out0, out1, out2);
}

bool fused_gemv3_uses_avx2() {
#if PHFTL_KERNELS_X86
  return g_fused_gemv3 == fused_gemv3_avx2;
#else
  return false;
#endif
}

void gemv_i8_ref(const std::int8_t* w, std::size_t rows, std::size_t cols,
                 const std::int8_t* x, std::int32_t* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int8_t* wr = w + r * cols;
    std::int32_t acc = 0;
    for (std::size_t c = 0; c < cols; ++c)
      acc += static_cast<std::int32_t>(wr[c]) * x[c];
    out[r] = acc;
  }
}

// ---- Float training kernels ----

namespace {

// Portable bodies for CPUs without AVX2: the reference loops, with the
// matvec reading the transposed layout.
template <bool kAcc>
void matvec_t_scalar(const float* wt, std::size_t rows, std::size_t cols,
                     const float* x, float* y) {
  for (std::size_t r = 0; r < rows; ++r) {
    float acc = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) acc += wt[c * rows + r] * x[c];
    y[r] = kAcc ? y[r] + acc : acc;
  }
}

void outer_acc_batch_scalar(const float* g, const float* x, std::size_t n,
                            std::size_t rows, std::size_t cols, float* dw) {
  for (std::size_t k = 0; k < n; ++k)
    outer_acc({g + k * rows, rows}, {x + k * cols, cols},
              MatView{dw, rows, cols});
}

#if PHFTL_KERNELS_X86

// Lanes [0, n) active, for the partial last block of a dimension.
#ifndef __AVX2__
__attribute__((target("avx2")))
#endif
inline __m256i lane_mask(std::size_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// Lane i of a row block owns output row r + i and runs the reference's
// `acc += w[r][c] * x[c]` over c ascending from 0.0f.
template <bool kAcc>
#ifndef __AVX2__
__attribute__((target("avx2")))
#endif
void matvec_t_avx2(const float* wt, std::size_t rows, std::size_t cols,
                   const float* x, float* y) {
  std::size_t r = 0;
  // Four row blocks share each broadcast x[c] and hide the add latency.
  for (; r + 32 <= rows; r += 32) {
    __m256 a0 = _mm256_setzero_ps(), a1 = a0, a2 = a0, a3 = a0;
    const float* w = wt + r;
    for (std::size_t c = 0; c < cols; ++c, w += rows) {
      const __m256 xc = _mm256_set1_ps(x[c]);
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_loadu_ps(w), xc));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(_mm256_loadu_ps(w + 8), xc));
      a2 = _mm256_add_ps(a2, _mm256_mul_ps(_mm256_loadu_ps(w + 16), xc));
      a3 = _mm256_add_ps(a3, _mm256_mul_ps(_mm256_loadu_ps(w + 24), xc));
    }
    if constexpr (kAcc) {
      a0 = _mm256_add_ps(_mm256_loadu_ps(y + r), a0);
      a1 = _mm256_add_ps(_mm256_loadu_ps(y + r + 8), a1);
      a2 = _mm256_add_ps(_mm256_loadu_ps(y + r + 16), a2);
      a3 = _mm256_add_ps(_mm256_loadu_ps(y + r + 24), a3);
    }
    _mm256_storeu_ps(y + r, a0);
    _mm256_storeu_ps(y + r + 8, a1);
    _mm256_storeu_ps(y + r + 16, a2);
    _mm256_storeu_ps(y + r + 24, a3);
  }
  for (; r < rows; r += 8) {
    const __m256i m = lane_mask(std::min<std::size_t>(8, rows - r));
    __m256 a = _mm256_setzero_ps();
    const float* w = wt + r;
    for (std::size_t c = 0; c < cols; ++c, w += rows)
      a = _mm256_add_ps(
          a, _mm256_mul_ps(_mm256_maskload_ps(w, m), _mm256_set1_ps(x[c])));
    if constexpr (kAcc) a = _mm256_add_ps(_mm256_maskload_ps(y + r, m), a);
    _mm256_maskstore_ps(y + r, m, a);
  }
}

// One block of NV 8-lane columns of output row d (the last vector masked
// by `last`). Lane i owns d[i] and keeps it in a register while it adds
// g[k * g_stride] * x[k * cols + i] for k ascending, skipping g == ±0.
template <std::size_t NV>
#ifndef __AVX2__
__attribute__((target("avx2")))
#endif
inline void outer_acc_block(const float* g, std::size_t g_stride,
                            const float* x, std::size_t n, std::size_t cols,
                            float* d, __m256i last) {
  __m256 a[NV];
#pragma GCC unroll 4
  for (std::size_t v = 0; v + 1 < NV; ++v) a[v] = _mm256_loadu_ps(d + 8 * v);
  a[NV - 1] = _mm256_maskload_ps(d + 8 * (NV - 1), last);
  for (std::size_t k = 0; k < n; ++k, g += g_stride, x += cols) {
    if (*g == 0.0f) continue;
    const __m256 gv = _mm256_set1_ps(*g);
#pragma GCC unroll 4
    for (std::size_t v = 0; v + 1 < NV; ++v)
      a[v] = _mm256_add_ps(a[v], _mm256_mul_ps(gv, _mm256_loadu_ps(x + 8 * v)));
    a[NV - 1] = _mm256_add_ps(
        a[NV - 1],
        _mm256_mul_ps(gv, _mm256_maskload_ps(x + 8 * (NV - 1), last)));
  }
#pragma GCC unroll 4
  for (std::size_t v = 0; v + 1 < NV; ++v) _mm256_storeu_ps(d + 8 * v, a[v]);
  _mm256_maskstore_ps(d + 8 * (NV - 1), last, a[NV - 1]);
}

// dw[r] accumulates its n terms in registers, one column block of up to
// 32 at a time, instead of loading and storing dw once per term.
#ifndef __AVX2__
__attribute__((target("avx2")))
#endif
void outer_acc_batch_avx2(const float* g, const float* x, std::size_t n,
                          std::size_t rows, std::size_t cols, float* dw) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; c += 32) {
      const std::size_t left = std::min<std::size_t>(32, cols - c);
      const std::size_t nv = (left + 7) / 8;
      const __m256i last = lane_mask(left - 8 * (nv - 1));
      float* d = dw + r * cols + c;
      switch (nv) {
        case 1: outer_acc_block<1>(g + r, rows, x + c, n, cols, d, last); break;
        case 2: outer_acc_block<2>(g + r, rows, x + c, n, cols, d, last); break;
        case 3: outer_acc_block<3>(g + r, rows, x + c, n, cols, d, last); break;
        default: outer_acc_block<4>(g + r, rows, x + c, n, cols, d, last);
      }
    }
  }
}

#endif  // PHFTL_KERNELS_X86

using MatvecFn = void (*)(const float*, std::size_t, std::size_t,
                          const float*, float*);
using OuterBatchFn = void (*)(const float*, const float*, std::size_t,
                              std::size_t, std::size_t, float*);

struct TrainKernels {
  MatvecFn matvec_t;
  MatvecFn matvec_t_acc;
  OuterBatchFn outer_acc_batch;
  bool avx2;
};

TrainKernels resolve_train_kernels() {
#if PHFTL_KERNELS_X86
  if (__builtin_cpu_supports("avx2"))
    return {matvec_t_avx2<false>, matvec_t_avx2<true>, outer_acc_batch_avx2,
            true};
#endif
  return {matvec_t_scalar<false>, matvec_t_scalar<true>,
          outer_acc_batch_scalar, false};
}

const TrainKernels g_train = resolve_train_kernels();

}  // namespace

void transpose_f32(const float* w, std::size_t rows, std::size_t cols,
                   float* wt) {
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) wt[c * rows + r] = w[r * cols + c];
}

void matvec_t_f32(const float* wt, std::size_t rows, std::size_t cols,
                  const float* x, float* y) {
  g_train.matvec_t(wt, rows, cols, x, y);
}

void matvec_t_acc_f32(const float* wt, std::size_t rows, std::size_t cols,
                      const float* x, float* y) {
  g_train.matvec_t_acc(wt, rows, cols, x, y);
}

void outer_acc_batch_f32(const float* g, const float* x, std::size_t n,
                         std::size_t rows, std::size_t cols, float* dw) {
  g_train.outer_acc_batch(g, x, n, rows, cols, dw);
}

void matvec_transpose_acc_f32(const float* w, std::size_t rows,
                              std::size_t cols, const float* g, float* xg) {
  // xg += Σ_r g[r] · w[r] is a batch of `rows` one-row outer products;
  // g[r] · w[r][c] and w[r][c] · g[r] are the same float.
  g_train.outer_acc_batch(g, w, rows, 1, cols, xg);
}

bool train_kernels_use_avx2() { return g_train.avx2; }

// ---- Activations ----

namespace {

// tanh(x) ≈ x·P(x²) / Q(x²) on [-kTanhClamp, kTanhClamp] (Eigen's float
// coefficients). Evaluated without FMA the quotient is exactly 1 at the
// clamp.
constexpr float kTanhClamp = 7.90531110763549805f;
constexpr float kP13 = -2.76076847742355e-16f;
constexpr float kP11 = 2.00018790482477e-13f;
constexpr float kP9 = -8.60467152213735e-11f;
constexpr float kP7 = 5.12229709037114e-08f;
constexpr float kP5 = 1.48572235717979e-05f;
constexpr float kP3 = 6.37261928875436e-04f;
constexpr float kP1 = 4.89352455891786e-03f;
constexpr float kQ6 = 1.19825839466702e-06f;
constexpr float kQ4 = 1.18534705686654e-04f;
constexpr float kQ2 = 2.26843463243900e-03f;
constexpr float kQ0 = 4.89352518554385e-03f;

#if PHFTL_KERNELS_X86

// a * b + c, rounded twice.
#ifndef __AVX2__
__attribute__((target("avx2")))
#endif
inline __m256 mul_add(__m256 a, __m256 b, float c) {
  return _mm256_add_ps(_mm256_mul_ps(a, b), _mm256_set1_ps(c));
}

// The scalar body's operations, one lane per element. min_ps(c, x) and
// max_ps(-c, x) return x when it is NaN, like the scalar comparisons.
#ifndef __AVX2__
__attribute__((target("avx2")))
#endif
inline __m256 tanh8(__m256 x) {
  x = _mm256_min_ps(_mm256_set1_ps(kTanhClamp), x);
  x = _mm256_max_ps(_mm256_set1_ps(-kTanhClamp), x);
  const __m256 x2 = _mm256_mul_ps(x, x);
  __m256 p = mul_add(x2, _mm256_set1_ps(kP13), kP11);
  p = mul_add(x2, p, kP9);
  p = mul_add(x2, p, kP7);
  p = mul_add(x2, p, kP5);
  p = mul_add(x2, p, kP3);
  p = mul_add(x2, p, kP1);
  p = _mm256_mul_ps(x, p);
  __m256 q = mul_add(x2, _mm256_set1_ps(kQ6), kQ4);
  q = mul_add(x2, q, kQ2);
  q = mul_add(x2, q, kQ0);
  return _mm256_div_ps(p, q);
}

#ifndef __AVX2__
__attribute__((target("avx2")))
#endif
inline __m256 sigmoid8(__m256 x) {
  const __m256 half = _mm256_set1_ps(0.5f);
  return _mm256_add_ps(
      _mm256_mul_ps(half, tanh8(_mm256_mul_ps(half, x))), half);
}

// Whole vectors in AVX2, the tail through the bit-equal scalar body.
template <bool kSigmoid>
#ifndef __AVX2__
__attribute__((target("avx2")))
#endif
void activate_avx2(float* v, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(v + i);
    _mm256_storeu_ps(v + i, kSigmoid ? sigmoid8(x) : tanh8(x));
  }
  for (; i < n; ++i) v[i] = kSigmoid ? sigmoid_scalar(v[i]) : tanh_scalar(v[i]);
}

#endif  // PHFTL_KERNELS_X86

template <float (*Scalar)(float)>
void activate_scalar(float* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) v[i] = Scalar(v[i]);
}

using ActivateFn = void (*)(float*, std::size_t);

struct ActivationKernels {
  ActivateFn tanh;
  ActivateFn sigmoid;
  bool avx2;
};

ActivationKernels resolve_activations() {
#if PHFTL_KERNELS_X86
  if (__builtin_cpu_supports("avx2"))
    return {activate_avx2<false>, activate_avx2<true>, true};
#endif
  return {activate_scalar<tanh_scalar>, activate_scalar<sigmoid_scalar>,
          false};
}

const ActivationKernels g_act = resolve_activations();

}  // namespace

float tanh_scalar(float x) {
  // `x > c` and `x < -c` are false for NaN, which passes through.
  if (x > kTanhClamp) x = kTanhClamp;
  if (x < -kTanhClamp) x = -kTanhClamp;
  const float x2 = x * x;
  float p = x2 * kP13 + kP11;
  p = x2 * p + kP9;
  p = x2 * p + kP7;
  p = x2 * p + kP5;
  p = x2 * p + kP3;
  p = x2 * p + kP1;
  p = x * p;
  float q = x2 * kQ6 + kQ4;
  q = x2 * q + kQ2;
  q = x2 * q + kQ0;
  return p / q;
}

float sigmoid_scalar(float x) { return 0.5f * tanh_scalar(0.5f * x) + 0.5f; }

void tanh_f32(float* v, std::size_t n) { g_act.tanh(v, n); }

void sigmoid_f32(float* v, std::size_t n) { g_act.sigmoid(v, n); }

bool activations_use_avx2() { return g_act.avx2; }

// ---- LogReg ----

void logreg_proba_scalar(ConstMatView x, std::span<const std::uint32_t> rows,
                         const float* w, float b, float* p) {
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const float* xr = x.data + std::size_t{rows[k]} * x.cols;
    float acc = b;
    for (std::size_t j = 0; j < x.cols; ++j) acc += w[j] * xr[j];
    p[k] = sigmoid_scalar(acc);
  }
}

void logreg_grad_scalar(ConstMatView x, std::span<const std::uint32_t> rows,
                        const float* err, float* gw) {
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const float* xr = x.data + std::size_t{rows[k]} * x.cols;
    for (std::size_t j = 0; j < x.cols; ++j) gw[j] += err[k] * xr[j];
  }
}

namespace {

#if PHFTL_KERNELS_X86

// NV vectors of 8 samples (the last masked by `last`). Lane i of vector v
// owns sample rows[8v + i]: it starts at b and adds w[j] · x[row][j] for
// j ascending, gathering column j of its row at offset row · cols + j.
template <std::size_t NV>
#ifndef __AVX2__
__attribute__((target("avx2")))
#endif
inline void logreg_logit_block(ConstMatView x, const std::uint32_t* rows,
                               const float* w, float b, float* z,
                               __m256i last) {
  const __m256i cols = _mm256_set1_epi32(static_cast<int>(x.cols));
  const __m256i all = _mm256_set1_epi32(-1);
  __m256i off[NV];
  __m256 mask[NV];
  __m256 a[NV];
#pragma GCC unroll 4
  for (std::size_t v = 0; v < NV; ++v) {
    const __m256i m = v + 1 < NV ? all : last;
    const __m256i r = _mm256_maskload_epi32(
        reinterpret_cast<const int*>(rows + 8 * v), m);
    off[v] = _mm256_mullo_epi32(r, cols);
    mask[v] = _mm256_castsi256_ps(m);
    a[v] = _mm256_set1_ps(b);
  }
  const __m256 zero = _mm256_setzero_ps();
  for (std::size_t j = 0; j < x.cols; ++j) {
    const __m256 wj = _mm256_set1_ps(w[j]);
#pragma GCC unroll 4
    for (std::size_t v = 0; v < NV; ++v)
      a[v] = _mm256_add_ps(
          a[v], _mm256_mul_ps(wj, _mm256_mask_i32gather_ps(
                                      zero, x.data + j, off[v], mask[v], 4)));
  }
#pragma GCC unroll 4
  for (std::size_t v = 0; v + 1 < NV; ++v) _mm256_storeu_ps(z + 8 * v, a[v]);
  _mm256_maskstore_ps(z + 8 * (NV - 1), last, a[NV - 1]);
}

// Up to 32 samples per block: four independent accumulator chains per
// broadcast weight hide the add latency.
#ifndef __AVX2__
__attribute__((target("avx2")))
#endif
void logreg_proba_avx2(ConstMatView x, std::span<const std::uint32_t> rows,
                       const float* w, float b, float* p) {
  const std::size_t n = rows.size();
  for (std::size_t k = 0; k < n; k += 32) {
    const std::size_t left = std::min<std::size_t>(32, n - k);
    const std::size_t nv = (left + 7) / 8;
    const __m256i last = lane_mask(left - 8 * (nv - 1));
    const std::uint32_t* r = rows.data() + k;
    switch (nv) {
      case 1: logreg_logit_block<1>(x, r, w, b, p + k, last); break;
      case 2: logreg_logit_block<2>(x, r, w, b, p + k, last); break;
      case 3: logreg_logit_block<3>(x, r, w, b, p + k, last); break;
      default: logreg_logit_block<4>(x, r, w, b, p + k, last);
    }
  }
  sigmoid_f32(p, n);
}

// NV 8-lane column vectors of gw (the last masked by `last`), held in
// registers while every sample of the batch adds err[k] · x[rows[k]].
template <std::size_t NV>
#ifndef __AVX2__
__attribute__((target("avx2")))
#endif
inline void logreg_grad_block(ConstMatView x, std::span<const std::uint32_t> rows,
                              const float* err, float* gw, __m256i last) {
  __m256 a[NV];
#pragma GCC unroll 8
  for (std::size_t v = 0; v + 1 < NV; ++v) a[v] = _mm256_loadu_ps(gw + 8 * v);
  a[NV - 1] = _mm256_maskload_ps(gw + 8 * (NV - 1), last);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const float* xr = x.data + std::size_t{rows[k]} * x.cols;
    const __m256 e = _mm256_set1_ps(err[k]);
#pragma GCC unroll 8
    for (std::size_t v = 0; v + 1 < NV; ++v)
      a[v] = _mm256_add_ps(a[v], _mm256_mul_ps(e, _mm256_loadu_ps(xr + 8 * v)));
    a[NV - 1] = _mm256_add_ps(
        a[NV - 1],
        _mm256_mul_ps(e, _mm256_maskload_ps(xr + 8 * (NV - 1), last)));
  }
#pragma GCC unroll 8
  for (std::size_t v = 0; v + 1 < NV; ++v) _mm256_storeu_ps(gw + 8 * v, a[v]);
  _mm256_maskstore_ps(gw + 8 * (NV - 1), last, a[NV - 1]);
}

// Column blocks of up to 64: the compact features (38 columns) take one
// pass over the batch.
#ifndef __AVX2__
__attribute__((target("avx2")))
#endif
void logreg_grad_avx2(ConstMatView x, std::span<const std::uint32_t> rows,
                      const float* err, float* gw) {
  for (std::size_t c = 0; c < x.cols; c += 64) {
    const std::size_t left = std::min<std::size_t>(64, x.cols - c);
    const std::size_t nv = (left + 7) / 8;
    const __m256i last = lane_mask(left - 8 * (nv - 1));
    const ConstMatView xc(x.data + c, x.rows, x.cols);
    float* g = gw + c;
    switch (nv) {
      case 1: logreg_grad_block<1>(xc, rows, err, g, last); break;
      case 2: logreg_grad_block<2>(xc, rows, err, g, last); break;
      case 3: logreg_grad_block<3>(xc, rows, err, g, last); break;
      case 4: logreg_grad_block<4>(xc, rows, err, g, last); break;
      case 5: logreg_grad_block<5>(xc, rows, err, g, last); break;
      case 6: logreg_grad_block<6>(xc, rows, err, g, last); break;
      case 7: logreg_grad_block<7>(xc, rows, err, g, last); break;
      default: logreg_grad_block<8>(xc, rows, err, g, last);
    }
  }
}

#endif  // PHFTL_KERNELS_X86

using LogRegProbaFn = void (*)(ConstMatView, std::span<const std::uint32_t>,
                               const float*, float, float*);
using LogRegGradFn = void (*)(ConstMatView, std::span<const std::uint32_t>,
                              const float*, float*);

struct LogRegKernels {
  LogRegProbaFn proba;
  LogRegGradFn grad;
  bool avx2;
};

LogRegKernels resolve_logreg_kernels() {
#if PHFTL_KERNELS_X86
  if (__builtin_cpu_supports("avx2"))
    return {logreg_proba_avx2, logreg_grad_avx2, true};
#endif
  return {logreg_proba_scalar, logreg_grad_scalar, false};
}

const LogRegKernels g_logreg = resolve_logreg_kernels();

}  // namespace

void logreg_proba_f32(ConstMatView x, std::span<const std::uint32_t> rows,
                      const float* w, float b, float* p) {
  PHFTL_CHECK(x.size() <= 0x7fffffffu);
  g_logreg.proba(x, rows, w, b, p);
}

void logreg_grad_f32(ConstMatView x, std::span<const std::uint32_t> rows,
                     const float* err, float* gw) {
  g_logreg.grad(x, rows, err, gw);
}

bool logreg_kernels_use_avx2() { return g_logreg.avx2; }

}  // namespace phftl::ml::kernels
