// SIMD kernels for the Page Classifier: int8 inference and float training.
//
// ## Fused int8 GEMV (device-side prediction)
//
// The GRU's per-write cost is dominated by six int8 matrix-vector products:
// three input-gate matrices (Wz/Wr/Wn) applied to the quantized features and
// three hidden-gate matrices (Uz/Ur/Un) applied to the cached hidden state.
// The paper budgets one incremental prediction at ~9 µs on a Cortex-A9
// (§IV); to stay inside that class of budget on any controller, this layer
//
//  * packs each matrix triple into one interleaved row-major buffer
//    (gate-0 row r, gate-1 row r, gate-2 row r, then row r+1, ...) so a
//    single pass over the input vector feeds all three gate accumulators,
//  * pads every row to a 32-byte-multiple stride with zeros, which lets the
//    inner loops run without tail handling (zero columns contribute nothing
//    to an integer accumulator),
//  * accumulates in int32 — bit-exact regardless of summation order, so the
//    scalar and SIMD paths produce identical results and the test suite can
//    assert parity against the retained reference implementation,
//  * dispatches to an AVX2 kernel at runtime when the CPU supports it
//    (compile-time selected when built with -mavx2 / -march=native).
//
// ## Order-preserving float kernels (host-side GRU BPTT)
//
// Training (GruClassifier::train_epoch) spends nearly all of its time in
// four float loops: the forward gate matvecs, and in the backward pass the
// gradient outer products and the transpose matvecs. The scalar versions
// in tensor.hpp stay as the parity reference (as gemv_i8_ref backs
// fused_gemv3_i8). Float addition is not associative, so the SIMD bodies
// here are bound by rules that make every output element bit-identical to
// the reference:
//
//  * one SIMD lane per output element. A lane performs exactly the
//    reference's sequence of float operations for its element: the matvec
//    reduction runs over columns in ascending order from a 0.0f start (so
//    matvec needs W transposed, one output row per lane); the outer product
//    and the transpose matvec vectorize across columns, and each column
//    still sees its terms in the reference's order. A batch of outer
//    products adds them in batch order, exactly as one call per term would;
//  * separate multiply and add (_mm256_mul_ps + _mm256_add_ps), never FMA:
//    a fused multiply-add skips the product's rounding;
//  * the reference's `g == 0.0f` row skip is kept (it also skips -0.0f);
//  * dimensions that are not multiples of 8 run their tail through masked
//    loads and stores, with the same per-lane operations.
//
// Trained weights, the int8 model deployed from them and every simulated
// metric are therefore identical whichever path the dispatcher picks.
//
// ## Activations (every model in src/ml)
//
// tanh and sigmoid are the only transcendental functions on the GRU's
// predict and training paths, and libm's scalar expf/tanhf cost more than
// the GEMVs of an int8 step. Every GRU path (the int8 step, the float
// forward pass and BPTT, and both parity references) and LogReg take them
// from here instead, one fixed approximation with a scalar and an AVX2
// body that return the same bits for every input:
//
//  * tanh(x) = x·P(x²) / Q(x²) with x clamped to ±7.90531110763549805:
//    the odd rational minimax form Eigen uses for float, a degree-13
//    numerator over a degree-6 denominator. Both polynomials run Horner's
//    rule with separate multiply and add (never FMA), and the quotient is
//    an IEEE division, so a lane performs exactly the scalar body's float
//    operations. Unfused, the rational reaches exactly ±1 at the clamp;
//  * sigmoid(x) = 0.5·tanh(0.5·x) + 0.5;
//  * range: tanh ∈ [-1, 1] and sigmoid ∈ [0, 1] for every non-NaN input,
//    which the int8 hidden-state scale in qgru.hpp relies on;
//  * error: at most 2e-6 absolute against double-precision tanh and the
//    logistic function (tests pin it). Training and the deployed model
//    therefore differ from a libm build in the last bits only;
//  * specials: ±0 → ±0 (sigmoid 0.5), ±inf and ±FLT_MAX → ±1 (sigmoid
//    1 / 0), denormals pass through the polynomial like any other input,
//    and a NaN comes back as the same NaN, quieted. The clamp compares
//    `clamp < x`, so a NaN is never replaced by the clamp value.
//
// The dispatcher picks the body on the same CPU check as the other kernels.
// A CPU without AVX2 gets identical bits, so WA never depends on the host.
//
// ## LogReg (one sample per lane)
//
// Algorithm 1 trains a small logistic regression per candidate threshold
// (logreg.hpp) on rows picked by index from one row-major feature matrix.
// Its weights do not change within a minibatch, so the two kernels here
// vectorize across samples and features without reordering any float sum:
//
//  * the logit kernel gives each SIMD lane one sample. The lane runs that
//    sample's serial dot product: acc = b, then acc += w[j]·x[j] for j
//    ascending, one gathered feature column per step. The sigmoid is then
//    applied by sigmoid_f32, which matches sigmoid_scalar bit for bit;
//  * the gradient kernel computes gw[j] += err_i·x_i[j] with i in batch
//    order. It vectorizes over j and keeps the accumulators in registers
//    across the batch. No term is skipped: the scalar loop has no
//    zero-error skip;
//  * separate multiply and add, and masked loads, stores and gathers for
//    the sample and column tails, as for the training kernels.
//
// Candidate accuracies, and so every threshold the controller picks, are
// therefore the same whichever body runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/tensor.hpp"

namespace phftl::ml::kernels {

/// Row stride granularity (bytes of int8). 32 matches one AVX2 register and
/// is a whole number of NEON/SSE registers, so every padded row is tail-free
/// for any of the vector paths.
inline constexpr std::size_t kLaneAlign = 32;

inline constexpr std::size_t padded_cols(std::size_t cols) {
  return (cols + kLaneAlign - 1) / kLaneAlign * kLaneAlign;
}

/// Three same-shape int8 matrices interleaved per output row. `stride` is
/// the zero-padded row length; logical columns beyond `cols` are zero.
struct PackedGates3 {
  std::vector<std::int8_t> data;
  std::size_t rows = 0;
  std::size_t cols = 0;    ///< logical columns
  std::size_t stride = 0;  ///< padded columns (multiple of kLaneAlign)

  bool empty() const { return rows == 0; }
  const std::int8_t* row_block(std::size_t r) const {
    return data.data() + r * 3 * stride;
  }
};

/// Pack three row-major [rows x cols] int8 matrices into the interleaved
/// layout above.
PackedGates3 pack_gates3(const std::int8_t* g0, const std::int8_t* g1,
                         const std::int8_t* g2, std::size_t rows,
                         std::size_t cols);

/// Fused triple GEMV: out_g[r] = Σ_c gate_g[r][c] · x[c] for g = 0, 1, 2.
/// `x` must be readable (and zero) up to m.stride elements. Results are
/// int32-exact, identical across the scalar and SIMD paths.
void fused_gemv3_i8(const PackedGates3& m, const std::int8_t* x,
                    std::int32_t* out0, std::int32_t* out1,
                    std::int32_t* out2);

/// Naive single-matrix int8 GEMV — the reference the fused kernel is
/// benchmarked and parity-tested against (same loop shape as the original
/// QuantizedGru::gate_preact inner loops).
void gemv_i8_ref(const std::int8_t* w, std::size_t rows, std::size_t cols,
                 const std::int8_t* x, std::int32_t* out);

/// True when the runtime dispatcher selected the AVX2 kernel (exposed so
/// benchmarks can report which path they measured).
bool fused_gemv3_uses_avx2();

// ---- Float training kernels (see the header comment for the rules). ----

/// Write the transpose of the row-major [rows x cols] matrix `w` into `wt`
/// ([cols x rows], wt[c * rows + r] = w[r * cols + c]).
void transpose_f32(const float* w, std::size_t rows, std::size_t cols,
                   float* wt);

/// y = W x from the transposed weights `wt` (see transpose_f32). Bit-equal
/// to tensor.hpp's matvec on W.
void matvec_t_f32(const float* wt, std::size_t rows, std::size_t cols,
                  const float* x, float* y);

/// y += W x from the transposed weights. Bit-equal to matvec_acc on W: the
/// product is summed from 0.0f first, then added to y.
void matvec_t_acc_f32(const float* wt, std::size_t rows, std::size_t cols,
                      const float* x, float* y);

/// dw += Σ_k g_k ⊗ x_k for row-major [rows x cols] `dw`, where g_k is row k
/// of the [n x rows] `g` and x_k row k of the [n x cols] `x`. Terms with
/// g_k[r] == 0 are skipped. Bit-equal to calling outer_acc for k = 0, 1,
/// ..., n - 1: each element adds its terms in k order, starting from its
/// own value, but stays in a register across them.
void outer_acc_batch_f32(const float* g, const float* x, std::size_t n,
                         std::size_t rows, std::size_t cols, float* dw);

/// xg += Wᵀ g for row-major [rows x cols] `w`; rows with g[r] == 0 are
/// skipped. Bit-equal to matvec_transpose_acc.
void matvec_transpose_acc_f32(const float* w, std::size_t rows,
                              std::size_t cols, const float* g, float* xg);

/// True when the runtime dispatcher selected the AVX2 training kernels.
bool train_kernels_use_avx2();

// ---- Activations (see the header comment for the rules). ----

/// v[i] = tanh(v[i]) for i < n, in place.
void tanh_f32(float* v, std::size_t n);

/// v[i] = sigmoid(v[i]) for i < n, in place.
void sigmoid_f32(float* v, std::size_t n);

/// The scalar bodies. Each returns exactly what the vector calls above
/// store for the same input, on every CPU.
float tanh_scalar(float x);
float sigmoid_scalar(float x);

/// True when the runtime dispatcher selected the AVX2 activation body.
bool activations_use_avx2();

// ---- LogReg (see the header comment for the rules). ----

/// p[k] = sigmoid(b + Σ_j w[j] · x[rows[k]][j]) for k < rows.size(); the
/// sum starts at b and adds its terms in ascending j. `w` holds x.cols
/// weights, `p` room for rows.size() results, and x at most 2³¹ - 1
/// elements (the row offsets are gathered as int32).
void logreg_proba_f32(ConstMatView x, std::span<const std::uint32_t> rows,
                      const float* w, float b, float* p);

/// gw[j] += err[k] · x[rows[k]][j] for j < x.cols, with k ascending over
/// rows.size(); each gw[j] adds its terms in k order.
void logreg_grad_f32(ConstMatView x, std::span<const std::uint32_t> rows,
                     const float* err, float* gw);

/// The scalar bodies. Each stores exactly what the dispatched call above
/// stores for the same input, on every CPU.
void logreg_proba_scalar(ConstMatView x, std::span<const std::uint32_t> rows,
                         const float* w, float b, float* p);
void logreg_grad_scalar(ConstMatView x, std::span<const std::uint32_t> rows,
                        const float* err, float* gw);

/// True when the runtime dispatcher selected the AVX2 LogReg kernels.
bool logreg_kernels_use_avx2();

}  // namespace phftl::ml::kernels
