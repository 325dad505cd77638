// AVX2 kernel tier: compiled at -march=x86-64-v3 when the compiler
// supports it (CMakeLists.txt), with -ffp-contract=off so the FMA units
// are never used — vector lanes round exactly like the baseline tier and
// results stay bitwise identical across machines. Selected at runtime by
// Available(); when this TU is built without AVX2 (non-x86 target or old
// compiler) it degrades to thin forwarders onto the base tier. The tanh
// kernel uses intrinsics for its per-lane blends and integer views of
// the float bits.

#include "tensor/gemm_kernels.h"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include <cstdint>

#include "tensor/gemm_tiles.h"
#include "tensor/tanh_fdlibm.h"

#define NLIDB_GEMM_NS avx2
#define NLIDB_GEMM_VEC VecF8
#define NLIDB_GEMM_MR 6
#include "tensor/gemm_kernels.inc"

namespace nlidb {
namespace gemm {
namespace avx2 {

namespace {

__m256 Splat(float v) { return _mm256_set1_ps(v); }
__m256i SplatI(uint32_t v) {
  return _mm256_set1_epi32(static_cast<int32_t>(v));
}
__m256 AsFloat(__m256i v) { return _mm256_castsi256_ps(v); }
__m256i AsInt(__m256 v) { return _mm256_castps_si256(v); }
/// Per-lane mask ? a : b.
__m256 Select(__m256 mask, __m256 a, __m256 b) {
  return _mm256_blendv_ps(b, a, mask);
}
__m256 SelectI(__m256i mask, __m256 a, __m256 b) {
  return Select(AsFloat(mask), a, b);
}
/// Adds k to every lane's biased exponent (base tier: AddExponent).
__m256 AddExponent(__m256 y, __m256i k) {
  return AsFloat(_mm256_add_epi32(AsInt(y), _mm256_slli_epi32(k, 23)));
}

/// base::Expm1 on 8 lanes. Every branch of the scalar port is computed
/// for every lane with the same float operations in the same order, then
/// each lane keeps the branch the scalar code would have taken.
__m256 Expm1(__m256 x) {
  const __m256 one = Splat(kOne);
  const __m256 half = Splat(kHalf);
  const __m256 sign = AsFloat(SplatI(0x80000000u));
  const __m256 neg = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_LT_OQ);
  const __m256i hx = _mm256_andnot_si256(AsInt(sign), AsInt(x));

  // Argument reduction: k = ±1 between 0.5 ln2 and 1.5 ln2, otherwise
  // k = (int)(x/ln2 ± 0.5); no reduction (k = 0) at or below 0.5 ln2.
  const __m256i reduce = _mm256_cmpgt_epi32(hx, SplatI(kExpm1HalfLn2Bits));
  const __m256i near =
      _mm256_cmpgt_epi32(SplatI(kExpm1ThreeHalfLn2Bits), hx);
  const __m256i k_far = _mm256_cvttps_epi32(_mm256_add_ps(
      _mm256_mul_ps(Splat(kInvLn2), x), _mm256_or_ps(half, _mm256_and_ps(
                                                              neg, sign))));
  const __m256 t_far = _mm256_cvtepi32_ps(k_far);
  const __m256 hi_far = _mm256_sub_ps(x, _mm256_mul_ps(t_far, Splat(kLn2Hi)));
  const __m256 lo_far = _mm256_mul_ps(t_far, Splat(kLn2Lo));
  const __m256 hi_near = Select(neg, _mm256_add_ps(x, Splat(kLn2Hi)),
                                _mm256_sub_ps(x, Splat(kLn2Hi)));
  const __m256 lo_near = Select(neg, Splat(-kLn2Lo), Splat(kLn2Lo));
  const __m256i k_near = _mm256_or_si256(AsInt(neg), SplatI(1));  // ±1
  const __m256 hi = SelectI(near, hi_near, hi_far);
  const __m256 lo = SelectI(near, lo_near, lo_far);
  const __m256 xr_reduced = _mm256_sub_ps(hi, lo);
  const __m256 c_reduced =
      _mm256_sub_ps(_mm256_sub_ps(hi, xr_reduced), lo);
  const __m256i k =
      _mm256_and_si256(reduce, _mm256_blendv_epi8(k_far, k_near, near));
  const __m256 xr = SelectI(reduce, xr_reduced, x);
  const __m256 c = _mm256_and_ps(AsFloat(reduce), c_reduced);

  // Primary range.
  const __m256 hfx = _mm256_mul_ps(half, xr);
  const __m256 hxs = _mm256_mul_ps(xr, hfx);
  __m256 poly = _mm256_add_ps(Splat(kQ4), _mm256_mul_ps(hxs, Splat(kQ5)));
  poly = _mm256_add_ps(Splat(kQ3), _mm256_mul_ps(hxs, poly));
  poly = _mm256_add_ps(Splat(kQ2), _mm256_mul_ps(hxs, poly));
  poly = _mm256_add_ps(Splat(kQ1), _mm256_mul_ps(hxs, poly));
  const __m256 r1 = _mm256_add_ps(one, _mm256_mul_ps(hxs, poly));
  const __m256 t = _mm256_sub_ps(Splat(kThree), _mm256_mul_ps(r1, hfx));
  const __m256 e0 = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                         _mm256_sub_ps(Splat(kSix), _mm256_mul_ps(xr, t))));
  const __m256 res_k0 =
      _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e0), hxs));
  const __m256 e = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e0, c)), c), hxs);

  // k == -1 and k == 1.
  const __m256 res_km1 = _mm256_sub_ps(
      _mm256_mul_ps(half, _mm256_sub_ps(xr, e)), half);
  const __m256 res_k1_low = _mm256_mul_ps(
      Splat(-kTwo), _mm256_sub_ps(e, _mm256_add_ps(xr, half)));
  const __m256 res_k1_high = _mm256_add_ps(
      one, _mm256_mul_ps(Splat(kTwo), _mm256_sub_ps(xr, e)));
  const __m256 res_k1 =
      Select(_mm256_cmp_ps(xr, Splat(-kQuarter), _CMP_LT_OQ), res_k1_low,
             res_k1_high);
  // k <= -2 or k > 56.
  const __m256 e_minus_x = _mm256_sub_ps(e, xr);
  const __m256 res_far = _mm256_sub_ps(
      AddExponent(_mm256_sub_ps(one, e_minus_x), k), one);
  // 2 <= k < 23: t = 1 - 2^-k.
  const __m256 one_minus = AsFloat(_mm256_sub_epi32(
      SplatI(0x3f800000u), _mm256_srlv_epi32(SplatI(0x1000000u), k)));
  const __m256 res_mid = AddExponent(_mm256_sub_ps(one_minus, e_minus_x), k);
  // 23 <= k <= 56: t = 2^-k.
  const __m256 two_pow_minus_k =
      AsFloat(_mm256_slli_epi32(_mm256_sub_epi32(SplatI(0x7f), k), 23));
  const __m256 res_high = AddExponent(
      _mm256_add_ps(_mm256_sub_ps(xr, _mm256_add_ps(e, two_pow_minus_k)),
                    one),
      k);

  const __m256i k_is_0 = _mm256_cmpeq_epi32(k, _mm256_setzero_si256());
  const __m256i k_is_m1 = _mm256_cmpeq_epi32(k, SplatI(0xffffffffu));
  const __m256i k_is_1 = _mm256_cmpeq_epi32(k, SplatI(1));
  const __m256i k_far_lane = _mm256_or_si256(
      _mm256_cmpgt_epi32(SplatI(0xffffffffu), k),  // k <= -2
      _mm256_cmpgt_epi32(k, SplatI(56)));
  const __m256i k_mid = _mm256_cmpgt_epi32(SplatI(23), k);
  __m256 res = SelectI(k_mid, res_mid, res_high);
  res = SelectI(k_far_lane, res_far, res);
  res = SelectI(k_is_1, res_k1, res);
  res = SelectI(k_is_m1, res_km1, res);
  res = SelectI(k_is_0, res_k0, res);
  // |x| < 2^-25 returns x unchanged.
  return SelectI(_mm256_cmpgt_epi32(SplatI(kExpm1TinyBits), hx), x, res);
}

/// base::Tanh on 8 lanes with kTanhTinyBits <= |x| < kTanhBigBits; the
/// caller routes every other lane to the scalar port.
__m256 TanhInRange(__m256 x) {
  const __m256 sign = AsFloat(SplatI(0x80000000u));
  const __m256 two = Splat(kTwo);
  const __m256 ax = _mm256_andnot_ps(sign, x);
  const __m256i big = _mm256_cmpgt_epi32(AsInt(ax), SplatI(kTanhOneBits - 1));
  // 2|x| for |x| >= 1, -2|x| below.
  const __m256 arg = _mm256_or_ps(_mm256_mul_ps(two, ax),
                                  _mm256_andnot_ps(AsFloat(big), sign));
  const __m256 t = Expm1(arg);
  // z = 1 - 2/(t+2) for |x| >= 1, -t/(t+2) below: one division per lane
  // with the numerator blended in.
  const __m256 q = _mm256_div_ps(SelectI(big, two, _mm256_xor_ps(t, sign)),
                                 _mm256_add_ps(t, two));
  const __m256 z = SelectI(big, _mm256_sub_ps(Splat(kOne), q), q);
  return _mm256_xor_ps(z, _mm256_and_ps(x, sign));  // tanh is odd
}

}  // namespace

bool Available() { return __builtin_cpu_supports("avx2"); }

void TanhRows(const float* in, float* out, int n) {
  const __m256i abs_mask = SplatI(0x7fffffffu);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(in + i);
    const __m256i ix = _mm256_and_si256(AsInt(x), abs_mask);
    // Lanes outside [2^-55, 22), which covers ±0, subnormals, inf and NaN.
    const __m256i scalar_lane = _mm256_or_si256(
        _mm256_cmpgt_epi32(SplatI(kTanhTinyBits), ix),
        _mm256_cmpgt_epi32(ix, SplatI(kTanhBigBits - 1)));
    const int scalar_mask = _mm256_movemask_ps(AsFloat(scalar_lane));
    _mm256_storeu_ps(out + i, TanhInRange(x));
    if (scalar_mask == 0) continue;
    alignas(32) float xs[8];
    _mm256_store_ps(xs, x);  // in may alias out
    for (int lane = 0; lane < 8; ++lane) {
      if ((scalar_mask >> lane) & 1) out[i + lane] = base::Tanh(xs[lane]);
    }
  }
  for (; i < n; ++i) out[i] = base::Tanh(in[i]);
}

}  // namespace avx2
}  // namespace gemm
}  // namespace nlidb

#else  // !(__x86_64__ && __AVX2__)

namespace nlidb {
namespace gemm {
namespace avx2 {

bool Available() { return false; }

void RowsAB(const float* a, const float* b, float* out, int m, int k, int n) {
  base::RowsAB(a, b, out, m, k, n);
}

void RowsABt(const float* a, const float* b, float* out, int m, int k, int n) {
  base::RowsABt(a, b, out, m, k, n);
}

void RowsAtB(const float* a, const float* b, float* out, int k, int m, int n) {
  base::RowsAtB(a, b, out, k, m, n);
}

void TanhRows(const float* in, float* out, int n) {
  base::TanhRows(in, out, n);
}

}  // namespace avx2
}  // namespace gemm
}  // namespace nlidb

#endif
