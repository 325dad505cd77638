#ifndef NLIDB_TENSOR_TANH_VEC_H_
#define NLIDB_TENSOR_TANH_VEC_H_

// The fdlibm tanhf -> expm1f port of gemm_kernels_base.cc written once
// over GCC/Clang vector types, the way gemm_tiles.h writes the GEMM
// tiles. gemm_kernels_avx2.cc instantiates it at 8 lanes (VecF8) and
// gemm_kernels_avx512.cc at 16 (VecF16); each TU compiles it at its own
// target ISA with -ffp-contract=off.
//
// Bitwise contract: every lane runs the scalar port's float operations
// in the same order, so each lane rounds exactly like base::Tanh. Every
// branch of expm1f is computed for every lane, and each lane then keeps
// the branch the scalar code would have taken (94 % of the decoder's
// 8-lane groups mix branches, so there is nothing to skip). Lanes
// outside [2^-55, 22), which covers ±0, subnormals, inf and NaN, and the
// n mod W tail go to base::Tanh. tests/tensor/tanh_kernel_test.cc
// compares every instantiation with the scalar port on all 2^32 inputs.
//
// Header-only, and every function is a template over the vector type,
// so each TU's copies are its own symbols: no AVX-512 instruction can
// reach the AVX2 tier through a shared inline definition.

#include <bit>
#include <cstdint>
#include <utility>

#include "tensor/gemm_kernels.h"
#include "tensor/gemm_tiles.h"
#include "tensor/tanh_fdlibm.h"

namespace nlidb {
namespace gemm {

/// The 32-bit integer views of a float vector type's lanes.
template <typename Vec>
struct LaneInts;

template <>
struct LaneInts<VecF8> {
  typedef int32_t I __attribute__((vector_size(32)));
  typedef uint32_t U __attribute__((vector_size(32)));
};

template <>
struct LaneInts<VecF16> {
  typedef int32_t I __attribute__((vector_size(64)));
  typedef uint32_t U __attribute__((vector_size(64)));
};

namespace tanh_vec {

inline constexpr int32_t kSignBit = INT32_MIN;
inline constexpr int32_t kAbsMask = INT32_MAX;

template <typename Vec>
using I = typename LaneInts<Vec>::I;
template <typename Vec>
using U = typename LaneInts<Vec>::U;

template <typename Vec>
Vec Splat(float v) {
  return Vec{} + v;  // never called with -0.0f, which would become +0
}

template <typename Vec>
I<Vec> AsInt(Vec v) {
  return std::bit_cast<I<Vec>>(v);
}

template <typename Vec>
U<Vec> AsUint(I<Vec> v) {
  return std::bit_cast<U<Vec>>(v);
}

/// The float lanes with the bits of integer lanes `v`.
template <typename Vec, typename Ints>
Vec AsFloat(Ints v) {
  return std::bit_cast<Vec>(v);
}

/// Adds k to every lane's biased exponent (base tier: AddExponent).
template <typename Vec>
Vec AddExponent(Vec y, I<Vec> k) {
  return AsFloat<Vec>(std::bit_cast<U<Vec>>(y) + (AsUint<Vec>(k) << 23));
}

/// Lanes [Lo, Lo + sizeof...(L)) of v as a vector of that many lanes.
template <int Lo, typename V, int... L>
auto Lanes(V v, std::integer_sequence<int, L...>) {
  return __builtin_shufflevector(v, v, (Lo + L)...);
}

/// True when any lane of the comparison mask `m` is set: ORs the upper
/// half onto the lower until two lanes are left, then tests those.
template <typename V>
bool AnyLane(V m) {
  constexpr int kHalfLanes = static_cast<int>(sizeof(V) / sizeof(int32_t)) / 2;
  if constexpr (kHalfLanes == 1) {
    return (m[0] | m[1]) != 0;
  } else {
    constexpr auto half = std::make_integer_sequence<int, kHalfLanes>{};
    return AnyLane(Lanes<0>(m, half) | Lanes<kHalfLanes>(m, half));
  }
}

/// base::Expm1 on every lane, with the scalar port's branches selected
/// per lane.
template <typename Vec>
[[gnu::always_inline]] inline Vec Expm1(Vec x) {
  using VI = I<Vec>;
  const VI neg = x < 0.0f;
  const VI hx = AsInt(x) & kAbsMask;

  // Argument reduction: k = ±1 between 0.5 ln2 and 1.5 ln2, otherwise
  // k = (int)(x/ln2 ± 0.5); no reduction (k = 0) at or below 0.5 ln2.
  const VI reduce = hx > static_cast<int32_t>(kExpm1HalfLn2Bits);
  const VI near = hx < static_cast<int32_t>(kExpm1ThreeHalfLn2Bits);
  const Vec signed_half = neg ? Splat<Vec>(-kHalf) : Splat<Vec>(kHalf);
  const VI k_far = __builtin_convertvector(kInvLn2 * x + signed_half, VI);
  const Vec t_far = __builtin_convertvector(k_far, Vec);
  const Vec hi_far = x - t_far * kLn2Hi;
  const Vec lo_far = t_far * kLn2Lo;
  const Vec hi_near = neg ? x + kLn2Hi : x - kLn2Hi;
  const Vec lo_near = neg ? Splat<Vec>(-kLn2Lo) : Splat<Vec>(kLn2Lo);
  const VI k_near = neg | 1;  // ±1
  const Vec hi = near ? hi_near : hi_far;
  const Vec lo = near ? lo_near : lo_far;
  const Vec xr_reduced = hi - lo;
  const Vec c_reduced = (hi - xr_reduced) - lo;
  const VI k = reduce & (near ? k_near : k_far);
  const Vec xr = reduce ? xr_reduced : x;
  const Vec c = reduce ? c_reduced : Vec{};

  // Primary range.
  const Vec hfx = kHalf * xr;
  const Vec hxs = xr * hfx;
  Vec poly = kQ4 + hxs * kQ5;
  poly = kQ3 + hxs * poly;
  poly = kQ2 + hxs * poly;
  poly = kQ1 + hxs * poly;
  const Vec r1 = kOne + hxs * poly;
  const Vec t = kThree - r1 * hfx;
  const Vec e0 = hxs * ((r1 - t) / (kSix - xr * t));
  const Vec res_k0 = xr - (xr * e0 - hxs);
  const Vec e = (xr * (e0 - c) - c) - hxs;

  // k == -1 and k == 1.
  const Vec res_km1 = kHalf * (xr - e) - kHalf;
  const Vec res_k1 = xr < -kQuarter ? -kTwo * (e - (xr + kHalf))
                                    : kOne + kTwo * (xr - e);
  // k <= -2 or k > 56.
  const Vec e_minus_x = e - xr;
  const Vec res_far = AddExponent(kOne - e_minus_x, k) - kOne;
  // 2^-k from its exponent bits, for the two branches below.
  const Vec two_pow_minus_k = AsFloat<Vec>((0x7fu - AsUint<Vec>(k)) << 23);
  // 2 <= k < 23: t = 1 - 2^-k, which is exact, so the subtraction gives
  // the bits the scalar port builds with an integer shift.
  const Vec res_mid = AddExponent((kOne - two_pow_minus_k) - e_minus_x, k);
  // 23 <= k <= 56: t = 2^-k.
  const Vec res_high = AddExponent((xr - (e + two_pow_minus_k)) + kOne, k);

  Vec res = k < 23 ? res_mid : res_high;
  res = ((k < -1) | (k > 56)) ? res_far : res;
  res = k == 1 ? res_k1 : res;
  res = k == -1 ? res_km1 : res;
  res = k == 0 ? res_k0 : res;
  // |x| < 2^-25 returns x unchanged.
  return hx < static_cast<int32_t>(kExpm1TinyBits) ? x : res;
}

/// base::Tanh on every lane with kTanhTinyBits <= |x| < kTanhBigBits; the
/// caller routes every other lane to the scalar port.
template <typename Vec>
[[gnu::always_inline]] inline Vec TanhInRange(Vec x) {
  using VI = I<Vec>;
  const Vec two = Splat<Vec>(kTwo);
  const Vec ax = AsFloat<Vec>(AsInt(x) & kAbsMask);
  const VI big = AsInt(ax) > static_cast<int32_t>(kTanhOneBits - 1);
  // 2|x| for |x| >= 1, -2|x| below.
  const Vec arg = AsFloat<Vec>(AsInt(kTwo * ax) | (~big & kSignBit));
  const Vec t = Expm1(arg);
  // z = 1 - 2/(t+2) for |x| >= 1, -t/(t+2) below: one division per lane
  // with the numerator blended in.
  const Vec q = (big ? two : -t) / (t + kTwo);
  const Vec z = big ? kOne - q : q;
  return AsFloat<Vec>(AsInt(z) ^ (AsInt(x) & kSignBit));  // tanh is odd
}

}  // namespace tanh_vec

/// out[i] = base::Tanh(in[i]) for i in [0, n), kLanes<Vec> at a time;
/// in == out is allowed.
template <typename Vec>
void TanhRowsVec(const float* in, float* out, int n) {
  using VI = tanh_vec::I<Vec>;
  constexpr int W = kLanes<Vec>;
  int i = 0;
  for (; i + W <= n; i += W) {
    const Vec x = LoadVec<Vec>(in + i);
    const VI ix = tanh_vec::AsInt(x) & tanh_vec::kAbsMask;
    // Lanes outside [2^-55, 22), which covers ±0, subnormals, inf and NaN.
    const VI scalar_lane = (ix < static_cast<int32_t>(kTanhTinyBits)) |
                           (ix > static_cast<int32_t>(kTanhBigBits - 1));
    const bool any_scalar = tanh_vec::AnyLane(scalar_lane);
    StoreVec<Vec>(out + i, tanh_vec::TanhInRange(x));
    if (!any_scalar) continue;
    for (int lane = 0; lane < W; ++lane) {
      // x, not in: in may alias out.
      if (scalar_lane[lane] != 0) out[i + lane] = base::Tanh(x[lane]);
    }
  }
  for (; i < n; ++i) out[i] = base::Tanh(in[i]);
}

}  // namespace gemm
}  // namespace nlidb

#endif  // NLIDB_TENSOR_TANH_VEC_H_
