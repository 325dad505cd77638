// Baseline kernel tier: compiled at the toolchain's default target so it
// runs on any machine the binary does. Build flags (see CMakeLists.txt):
// -O3 -funroll-loops -ffp-contract=off.

#include <bit>
#include <cmath>
#include <cstdint>

#include "tensor/gemm_kernels.h"  // IWYU pragma: keep
#include "tensor/gemm_tiles.h"
#include "tensor/tanh_fdlibm.h"

#define NLIDB_GEMM_NS base
#define NLIDB_GEMM_VEC VecF4
#define NLIDB_GEMM_MR 4
#include "tensor/gemm_kernels.inc"

namespace nlidb {
namespace gemm {
namespace base {

namespace {

/// Adds k to the biased exponent of y: fdlibm's
/// SET_FLOAT_WORD(y, i + (k << 23)).
float AddExponent(float y, int k) {
  return std::bit_cast<float>(std::bit_cast<uint32_t>(y) +
                              (static_cast<uint32_t>(k) << 23));
}

/// The primary-range part of fdlibm expm1f shared by its k == 0 and
/// k != 0 returns.
struct Expm1Primary {
  float hxs;
  float e;
};

Expm1Primary PrimaryRange(float x) {
  const float hfx = kHalf * x;
  const float hxs = x * hfx;
  const float r1 =
      kOne + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t = kThree - r1 * hfx;
  return {hxs, hxs * ((r1 - t) / (kSix - x * t))};
}

/// fdlibm expm1f, restricted to the arguments Tanh passes: (-2, -2^-54]
/// and [2, 44). The overflow and non-finite filter at the top of
/// s_expm1f.c (|x| >= 27 ln2 with x < 0, |x| >= 88.7) cannot trigger
/// there and is left out; every other statement is kept in fdlibm's
/// order, in float arithmetic.
float Expm1(float x) {
  const uint32_t bits = std::bit_cast<uint32_t>(x);
  const bool neg = (bits >> 31) != 0;
  const uint32_t hx = bits & 0x7fffffffu;
  if (hx <= kExpm1HalfLn2Bits) {  // k == 0: no argument reduction
    if (hx < kExpm1TinyBits) return x;
    const Expm1Primary p = PrimaryRange(x);
    return x - (x * p.e - p.hxs);
  }
  float hi;
  float lo;
  int k;
  if (hx < kExpm1ThreeHalfLn2Bits) {
    hi = neg ? x + kLn2Hi : x - kLn2Hi;
    lo = neg ? -kLn2Lo : kLn2Lo;
    k = neg ? -1 : 1;
  } else {
    k = static_cast<int>(kInvLn2 * x + (neg ? -kHalf : kHalf));
    const float t = static_cast<float>(k);
    hi = x - t * kLn2Hi;  // t*ln2_hi is exact here
    lo = t * kLn2Lo;
  }
  x = hi - lo;
  const float c = (hi - x) - lo;
  const Expm1Primary p = PrimaryRange(x);
  float e = (x * (p.e - c) - c);
  e -= p.hxs;
  if (k == -1) return kHalf * (x - e) - kHalf;
  if (k == 1) {
    if (x < -kQuarter) return -kTwo * (e - (x + kHalf));
    return kOne + kTwo * (x - e);
  }
  if (k <= -2 || k > 56) return AddExponent(kOne - (e - x), k) - kOne;
  if (k < 23) {
    const float one_minus = std::bit_cast<float>(
        0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    return AddExponent(one_minus - (e - x), k);
  }
  const float two_pow_minus_k =
      std::bit_cast<float>(static_cast<uint32_t>(0x7f - k) << 23);  // 2^-k
  return AddExponent((x - (e + two_pow_minus_k)) + kOne, k);
}

}  // namespace

float Tanh(float x) {
  const uint32_t jx = std::bit_cast<uint32_t>(x);
  const uint32_t ix = jx & 0x7fffffffu;
  const bool neg = (jx >> 31) != 0;
  if (ix >= 0x7f800000u) {  // tanh(±inf) = ±1, tanh(NaN) = NaN
    return neg ? kOne / x - kOne : kOne / x + kOne;
  }
  float z;
  if (ix < kTanhBigBits) {
    if (ix == 0) return x;  // ±0
    if (ix < kTanhTinyBits) return x * (kOne + x);
    if (ix >= kTanhOneBits) {
      const float t = Expm1(kTwo * std::fabs(x));
      z = kOne - kTwo / (t + kTwo);
    } else {
      const float t = Expm1(-kTwo * std::fabs(x));
      z = -t / (t + kTwo);
    }
  } else {
    z = kOne;  // fdlibm's one - tiny, which rounds to 1
  }
  return neg ? -z : z;
}

void TanhRows(const float* in, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = Tanh(in[i]);
}

}  // namespace base
}  // namespace gemm
}  // namespace nlidb
