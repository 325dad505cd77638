#ifndef NLIDB_TENSOR_TANH_FDLIBM_H_
#define NLIDB_TENSOR_TANH_FDLIBM_H_

// Constants of the fdlibm single-precision tanhf -> expm1f algorithm
// (s_tanhf.c / s_expm1f.c, the code glibc ships for tanhf on x86-64),
// shared by the scalar port in gemm_kernels_base.cc and its vector form
// in tanh_vec.h (8 lanes on AVX2, 16 on AVX-512). Bit patterns are
// fdlibm's; the kernels compare |x| as an integer against the k*Bits
// thresholds.

#include <bit>
#include <cstdint>

namespace nlidb {
namespace gemm {

// tanhf range splits on the bits of |x|.
inline constexpr uint32_t kTanhBigBits = 0x41b00000;   // 22: rounds to ±1
inline constexpr uint32_t kTanhTinyBits = 0x24000000;  // 2^-55: x*(1+x)
inline constexpr uint32_t kTanhOneBits = 0x3f800000;   // 1: expm1f form

// expm1f argument-reduction splits on the bits of |x|.
inline constexpr uint32_t kExpm1TinyBits = 0x33000000;          // 2^-25
inline constexpr uint32_t kExpm1HalfLn2Bits = 0x3eb17218;       // 0.5 ln2
inline constexpr uint32_t kExpm1ThreeHalfLn2Bits = 0x3f851592;  // 1.5 ln2

// Every float constant of the algorithm lives here, so the two tiers
// cannot drift apart on one (nlidb_lint's gemm-literal-drift rule).
inline constexpr float kQuarter = 0.25f;
inline constexpr float kHalf = 0.5f;
inline constexpr float kOne = 1.0f;
inline constexpr float kTwo = 2.0f;
inline constexpr float kThree = 3.0f;
inline constexpr float kSix = 6.0f;
inline constexpr float kLn2Hi = std::bit_cast<float>(0x3f317180u);
inline constexpr float kLn2Lo = std::bit_cast<float>(0x3717f7d1u);
inline constexpr float kInvLn2 = std::bit_cast<float>(0x3fb8aa3bu);
inline constexpr float kQ1 = std::bit_cast<float>(0xbd088889u);
inline constexpr float kQ2 = std::bit_cast<float>(0x3ad00d01u);
inline constexpr float kQ3 = std::bit_cast<float>(0xb8a670cdu);
inline constexpr float kQ4 = std::bit_cast<float>(0x36867e54u);
inline constexpr float kQ5 = std::bit_cast<float>(0xb457edbbu);

}  // namespace gemm
}  // namespace nlidb

#endif  // NLIDB_TENSOR_TANH_FDLIBM_H_
