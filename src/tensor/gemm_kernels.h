#ifndef NLIDB_TENSOR_GEMM_KERNELS_H_
#define NLIDB_TENSOR_GEMM_KERNELS_H_

// Row kernels compiled once per ISA tier: the GEMMs and the elementwise
// tanh.
//
// The kernels are instantiated by two translation units:
// gemm_kernels_base.cc (the toolchain's default target, runs anywhere the
// binary does) and gemm_kernels_avx2.cc (-march=x86-64-v3 where the
// compiler supports it, selected at runtime only when the CPU reports
// AVX2). Both TUs build with -ffp-contract=off, so neither tier fuses
// multiply-adds and both produce bitwise-identical results — which
// machine runs the model never changes its outputs.
//
// tanh does not call libm. The base tier is a scalar port of the fdlibm
// tanhf -> expm1f algorithm (the code glibc ships for tanhf on x86-64).
// tanh_vec.h runs the same float operations on every lane of a vector
// and hands lanes outside its range (|x| >= 22, |x| < 2^-55, ±0, inf,
// NaN) to the scalar port; the AVX2 tier instantiates it at 8 lanes and
// gemm_kernels_avx512.cc at 16. The AVX2 tier's tanh_rows is the
// 16-lane kernel when avx512::Available(); there is no AVX-512 tier,
// and the GEMMs stay on the AVX2 kernels.
// tests/tensor/tanh_kernel_test.cc checks every instantiation against
// the scalar port bit for bit over all 2^32 inputs, so a glibc whose
// tanhf rounds differently cannot change model outputs.

namespace nlidb {
namespace gemm {

// out += a * b          (a [m,k], b [k,n], out [m,n])
using RowsABFn = void (*)(const float* a, const float* b, float* out, int m,
                          int k, int n);
// out += a * b^T        (a [m,k], b [n,k], out [m,n])
using RowsABtFn = void (*)(const float* a, const float* b, float* out, int m,
                           int k, int n);
// out += a^T * b        (a [k,m], b [k,n], out [m,n])
using RowsAtBFn = void (*)(const float* a, const float* b, float* out, int k,
                           int m, int n);
// out[i] = tanh(in[i]) for i in [0, n); in == out is allowed.
using TanhRowsFn = void (*)(const float* in, float* out, int n);

namespace base {
void RowsAB(const float* a, const float* b, float* out, int m, int k, int n);
void RowsABt(const float* a, const float* b, float* out, int m, int k, int n);
void RowsAtB(const float* a, const float* b, float* out, int k, int m, int n);
/// The scalar fdlibm tanhf port; the AVX2 tier also uses it for the
/// lanes it does not vectorize.
[[nodiscard]] float Tanh(float x);
void TanhRows(const float* in, float* out, int n);
}  // namespace base

namespace avx2 {
/// True only when this TU was compiled at x86-64-v3 AND the running CPU
/// supports AVX2; the base tier is used otherwise.
[[nodiscard]] bool Available();
void RowsAB(const float* a, const float* b, float* out, int m, int k, int n);
void RowsABt(const float* a, const float* b, float* out, int m, int k, int n);
void RowsAtB(const float* a, const float* b, float* out, int k, int m, int n);
void TanhRows(const float* in, float* out, int n);
}  // namespace avx2

namespace avx512 {
/// True only when this TU was compiled at x86-64-v4 AND the running CPU
/// supports it. Not a tier: the AVX2 tier's tanh_rows resolves here.
[[nodiscard]] bool Available();
void TanhRows(const float* in, float* out, int n);
}  // namespace avx512

struct RowKernels {
  RowsABFn rows_ab;
  RowsABtFn rows_abt;
  RowsAtBFn rows_atb;
  TanhRowsFn tanh_rows;
};

/// Kernel tier selection. `kAuto` picks the best tier the CPU supports;
/// the explicit tiers exist so correctness harnesses (golden traces,
/// differential fuzzers) can pin or sweep tiers. Requesting `kAvx2` on a
/// machine without AVX2 falls back to `kBase`.
enum class Tier { kAuto, kBase, kAvx2 };

/// Forces the tier used by `Kernels()`. Also settable through the
/// NLIDB_GEMM_TIER environment variable (base | avx2 | auto), read once
/// before the first kernel dispatch; SetTier overrides it. Safe to call
/// concurrently with kernel dispatch (the selection is atomic), but for
/// reproducible output switch tiers only between inference requests.
void SetTier(Tier tier);

/// The tier `Kernels()` currently resolves to: always kBase or kAvx2.
/// The requested tier lives in a std::atomic (tensor.cc RequestedTier),
/// which is the only sanctioned lock-free shared state in the kernel
/// layer: the dispatch read is relaxed because tier choice never guards
/// other memory — both tables compute bitwise-identical results.
[[nodiscard]] Tier ActiveTier();

/// The kernel table for the active tier.
[[nodiscard]] const RowKernels& Kernels();

}  // namespace gemm
}  // namespace nlidb

#endif  // NLIDB_TENSOR_GEMM_KERNELS_H_
