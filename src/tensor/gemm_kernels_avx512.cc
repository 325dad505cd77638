// AVX-512 tanh: tanh_vec.h at 16 lanes, compiled at -march=x86-64-v4
// when the compiler supports it (CMakeLists.txt) and with -ffp-contract=off
// like the other kernel TUs, so every lane still rounds like base::Tanh.
// It is not a tier: the AVX2 tier's tanh resolves to it once when
// Available() (tensor.cc), and the GEMMs stay on the AVX2 kernels
// (DESIGN.md §6). When this TU is built without AVX-512 it degrades to
// thin forwarders onto the base tier and is never selected.

#include "tensor/gemm_kernels.h"

#if defined(__x86_64__) && defined(__AVX512F__)

#include "tensor/gemm_tiles.h"
#include "tensor/tanh_vec.h"

namespace nlidb {
namespace gemm {
namespace avx512 {

bool Available() {
#if defined(__clang__)
  // The ISA-level names are a GCC 12 spelling; clang gets x86-64-v4's
  // AVX-512 subsets one by one.
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512cd") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl");
#else
  return __builtin_cpu_supports("x86-64-v4");
#endif
}

void TanhRows(const float* in, float* out, int n) {
  TanhRowsVec<VecF16>(in, out, n);
}

}  // namespace avx512
}  // namespace gemm
}  // namespace nlidb

#else  // !(__x86_64__ && __AVX512F__)

namespace nlidb {
namespace gemm {
namespace avx512 {

bool Available() { return false; }

void TanhRows(const float* in, float* out, int n) {
  base::TanhRows(in, out, n);
}

}  // namespace avx512
}  // namespace gemm
}  // namespace nlidb

#endif
