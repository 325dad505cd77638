// AVX2 kernel tier: compiled at -march=x86-64-v3 when the compiler
// supports it (CMakeLists.txt), with -ffp-contract=off so the FMA units
// are never used — vector lanes round exactly like the baseline tier and
// results stay bitwise identical across machines. Selected at runtime by
// Available(); when this TU is built without AVX2 (non-x86 target or old
// compiler) it degrades to thin forwarders onto the base tier. The tanh
// kernel is tanh_vec.h at 8 lanes; on CPUs with AVX-512, TanhRaw runs
// the 16-lane instantiation of gemm_kernels_avx512.cc instead.

#include "tensor/gemm_kernels.h"

#if defined(__x86_64__) && defined(__AVX2__)

#include "tensor/gemm_tiles.h"
#include "tensor/tanh_vec.h"

#define NLIDB_GEMM_NS avx2
#define NLIDB_GEMM_VEC VecF8
#define NLIDB_GEMM_MR 6
#include "tensor/gemm_kernels.inc"

namespace nlidb {
namespace gemm {
namespace avx2 {

bool Available() { return __builtin_cpu_supports("avx2"); }

void TanhRows(const float* in, float* out, int n) {
  TanhRowsVec<VecF8>(in, out, n);
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
