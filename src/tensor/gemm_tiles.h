#ifndef NLIDB_TENSOR_GEMM_TILES_H_
#define NLIDB_TENSOR_GEMM_TILES_H_

// Register-blocked GEMM micro-tiles shared by the per-ISA kernel
// translation units (gemm_kernels_base.cc / gemm_kernels_avx2.cc — see
// gemm_kernels.inc). Header-only so each TU instantiates the tiles at
// its own target ISA and register budget.
//
// The broadcast tiles (AB / AtB) use GCC/Clang vector extensions rather
// than relying on auto-vectorization: with runtime strides GCC refuses
// to keep the accumulator tile in registers, collapsing the kernel to
// shuffle-heavy scalar code (~10x slower). An explicit `Vec` accumulator
// array pins the tile in vector registers; loads/stores go through
// __builtin_memcpy, which compiles to single unaligned vector moves.
//
// Determinism contract: every output element receives its k partial
// products in increasing-k order, with one rounding per multiply-add.
// Vector lanes are independent elements, the TUs compile with
// -ffp-contract=off so no ISA fuses mul+add into an FMA, and therefore
// results are bitwise identical to the scalar reference kernels
// regardless of tile shape or vector width.

namespace nlidb {
namespace gemm {

/// 128-bit lane: available on every x86-64 (SSE2 is baseline) and on
/// AArch64 NEON; the base-tier tile type.
typedef float VecF4 __attribute__((vector_size(16)));
/// 256-bit lane for the AVX2 tier (GCC splits it into two 128-bit ops
/// when the target lacks AVX, so the type itself is always legal).
typedef float VecF8 __attribute__((vector_size(32)));

template <typename Vec>
inline Vec LoadVec(const float* p) {
  Vec v;
  __builtin_memcpy(&v, p, sizeof(Vec));
  return v;
}

template <typename Vec>
inline void StoreVec(float* p, Vec v) {
  __builtin_memcpy(p, &v, sizeof(Vec));
}

/// out[i0..i0+MR) += a[i0..i0+MR) * b for row-major a [m,k], b [k,n]:
/// MR output rows held in an MR x V register tile of Vec-wide column
/// panels. The b row is loaded once per (k, panel) and reused across the
/// MR rows, turning the reference kernel's 2 loads + 1 store per
/// multiply-add into ~1/MR of that.
template <typename Vec, int MR, int V>
inline void MicroPanelAB(const float* a, const float* b, float* out, int i0,
                         int k, int n) {
  constexpr int W = static_cast<int>(sizeof(Vec) / sizeof(float));
  constexpr int NR = W * V;
  int j = 0;
  for (; j + NR <= n; j += NR) {
    Vec acc[MR][V];
    for (int r = 0; r < MR; ++r) {
      for (int v = 0; v < V; ++v) {
        acc[r][v] = LoadVec<Vec>(out + (i0 + r) * n + j + v * W);
      }
    }
    for (int kk = 0; kk < k; ++kk) {
      const float* brow = b + kk * n + j;
      Vec bv[V];
      for (int v = 0; v < V; ++v) bv[v] = LoadVec<Vec>(brow + v * W);
      for (int r = 0; r < MR; ++r) {
        const float av = a[(i0 + r) * k + kk];  // broadcast across lanes
        for (int v = 0; v < V; ++v) acc[r][v] += bv[v] * av;
      }
    }
    for (int r = 0; r < MR; ++r) {
      for (int v = 0; v < V; ++v) {
        StoreVec<Vec>(out + (i0 + r) * n + j + v * W, acc[r][v]);
      }
    }
  }
  // Column tail: scalar accumulators, same increasing-k order.
  for (; j < n; ++j) {
    float acc[MR];
    for (int r = 0; r < MR; ++r) acc[r] = out[(i0 + r) * n + j];
    for (int kk = 0; kk < k; ++kk) {
      const float bv = b[kk * n + j];
      for (int r = 0; r < MR; ++r) acc[r] += a[(i0 + r) * k + kk] * bv;
    }
    for (int r = 0; r < MR; ++r) out[(i0 + r) * n + j] = acc[r];
  }
}

/// AB^T via panel packing: `bp` is an [k, NR] packed copy of b's rows
/// [jo, jo+NR) (see PackBtPanel), which turns the transposed product
/// into the same broadcast tile as MicroPanelAB. Each output element's
/// partials still accumulate in increasing-k order into a zeroed
/// register chain that is added to `out` once at the end — exactly the
/// reference kernel's `acc = 0; for k: acc += ...; out += acc` order, so
/// the result is bitwise identical.
template <typename Vec, int MR, int V>
inline void MicroPanelABtPacked(const float* a, const float* bp, float* out,
                                int i0, int jo, int k, int n) {
  constexpr int W = static_cast<int>(sizeof(Vec) / sizeof(float));
  constexpr int NR = W * V;
  Vec acc[MR][V];
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < V; ++v) acc[r][v] = Vec{};
  }
  for (int kk = 0; kk < k; ++kk) {
    const float* brow = bp + kk * NR;
    Vec bv[V];
    for (int v = 0; v < V; ++v) bv[v] = LoadVec<Vec>(brow + v * W);
    for (int r = 0; r < MR; ++r) {
      const float av = a[(i0 + r) * k + kk];
      for (int v = 0; v < V; ++v) acc[r][v] += bv[v] * av;
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < V; ++v) {
      float* op = out + (i0 + r) * n + jo + v * W;
      StoreVec<Vec>(op, LoadVec<Vec>(op) + acc[r][v]);
    }
  }
}

/// Packs b rows [jo, jo+NR) of a row-major [n, k] matrix into `bp` as
/// [k, NR]: bp[kk*NR + c] = b[(jo+c)*k + kk]. Written column-by-column so
/// every read is a contiguous b row.
inline void PackBtPanel(const float* b, float* bp, int jo, int k, int nr) {
  for (int c = 0; c < nr; ++c) {
    const float* brow = b + (jo + c) * k;
    for (int kk = 0; kk < k; ++kk) bp[kk * nr + c] = brow[kk];
  }
}

/// Scalar-chain tail for AB^T columns [j0, n): the 1..NR-1 columns that
/// do not fill a packed panel. Same dot-chain order as the reference.
template <int MR>
inline void MicroColTailABt(const float* a, const float* b, float* out,
                            int i0, int j0, int k, int n) {
  for (int j = j0; j < n; ++j) {
    float acc[MR] = {};
    for (int kk = 0; kk < k; ++kk) {
      const float bv = b[j * k + kk];
      for (int r = 0; r < MR; ++r) acc[r] += a[(i0 + r) * k + kk] * bv;
    }
    for (int r = 0; r < MR; ++r) out[(i0 + r) * n + j] += acc[r];
  }
}

/// out[i0..i0+MR) += (a^T)[i0..i0+MR) * b for row-major a [k,m], b [k,n].
/// Same register tile as MicroPanelAB; only the a indexing differs
/// (column-strided gather of MR scalars per k step). Replaces the
/// reference kernel's k full sweeps over the out matrix with a single
/// pass.
template <typename Vec, int MR, int V>
inline void MicroPanelAtB(const float* a, const float* b, float* out, int i0,
                          int k, int m, int n) {
  constexpr int W = static_cast<int>(sizeof(Vec) / sizeof(float));
  constexpr int NR = W * V;
  int j = 0;
  for (; j + NR <= n; j += NR) {
    Vec acc[MR][V];
    for (int r = 0; r < MR; ++r) {
      for (int v = 0; v < V; ++v) {
        acc[r][v] = LoadVec<Vec>(out + (i0 + r) * n + j + v * W);
      }
    }
    for (int kk = 0; kk < k; ++kk) {
      const float* brow = b + kk * n + j;
      const float* acol = a + kk * m + i0;
      Vec bv[V];
      for (int v = 0; v < V; ++v) bv[v] = LoadVec<Vec>(brow + v * W);
      for (int r = 0; r < MR; ++r) {
        const float av = acol[r];
        for (int v = 0; v < V; ++v) acc[r][v] += bv[v] * av;
      }
    }
    for (int r = 0; r < MR; ++r) {
      for (int v = 0; v < V; ++v) {
        StoreVec<Vec>(out + (i0 + r) * n + j + v * W, acc[r][v]);
      }
    }
  }
  for (; j < n; ++j) {
    float acc[MR];
    for (int r = 0; r < MR; ++r) acc[r] = out[(i0 + r) * n + j];
    for (int kk = 0; kk < k; ++kk) {
      const float bv = b[kk * n + j];
      for (int r = 0; r < MR; ++r) acc[r] += a[kk * m + i0 + r] * bv;
    }
    for (int r = 0; r < MR; ++r) out[(i0 + r) * n + j] = acc[r];
  }
}

/// Drives MicroPanel over output rows [0, m): full MR-row panels, then
/// a 1..MR-1 row tail. `Panel` is one of the micro-tiles above bound to
/// its extra geometry arguments.
template <int MR, typename PanelFn, typename TailFn>
inline void ForEachRowPanel(int m, PanelFn panel, TailFn tail) {
  int i = 0;
  for (; i + MR <= m; i += MR) panel(i);
  for (; i < m; ++i) tail(i);
}

}  // namespace gemm
}  // namespace nlidb

#endif  // NLIDB_TENSOR_GEMM_TILES_H_
