#ifndef NLIDB_TENSOR_GEMM_TILES_H_
#define NLIDB_TENSOR_GEMM_TILES_H_

// Register-blocked GEMM micro-tiles shared by the per-ISA kernel
// translation units (gemm_kernels_base.cc / gemm_kernels_avx2.cc — see
// gemm_kernels.inc). Header-only so each TU instantiates the tiles at
// its own target ISA and register budget.
//
// The broadcast tiles use GCC/Clang vector extensions rather than
// relying on auto-vectorization: with runtime strides GCC refuses to
// keep the accumulator tile in registers, collapsing the kernel to
// shuffle-heavy scalar code (~10x slower). Loads/stores go through
// __builtin_memcpy, which compiles to single unaligned vector moves.
//
// Register rule: a tile's MR x V `Vec` accumulators, its V b vectors,
// one broadcast and one product must fit the tier's 16 vector
// registers, and the accumulators live in a function that holds one
// column panel and nothing else (PanelTile). With the column loop and
// the scalar tail in the same function, GCC kept 8 of the AVX2 6x2
// tile's 12 accumulators on the stack (`vaddps 0x..(%rsp)` inside the
// k loop). Check after touching a tile: objdump of either kernel object
// shows no `vaddps`/`addps` with a `(%rsp)` operand (DESIGN.md §6 has
// the command).
//
// Determinism contract: every output element receives its k partial
// products in increasing-k order, with one rounding per multiply-add.
// Vector lanes are independent elements, the TUs compile with
// -ffp-contract=off so no ISA fuses mul+add into an FMA, and therefore
// results are bitwise identical to the scalar reference kernels
// regardless of tile shape or vector width.

#include <type_traits>

namespace nlidb {
namespace gemm {

/// 128-bit lane: available on every x86-64 (SSE2 is baseline) and on
/// AArch64 NEON; the base-tier tile type.
typedef float VecF4 __attribute__((vector_size(16)));
/// 256-bit lane for the AVX2 tier (GCC splits it into two 128-bit ops
/// when the target lacks AVX, so the type itself is always legal).
typedef float VecF8 __attribute__((vector_size(32)));
/// 512-bit lane for the AVX-512 tanh (tanh_vec.h); no GEMM tile uses it.
typedef float VecF16 __attribute__((vector_size(64)));

template <typename Vec>
inline constexpr int kLanes = static_cast<int>(sizeof(Vec) / sizeof(float));

/// Vectors per column panel for an MR-row tile. One and two rows get
/// four-vector panels, so the k loop still has 4 and 8 independent add
/// chains instead of being bound by add latency; taller tiles use two.
inline constexpr int PanelVecs(int mr) { return mr <= 2 ? 4 : 2; }

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

/// One register tile: MR output rows by one column panel of V vectors.
/// The operands arrive offset to the tile's first row and column:
///   a(r, kk)  = a[r * a_rs + kk * a_ks]   (a [m,k]: a_rs = k, a_ks = 1;
///                                          a^T:     a_rs = 1, a_ks = m)
///   b(kk, c)  = b[kk * ldb + c]
///   out(r, c) = out[r * ldo + c]
/// Each k step loads the b row segment once and reuses it across the MR
/// rows. With kZeroInit the chains start at zero and are added to `out`
/// once at the end (the A*B^T reference's `acc = 0; ...; out += acc`);
/// otherwise they start from `out` (the A*B reference's `out += ...`).
///
/// Kept out of line with its k loop rolled, so the register allocator
/// sees the tile alone: inlined into RowsAtB, GCC 12 still kept 8 of the
/// 6x2 tile's accumulators on the stack, and with -funroll-loops
/// unrolling the k loop the 5-row tile spilled one. The small loops are
/// unrolled by pragma so `acc` is split into registers before that.
template <typename Vec, int MR, int V, bool kZeroInit>
__attribute__((noinline)) void PanelTile(const float* a, int a_rs, int a_ks,
                                         const float* b, int ldb, float* out,
                                         int ldo, int k) {
  constexpr int W = kLanes<Vec>;
  Vec acc[MR][V];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      acc[r][v] = kZeroInit ? Vec{} : LoadVec<Vec>(out + r * ldo + v * W);
    }
  }
#pragma GCC unroll 1
  for (int kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
    const float* acol = a + kk * a_ks;
    Vec bv[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) bv[v] = LoadVec<Vec>(brow + v * W);
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      const float av = acol[r * a_rs];  // broadcast across lanes
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) acc[r][v] += bv[v] * av;
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      float* op = out + r * ldo + v * W;
      StoreVec<Vec>(op, kZeroInit ? LoadVec<Vec>(op) + acc[r][v] : acc[r][v]);
    }
  }
}

/// out[0..MR) += A[0..MR) * b for row-major b [k,n], with A's element
/// (r, kk) at a[r * a_rs + kk * a_ks] (see PanelTile) and `out` offset to
/// the tile's first row. Columns go in V-vector panels, then one-vector
/// panels, then scalar chains for the last 1..W-1 columns.
template <typename Vec, int MR, int V>
inline void RowTile(const float* a, int a_rs, int a_ks, const float* b,
                    float* out, int k, int n) {
  constexpr int W = kLanes<Vec>;
  int j = 0;
  for (; j + W * V <= n; j += W * V) {
    PanelTile<Vec, MR, V, false>(a, a_rs, a_ks, b + j, n, out + j, n, k);
  }
  for (; j + W <= n; j += W) {
    PanelTile<Vec, MR, 1, false>(a, a_rs, a_ks, b + j, n, out + j, n, k);
  }
  // Column tail: scalar accumulators, same increasing-k order.
  for (; j < n; ++j) {
    float acc[MR];
    for (int r = 0; r < MR; ++r) acc[r] = out[r * n + j];
    for (int kk = 0; kk < k; ++kk) {
      const float bv = b[kk * n + j];
      for (int r = 0; r < MR; ++r) acc[r] += a[r * a_rs + kk * a_ks] * bv;
    }
    for (int r = 0; r < MR; ++r) out[r * n + j] = acc[r];
  }
}

/// Packs b rows [jo, jo+NR) of a row-major [n, k] matrix into `bp` as
/// [k, NR]: bp[kk*NR + c] = b[(jo+c)*k + kk]. Written column-by-column so
/// every read is a contiguous b row. This turns A*B^T into the same
/// broadcast tile as A*B.
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

/// Leftover-row dispatch for ForEachRowTile: for `rows` in [1, R], calls
/// `tile` at the compile-time height equal to `rows`; 0 calls nothing.
template <int R, typename TileFn>
inline void LeftoverRowTile(int rows, int i0, TileFn& tile) {
  if constexpr (R > 0) {
    if (rows == R) {
      tile(std::integral_constant<int, R>{}, i0);
    } else {
      LeftoverRowTile<R - 1>(rows, i0, tile);
    }
  }
}

/// Covers output rows [0, m) with `tile(rows, i0)` calls, where `rows`
/// is a std::integral_constant height: full MR-row tiles, then the
/// m % MR leftover rows as one tile of that height, so a beam's 1..5-row
/// product shares every b load across all of its rows.
template <int MR, typename TileFn>
inline void ForEachRowTile(int m, TileFn tile) {
  int i = 0;
  for (; i + MR <= m; i += MR) tile(std::integral_constant<int, MR>{}, i);
  LeftoverRowTile<MR - 1>(m - i, i, tile);
}

}  // namespace gemm
}  // namespace nlidb

#endif  // NLIDB_TENSOR_GEMM_TILES_H_
