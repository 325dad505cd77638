// Bitwise tests for the tanh row kernels (gemm_kernels.h). The vector
// instantiations of tanh_vec.h, 8 lanes on AVX2 and 16 on AVX-512, must
// reproduce the scalar fdlibm port exactly, so the sweep compares every
// one the CPU can run with the port over all 2^32 float bit patterns,
// split across eight threads. The named cases pin the range boundaries
// the vector kernels hand to the scalar port and check the port's values
// there.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/gemm_kernels.h"
#include "tensor/tensor.h"
#include "testing/threads.h"

namespace nlidb {
namespace {

uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }

struct VectorKernel {
  const char* name;
  gemm::TanhRowsFn fn;
};

/// The vector tanh kernels this CPU can run.
std::vector<VectorKernel> AvailableKernels() {
  std::vector<VectorKernel> kernels;
  if (gemm::avx2::Available()) {
    kernels.push_back({"avx2", gemm::avx2::TanhRows});
  }
  if (gemm::avx512::Available()) {
    kernels.push_back({"avx512", gemm::avx512::TanhRows});
  }
  return kernels;
}

TEST(TanhKernelTest, VectorKernelsMatchScalarPortOnEveryFloat) {
  const std::vector<VectorKernel> kernels = AvailableKernels();
  if (kernels.empty()) GTEST_SKIP() << "CPU lacks AVX2: no vector kernel";
  constexpr int kBlockBits = 16;
  constexpr int kBlock = 1 << kBlockBits;
  constexpr int kNumBlocks = 1 << (32 - kBlockBits);
  const size_t num_kernels = kernels.size();
  std::vector<std::atomic<uint64_t>> mismatches(num_kernels);
  std::vector<std::atomic<uint32_t>> first_bad(num_kernels);
  constexpr int kThreads = 8;
  testing::RunOnThreads(kThreads, [&](int t) {
    const int bb = t * (kNumBlocks / kThreads);
    const int be = (t + 1) * (kNumBlocks / kThreads);
    std::vector<float> in(kBlock);
    std::vector<float> want(kBlock);
    std::vector<float> got(kBlock);
    for (int blk = bb; blk < be; ++blk) {
      const uint32_t hi = static_cast<uint32_t>(blk) << kBlockBits;
      for (int j = 0; j < kBlock; ++j) {
        in[j] = std::bit_cast<float>(hi | static_cast<uint32_t>(j));
      }
      // The scalar port once per block, whatever the number of kernels.
      gemm::base::TanhRows(in.data(), want.data(), kBlock);
      for (size_t k = 0; k < num_kernels; ++k) {
        kernels[k].fn(in.data(), got.data(), kBlock);
        for (int j = 0; j < kBlock; ++j) {
          if (Bits(got[j]) != Bits(want[j]) &&
              mismatches[k].fetch_add(1) == 0) {
            first_bad[k].store(Bits(in[j]));
          }
        }
      }
    }
  });
  for (size_t k = 0; k < num_kernels; ++k) {
    EXPECT_EQ(mismatches[k].load(), 0u)
        << kernels[k].name << ": first mismatching input bits 0x" << std::hex
        << first_bad[k].load();
  }
  if (!gemm::avx512::Available()) {
    GTEST_SKIP() << "CPU lacks x86-64-v4 (AVX-512): 16-lane sweep skipped, "
                    "8-lane sweep passed";
  }
}

// The boundaries of the vector kernels' range [2^-55, 22) and of the
// scalar port's branches, each with both signs.
std::vector<float> EdgeCases() {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float tiny_bound = std::ldexp(1.0f, -55);
  const std::vector<float> magnitudes = {
      0.0f,
      std::numeric_limits<float>::denorm_min(),
      std::bit_cast<float>(0x007fffffu),  // largest subnormal
      std::numeric_limits<float>::min(),
      std::nextafter(tiny_bound, 0.0f),
      tiny_bound,
      std::nextafter(tiny_bound, 1.0f),
      std::ldexp(1.0f, -25),  // expm1f returns its argument below this
      std::nextafter(1.0f, 0.0f),
      1.0f,
      std::nextafter(1.0f, 2.0f),
      std::nextafter(22.0f, 0.0f),
      22.0f,
      std::nextafter(22.0f, 23.0f),
      std::numeric_limits<float>::max(),
      inf,
      nan,
  };
  std::vector<float> cases;
  for (float m : magnitudes) {
    cases.push_back(m);
    cases.push_back(-m);
  }
  return cases;
}

TEST(TanhKernelTest, EdgeCasesMatchAtEveryLane) {
  const std::vector<float> cases = EdgeCases();
  const std::vector<VectorKernel> kernels = AvailableKernels();
  // Rows of 1..31 elements: every case at every lane of a 16-lane group
  // (and of both 8-lane groups in it) and in every position of tails of
  // 1..15, with in-range neighbours that take several expm1f branches.
  constexpr int kMaxRow = 31;
  for (float x : cases) {
    const float want = gemm::base::Tanh(x);
    for (int n = 1; n <= kMaxRow; ++n) {
      for (int pos = 0; pos < n; ++pos) {
        std::vector<float> in(n);
        for (int j = 0; j < n; ++j) {
          in[j] = -3.0f + 0.37f * static_cast<float>(j);
        }
        in[pos] = x;
        std::vector<float> base_out(n);
        gemm::base::TanhRows(in.data(), base_out.data(), n);
        ASSERT_EQ(Bits(base_out[pos]), Bits(want)) << "x=" << x;
        for (const VectorKernel& kernel : kernels) {
          std::vector<float> out(n);
          kernel.fn(in.data(), out.data(), n);
          std::vector<float> in_place = in;  // as the decoder calls it
          kernel.fn(in_place.data(), in_place.data(), n);
          for (int j = 0; j < n; ++j) {
            EXPECT_EQ(Bits(out[j]), Bits(base_out[j]))
                << kernel.name << " x=" << x << " n=" << n << " pos=" << pos
                << " lane=" << j;
            EXPECT_EQ(Bits(in_place[j]), Bits(base_out[j]))
                << kernel.name << " in place x=" << x << " n=" << n
                << " pos=" << pos << " lane=" << j;
          }
        }
      }
    }
  }
}

TEST(TanhKernelTest, ScalarPortValuesAtBoundaries) {
  const float inf = std::numeric_limits<float>::infinity();
  const float tiny_bound = std::ldexp(1.0f, -55);
  const float subnormal = std::numeric_limits<float>::denorm_min();
  EXPECT_EQ(Bits(gemm::base::Tanh(0.0f)), Bits(0.0f));
  EXPECT_EQ(Bits(gemm::base::Tanh(-0.0f)), Bits(-0.0f));
  EXPECT_EQ(gemm::base::Tanh(subnormal), subnormal);
  EXPECT_EQ(gemm::base::Tanh(-subnormal), -subnormal);
  EXPECT_EQ(gemm::base::Tanh(tiny_bound), tiny_bound);
  EXPECT_EQ(gemm::base::Tanh(inf), 1.0f);
  EXPECT_EQ(gemm::base::Tanh(-inf), -1.0f);
  EXPECT_TRUE(std::isnan(
      gemm::base::Tanh(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_EQ(gemm::base::Tanh(22.0f), 1.0f);
  EXPECT_EQ(gemm::base::Tanh(-22.0f), -1.0f);
  // tanh(1) = 0.76159415595..., nearest float 0x3f42f7d6.
  EXPECT_EQ(Bits(gemm::base::Tanh(1.0f)), 0x3f42f7d6u);
  EXPECT_EQ(Bits(gemm::base::Tanh(-1.0f)), 0xbf42f7d6u);
}

TEST(TanhKernelTest, TanhRawMatchesScalarPortOnEveryTier) {
  // 37 covers two 16-lane groups plus a tail of 5; 64 is the attention's
  // row width.
  for (int n : {37, 64}) {
    std::vector<float> in(n);
    for (int i = 0; i < n; ++i) in[i] = -3.0f + 0.17f * static_cast<float>(i);
    std::vector<float> want(n);
    gemm::base::TanhRows(in.data(), want.data(), n);
    for (gemm::Tier tier :
         {gemm::Tier::kBase, gemm::Tier::kAvx2, gemm::Tier::kAuto}) {
      gemm::SetTier(tier);
      std::vector<float> got = in;
      TanhRaw(got.data(), got.data(), n);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(Bits(got[i]), Bits(want[i]))
            << "tier " << static_cast<int>(tier) << " n=" << n << " i=" << i;
      }
    }
  }
  gemm::SetTier(gemm::Tier::kAuto);
}

TEST(TanhKernelTest, Avx2TierTanhRunsSixteenLanesWhereAvailable) {
  if (!gemm::avx2::Available()) GTEST_SKIP() << "CPU lacks AVX2";
  gemm::SetTier(gemm::Tier::kAvx2);
  const gemm::TanhRowsFn want = gemm::avx512::Available()
                                    ? gemm::avx512::TanhRows
                                    : gemm::avx2::TanhRows;
  EXPECT_EQ(gemm::Kernels().tanh_rows, want);
  gemm::SetTier(gemm::Tier::kBase);
  EXPECT_EQ(gemm::Kernels().tanh_rows, gemm::base::TanhRows);
  gemm::SetTier(gemm::Tier::kAuto);
}

}  // namespace
}  // namespace nlidb
