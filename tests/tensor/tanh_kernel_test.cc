// Bitwise tests for the tanh row kernels (gemm_kernels.h). The AVX2 tier
// must reproduce the scalar fdlibm port exactly, so the sweep compares the
// two over every one of the 2^32 float bit patterns, split across the
// global thread pool. The named cases pin the range boundaries the AVX2
// tier hands to the scalar port and check the port's values there.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/thread_pool.h"
#include "tensor/gemm_kernels.h"
#include "tensor/tensor.h"

namespace nlidb {
namespace {

uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }

TEST(TanhKernelTest, Avx2TierMatchesScalarPortOnEveryFloat) {
  if (!gemm::avx2::Available()) GTEST_SKIP() << "CPU lacks AVX2";
  constexpr int kBlockBits = 16;
  constexpr int kBlock = 1 << kBlockBits;
  constexpr int kNumBlocks = 1 << (32 - kBlockBits);
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint32_t> first_bad{0};
  ThreadPool::Global().ParallelFor(0, kNumBlocks, [&](int bb, int be) {
    std::vector<float> in(kBlock);
    std::vector<float> want(kBlock);
    std::vector<float> got(kBlock);
    for (int blk = bb; blk < be; ++blk) {
      const uint32_t hi = static_cast<uint32_t>(blk) << kBlockBits;
      for (int j = 0; j < kBlock; ++j) {
        in[j] = std::bit_cast<float>(hi | static_cast<uint32_t>(j));
      }
      gemm::base::TanhRows(in.data(), want.data(), kBlock);
      gemm::avx2::TanhRows(in.data(), got.data(), kBlock);
      for (int j = 0; j < kBlock; ++j) {
        if (Bits(got[j]) != Bits(want[j])) {
          if (mismatches.fetch_add(1) == 0) first_bad.store(Bits(in[j]));
        }
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0u)
      << "first mismatching input bits 0x" << std::hex << first_bad.load();
}

// The boundaries of the AVX2 tier's range [2^-55, 22) and of the scalar
// port's branches, each with both signs.
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
  // 11 lanes: one full 8-lane group plus a scalar tail, so every case is
  // seen in the vector group at every position and in the tail.
  constexpr int kLanes = 11;
  for (float x : cases) {
    const float want = gemm::base::Tanh(x);
    for (int pos = 0; pos < kLanes; ++pos) {
      std::vector<float> in(kLanes, 0.5f);
      in[pos] = x;
      std::vector<float> base_out(kLanes);
      gemm::base::TanhRows(in.data(), base_out.data(), kLanes);
      EXPECT_EQ(Bits(base_out[pos]), Bits(want)) << "x=" << x;
      if (!gemm::avx2::Available()) continue;
      std::vector<float> avx2_out(kLanes);
      gemm::avx2::TanhRows(in.data(), avx2_out.data(), kLanes);
      for (int j = 0; j < kLanes; ++j) {
        EXPECT_EQ(Bits(avx2_out[j]), Bits(base_out[j]))
            << "x=" << x << " pos=" << pos << " lane=" << j;
      }
      // In place, as the decoder calls it.
      gemm::avx2::TanhRows(in.data(), in.data(), kLanes);
      for (int j = 0; j < kLanes; ++j) {
        EXPECT_EQ(Bits(in[j]), Bits(base_out[j]))
            << "in place x=" << x << " pos=" << pos << " lane=" << j;
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
  std::vector<float> in(37);
  for (size_t i = 0; i < in.size(); ++i) {
    in[i] = -3.0f + 0.17f * static_cast<float>(i);
  }
  std::vector<float> want(in.size());
  gemm::base::TanhRows(in.data(), want.data(), static_cast<int>(in.size()));
  for (gemm::Tier tier : {gemm::Tier::kBase, gemm::Tier::kAuto}) {
    gemm::SetTier(tier);
    std::vector<float> got = in;
    TanhRaw(got.data(), got.data(), static_cast<int>(got.size()));
    for (size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(Bits(got[i]), Bits(want[i])) << "i=" << i;
    }
  }
  gemm::SetTier(gemm::Tier::kAuto);
}

}  // namespace
}  // namespace nlidb
