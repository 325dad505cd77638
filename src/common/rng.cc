#include "common/rng.h"

#include <cmath>

namespace nlidb {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextUint64(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

int Rng::NextInt(int lo, int hi) {
  return lo + static_cast<int>(NextUint64(static_cast<uint64_t>(hi - lo) + 1));
}

float Rng::NextFloat() {
  return static_cast<float>(NextUint64() >> 40) * (1.0f / 16777216.0f);
}

float Rng::NextFloat(float lo, float hi) { return lo + (hi - lo) * NextFloat(); }

float Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  float u1 = 0.0f;
  do {
    u1 = NextFloat();
  } while (u1 <= 1e-12f);
  float u2 = NextFloat();
  float mag = std::sqrt(-2.0f * std::log(u1));
  float two_pi_u2 = 6.28318530717958647692f * u2;
  spare_gaussian_ = mag * std::sin(two_pi_u2);
  has_spare_gaussian_ = true;
  return mag * std::cos(two_pi_u2);
}

bool Rng::NextBool(float p) { return NextFloat() < p; }

}  // namespace nlidb
