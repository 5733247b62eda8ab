#ifndef DICHO_COMMON_RANDOM_H_
#define DICHO_COMMON_RANDOM_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>

namespace dicho {

/// Deterministic xoshiro256++ PRNG. Every stochastic component in the library
/// (simulator jitter, workload generators, election timeouts) draws from an
/// explicitly seeded Rng so whole-cluster runs replay bit-identically.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // SplitMix64 seeding to fill the state from a single word.
    uint64_t z = seed;
    for (auto& s : state_) {
      z += 0x9E3779B97F4A7C15ull;
      uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
      s = x ^ (x >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, n). Pre-condition: n > 0.
  uint64_t Uniform(uint64_t n) {
    assert(n > 0);
    return Next() % n;
  }

  /// Uniform in [lo, hi]. Pre-condition: lo <= hi.
  uint64_t UniformRange(uint64_t lo, uint64_t hi) {
    return lo + Uniform(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Exponentially distributed with the given mean (for Poisson arrivals and
  /// simulated PoW mining intervals).
  double Exponential(double mean) {
    double u = NextDouble();
    if (u >= 1.0) u = 0.9999999999;
    return -mean * std::log(1.0 - u);
  }

  /// Random printable-byte string of exactly n bytes (workload payloads).
  /// One Uniform(26) draw per byte, in order: the stream is part of every
  /// golden baseline.
  std::string Bytes(size_t n) {
    std::string s(n, '\0');
    char* out = s.data();
    for (size_t i = 0; i < n; i++) {
      out[i] = static_cast<char>('a' + Uniform(26));
    }
    return s;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t state_[4];
};

/// Zipfian key-index generator over [0, n) following Gray et al., the same
/// construction YCSB uses. theta = 0 degenerates to uniform; theta -> 1 is a
/// heavily skewed distribution (the paper sweeps theta in {0, 0.2, ..., 1}).
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t n, double theta) : n_(n), theta_(theta) {
    assert(n > 0);
    if (theta_ <= 0.0) return;  // uniform fast path
    // The Gray formulation is undefined exactly at theta == 1; nudge.
    if (theta_ >= 0.9999) theta_ = 0.9999;
    zetan_ = Zeta(n_, theta_);
    zeta2_ = Zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2_ / zetan_);
  }

  uint64_t Next(Rng* rng) {
    if (theta_ <= 0.0) return rng->Uniform(n_);
    const double u = rng->NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    return static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  }

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  static double Zeta(uint64_t n, double theta) {
    double sum = 0;
    for (uint64_t i = 1; i <= n; i++) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
  }

  uint64_t n_;
  double theta_;
  double zetan_ = 0, zeta2_ = 0, alpha_ = 0, eta_ = 0;
};

}  // namespace dicho

#endif  // DICHO_COMMON_RANDOM_H_
