#include "common/random.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "crypto/sha256.h"

namespace dicho {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; i++) {
    if (a.Next() == b.Next()) equal++;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(rng.Uniform(10), 10u);
    uint64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; i++) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; i++) {
    if (rng.Bernoulli(0.3)) hits++;
  }
  double freq = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(freq, 0.3, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int kTrials = 50000;
  for (int i = 0; i < kTrials; i++) {
    sum += rng.Exponential(100.0);
  }
  EXPECT_NEAR(sum / kTrials, 100.0, 3.0);
}

TEST(RngTest, BytesHasRequestedLength) {
  Rng rng(17);
  EXPECT_EQ(rng.Bytes(0).size(), 0u);
  EXPECT_EQ(rng.Bytes(1000).size(), 1000u);
}

// Workload values come from Bytes, so its byte stream is part of every
// golden baseline: a faster Bytes must draw exactly the same characters.
TEST(RngTest, BytesStreamIsPinned) {
  Rng rng(7);
  std::string bytes = rng.Bytes(1000);
  EXPECT_EQ(bytes.substr(0, 16), "hmgcepyydttkhptb");
  EXPECT_EQ(crypto::DigestHex(crypto::Sha256Hash(bytes)),
            "706695d2bec8173b56951323f110b085bfcec1f68357914a2f5f796eff2db1d6");
}

TEST(ZipfianTest, ThetaZeroIsUniform) {
  Rng rng(19);
  ZipfianGenerator gen(1000, 0.0);
  std::vector<int> counts(1000, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; i++) {
    counts[gen.Next(&rng)]++;
  }
  // Every bucket near 100 draws; chi-square-ish loose bound.
  for (int c : counts) {
    EXPECT_GT(c, 40);
    EXPECT_LT(c, 200);
  }
}

TEST(ZipfianTest, InRange) {
  Rng rng(23);
  for (double theta : {0.0, 0.2, 0.5, 0.8, 0.99, 1.0}) {
    ZipfianGenerator gen(100, theta);
    for (int i = 0; i < 10000; i++) {
      EXPECT_LT(gen.Next(&rng), 100u) << "theta=" << theta;
    }
  }
}

TEST(ZipfianTest, SkewConcentratesOnHotKeys) {
  Rng rng(29);
  ZipfianGenerator gen(100000, 0.99);
  std::map<uint64_t, int> counts;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; i++) {
    counts[gen.Next(&rng)]++;
  }
  // Item 0 must dominate: roughly 1/zeta(n) of the mass (~8% at n=1e5).
  EXPECT_GT(counts[0], kDraws / 25);
  // The top item should be far more frequent than a random middle item.
  EXPECT_GT(counts[0], 100 * (counts.count(50000) ? counts[50000] : 1));
}

TEST(ZipfianTest, HigherThetaMoreSkew) {
  Rng rng1(31), rng2(31);
  ZipfianGenerator low(10000, 0.2), high(10000, 0.99);
  int low_zero = 0, high_zero = 0;
  for (int i = 0; i < 50000; i++) {
    if (low.Next(&rng1) == 0) low_zero++;
    if (high.Next(&rng2) == 0) high_zero++;
  }
  EXPECT_GT(high_zero, low_zero * 5);
}

}  // namespace
}  // namespace dicho
