// RNG stream tests: determinism, independence, and distribution sanity
// (moment checks at large sample sizes with loose tolerances).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/rng.hpp"

namespace core = lsds::core;

namespace {

template <typename F>
std::pair<double, double> sample_mean_var(F&& draw, int n) {
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = draw();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  return {mean, sum2 / n - mean * mean};
}

}  // namespace

TEST(Rng, DeterministicForSeed) {
  core::RngStream a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, NamedStreamsDiffer) {
  core::RngStream a(1, "alpha"), b(1, "beta");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRange) {
  core::RngStream r(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMoments) {
  core::RngStream r(6);
  auto [mean, var] = sample_mean_var([&] { return r.uniform(); }, 200000);
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformIntInclusiveBounds) {
  core::RngStream r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(3, 8);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 8);
    saw_lo |= (v == 3);
    saw_hi |= (v == 8);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  core::RngStream r(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.uniform_int(5, 5), 5);
}

TEST(Rng, EmptyRangesThrowInEveryBuild) {
  // uniform_int(0, -1) used to wrap to the full 64-bit range, and zipf(0)
  // indexed past its empty table (a 0-file OptorSim workload).
  core::RngStream r(5);
  EXPECT_THROW(r.uniform_int(0, -1), std::invalid_argument);
  EXPECT_THROW(r.uniform_int(7, 6), std::invalid_argument);
  EXPECT_THROW(r.zipf(0, 1.0), std::invalid_argument);
  EXPECT_THROW(r.zipf(0, 0.0), std::invalid_argument);
  EXPECT_EQ(r.zipf(1, 1.0), 0u);  // still usable afterwards
  EXPECT_EQ(r.uniform_int(-1, -1), -1);
}

TEST(Rng, ExponentialMoments) {
  core::RngStream r(9);
  auto [mean, var] = sample_mean_var([&] { return r.exponential(4.0); }, 200000);
  EXPECT_NEAR(mean, 4.0, 0.1);
  EXPECT_NEAR(var, 16.0, 0.8);
}

TEST(Rng, NormalMoments) {
  core::RngStream r(10);
  auto [mean, var] = sample_mean_var([&] { return r.normal(10.0, 3.0); }, 200000);
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.2);
}

TEST(Rng, LognormalMoments) {
  core::RngStream r(11);
  const double mu = 1.0, sigma = 0.5;
  auto [mean, var] = sample_mean_var([&] { return r.lognormal(mu, sigma); }, 400000);
  const double expect_mean = std::exp(mu + sigma * sigma / 2);
  EXPECT_NEAR(mean, expect_mean, expect_mean * 0.02);
  (void)var;
}

TEST(Rng, WeibullMean) {
  core::RngStream r(12);
  // shape k=2, scale 1: mean = Gamma(1.5) = sqrt(pi)/2.
  auto [mean, var] = sample_mean_var([&] { return r.weibull(2.0, 1.0); }, 200000);
  EXPECT_NEAR(mean, std::sqrt(std::acos(-1.0)) / 2.0, 0.01);
  (void)var;
}

TEST(Rng, ParetoSupportAndMean) {
  core::RngStream r(13);
  // x_min=1, alpha=3: mean = alpha/(alpha-1) = 1.5.
  double sum = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    const double x = r.pareto(1.0, 3.0);
    ASSERT_GE(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 1.5, 0.02);
}

TEST(Rng, PoissonSmallMean) {
  core::RngStream r(14);
  auto [mean, var] = sample_mean_var([&] { return static_cast<double>(r.poisson(3.5)); }, 200000);
  EXPECT_NEAR(mean, 3.5, 0.05);
  EXPECT_NEAR(var, 3.5, 0.15);
}

TEST(Rng, PoissonLargeMeanUsesApproximation) {
  core::RngStream r(15);
  auto [mean, var] = sample_mean_var([&] { return static_cast<double>(r.poisson(200.0)); }, 50000);
  EXPECT_NEAR(mean, 200.0, 1.0);
  EXPECT_NEAR(var, 200.0, 10.0);
}

TEST(Rng, BernoulliProbability) {
  core::RngStream r(16);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ZipfRankZeroMostPopular) {
  core::RngStream r(17);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[r.zipf(10, 1.0)];
  // Monotone non-increasing popularity (allow small noise between neighbors).
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[5]);
  EXPECT_GT(counts[5], 0);
  // Zipf(s=1): P(0)/P(1) ~ 2.
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[1], 2.0, 0.2);
}

TEST(Rng, ZipfCacheRebuildOnParamChange) {
  core::RngStream r(18);
  for (int i = 0; i < 100; ++i) EXPECT_LT(r.zipf(5, 1.0), 5u);
  for (int i = 0; i < 100; ++i) EXPECT_LT(r.zipf(50, 0.8), 50u);
  for (int i = 0; i < 100; ++i) EXPECT_LT(r.zipf(5, 1.0), 5u);
}

TEST(Rng, WeightedChoiceProportions) {
  core::RngStream r(19);
  std::vector<double> w{1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.weighted_choice(w)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.015);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.015);
}

TEST(Rng, SplitMix64KnownValues) {
  // Reference values from the SplitMix64 reference implementation.
  std::uint64_t s = 0;
  const std::uint64_t v1 = core::splitmix64(s);
  const std::uint64_t v2 = core::splitmix64(s);
  EXPECT_NE(v1, v2);
  std::uint64_t s2 = 0;
  EXPECT_EQ(core::splitmix64(s2), v1);
}

TEST(Rng, Fnv1aStability) {
  EXPECT_EQ(core::fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(core::fnv1a("a"), core::fnv1a("a"));
  EXPECT_NE(core::fnv1a("a"), core::fnv1a("b"));
}
