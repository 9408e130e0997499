// Deterministic random number streams.
//
// The taxonomy's "behavior" axis distinguishes deterministic from
// probabilistic simulation; LSDS-Sim is both: every stochastic model draws
// from a *named* stream derived from the engine's master seed, so
//
//   * the same seed reproduces the same event trace bit-for-bit
//     (tested in tests/core_engine_test.cpp), and
//   * adding a new model (new stream name) does not perturb the draws of
//     existing models — the property that makes A/B experiments meaningful.
//
// Engine: xoshiro256** (Blackman & Vigna) seeded via SplitMix64 of
// (master_seed, fnv1a(stream_name)).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lsds::core {

/// SplitMix64 step — used for seeding and stream derivation.
std::uint64_t splitmix64(std::uint64_t& state);

/// FNV-1a hash for stream names.
std::uint64_t fnv1a(std::string_view s);

/// xoshiro256** PRNG with distribution helpers. Copyable and cheap.
class RngStream {
 public:
  /// Derive a stream from a master seed and a stream name.
  RngStream(std::uint64_t master_seed, std::string_view name);

  /// Direct construction from a raw seed (tests, sub-streams).
  explicit RngStream(std::uint64_t raw_seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive). Throws std::invalid_argument
  /// when lo > hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// True with probability p.
  bool bernoulli(double p);

  /// Exponential with given mean (= 1/rate).
  double exponential(double mean);
  /// Normal via Box–Muller (exactly two uniforms per pair; deterministic).
  double normal(double mean, double stddev);
  /// Log-normal parameterized by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma);
  /// Weibull with shape k and scale lambda.
  double weibull(double shape, double scale);
  /// Pareto (Lomax-free, classic) with minimum x_m and tail index alpha.
  double pareto(double x_min, double alpha);
  /// Poisson-distributed count with given mean (Knuth for small, PTRS-free
  /// normal approximation for large means).
  std::uint64_t poisson(double mean);

  /// Zipf-distributed rank in [0, n) with exponent s, via inverted CDF on a
  /// cached table (rebuilt when (n, s) change). Throws std::invalid_argument
  /// when n == 0.
  std::size_t zipf(std::size_t n, double s);

  /// Pick an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted_choice(const std::vector<double>& weights);

 private:
  std::uint64_t s_[4];

  // Box–Muller spare.
  bool has_spare_ = false;
  double spare_ = 0;

  // Zipf CDF cache.
  std::size_t zipf_n_ = 0;
  double zipf_s_ = -1;
  std::vector<double> zipf_cdf_;
};

}  // namespace lsds::core
