#include "core/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace lsds::core {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

RngStream::RngStream(std::uint64_t master_seed, std::string_view name)
    : RngStream(master_seed ^ rotl(fnv1a(name), 17)) {}

RngStream::RngStream(std::uint64_t raw_seed) {
  std::uint64_t sm = raw_seed;
  for (auto& w : s_) w = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
}

std::uint64_t RngStream::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double RngStream::uniform() {
  // 53 random bits -> [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double RngStream::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t RngStream::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("RngStream::uniform_int: empty range (lo > hi)");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return lo + static_cast<std::int64_t>(v % span);
}

bool RngStream::bernoulli(double p) { return uniform() < p; }

double RngStream::exponential(double mean) {
  // Inverse CDF; 1-u avoids log(0).
  return -mean * std::log(1.0 - uniform());
}

double RngStream::normal(double mean, double stddev) {
  if (has_spare_) {
    has_spare_ = false;
    return mean + stddev * spare_;
  }
  // Box–Muller.
  const double u1 = 1.0 - uniform();  // (0,1]
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  spare_ = r * std::sin(theta);
  has_spare_ = true;
  return mean + stddev * r * std::cos(theta);
}

double RngStream::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double RngStream::weibull(double shape, double scale) {
  return scale * std::pow(-std::log(1.0 - uniform()), 1.0 / shape);
}

double RngStream::pareto(double x_min, double alpha) {
  return x_min / std::pow(1.0 - uniform(), 1.0 / alpha);
}

std::uint64_t RngStream::poisson(double mean) {
  assert(mean >= 0);
  if (mean < 30.0) {
    // Knuth's product method.
    const double limit = std::exp(-mean);
    double prod = uniform();
    std::uint64_t n = 0;
    while (prod > limit) {
      prod *= uniform();
      ++n;
    }
    return n;
  }
  // Normal approximation with continuity correction — adequate for workload
  // generation at large means.
  const double v = normal(mean, std::sqrt(mean));
  return v < 0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
}

std::size_t RngStream::zipf(std::size_t n, double s) {
  if (n == 0) throw std::invalid_argument("RngStream::zipf: n must be positive");
  if (n != zipf_n_ || s != zipf_s_) {
    zipf_cdf_.resize(n);
    double sum = 0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      zipf_cdf_[k] = sum;
    }
    for (double& v : zipf_cdf_) v /= sum;
    zipf_n_ = n;
    zipf_s_ = s;
  }
  const double u = uniform();
  // Binary search for the first cdf >= u.
  std::size_t lo = 0, hi = n - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (zipf_cdf_[mid] < u)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

std::size_t RngStream::weighted_choice(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  double u = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0) return i;
  }
  return weights.empty() ? 0 : weights.size() - 1;
}

}  // namespace lsds::core
