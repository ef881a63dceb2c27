// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component in Sperke takes an explicit seed (or an Rng&),
// never ambient global state, so that benches and property tests replay
// identically across runs and platforms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

namespace sperke {

// A seeded pseudo-random source wrapping std::mt19937_64 with convenience
// distributions. Copyable: copying forks the stream state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  // Gaussian with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  // Exponential with the given mean (NOT rate).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  // Log-normal such that the *resulting* distribution has roughly the given
  // median and spread sigma (sigma is the stddev of the underlying normal).
  double lognormal(double median, double sigma) {
    return std::lognormal_distribution<double>(std::log(median), sigma)(engine_);
  }

  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  template <typename T>
  const T& pick(const std::vector<T>& items) {
    if (items.empty()) throw std::invalid_argument("pick: empty vector");
    return items[static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(items.size()) - 1))];
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace sperke
