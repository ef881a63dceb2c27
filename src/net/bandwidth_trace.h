// Piecewise-constant link bandwidth over virtual time, plus generators for
// the network conditions the paper's experiments need: fixed caps (the tc
// shaping of §3.4.1), LTE-like fluctuation, and bursty two-state loss of
// coverage.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace sperke::net {

class BandwidthTrace {
 public:
  // Segments: (start time, bandwidth kbps), sorted by start time; the first
  // segment must start at 0, bandwidths must be finite and non-negative
  // (std::invalid_argument otherwise). The last segment extends forever.
  explicit BandwidthTrace(std::vector<std::pair<sim::Time, double>> segments);

  [[nodiscard]] static BandwidthTrace constant(double kbps);

  // Steps given as (start seconds, kbps).
  [[nodiscard]] static BandwidthTrace steps(
      const std::vector<std::pair<double, double>>& steps_s_kbps);

  // LTE-like multiplicative random walk around `mean_kbps`, resampled every
  // `interval_s`, clamped to [min_kbps, max_kbps], covering `duration_s`.
  [[nodiscard]] static BandwidthTrace random_walk(double mean_kbps, double sigma,
                                                  double interval_s, double duration_s,
                                                  std::uint64_t seed,
                                                  double min_kbps = 100.0,
                                                  double max_kbps = 1e6);

  // Two-state (good/bad) Markov process with exponential holding times.
  [[nodiscard]] static BandwidthTrace markov_two_state(
      double good_kbps, double bad_kbps, double mean_good_s, double mean_bad_s,
      double duration_s, std::uint64_t seed);

  [[nodiscard]] double kbps_at(sim::Time t) const;

  // Earliest segment boundary strictly after `t`, if any.
  [[nodiscard]] std::optional<sim::Time> next_change_after(sim::Time t) const;

  [[nodiscard]] const std::vector<std::pair<sim::Time, double>>& segments() const {
    return segments_;
  }

 private:
  std::vector<std::pair<sim::Time, double>> segments_;
};

}  // namespace sperke::net
