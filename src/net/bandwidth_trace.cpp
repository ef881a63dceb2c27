#include "net/bandwidth_trace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace sperke::net {

BandwidthTrace::BandwidthTrace(std::vector<std::pair<sim::Time, double>> segments)
    : segments_(std::move(segments)) {
  if (segments_.empty()) throw std::invalid_argument("BandwidthTrace: empty");
  if (segments_.front().first != sim::kTimeZero) {
    throw std::invalid_argument("BandwidthTrace: first segment must start at 0");
  }
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const double kbps = segments_[i].second;
    if (!(kbps >= 0.0 && std::isfinite(kbps))) {
      throw std::invalid_argument("BandwidthTrace: bandwidth must be finite and >= 0");
    }
    if (i > 0 && segments_[i].first <= segments_[i - 1].first) {
      throw std::invalid_argument("BandwidthTrace: segments not strictly increasing");
    }
  }
}

BandwidthTrace BandwidthTrace::constant(double kbps) {
  return BandwidthTrace({{sim::kTimeZero, kbps}});
}

BandwidthTrace BandwidthTrace::steps(
    const std::vector<std::pair<double, double>>& steps_s_kbps) {
  std::vector<std::pair<sim::Time, double>> segments;
  segments.reserve(steps_s_kbps.size());
  for (const auto& [s, kbps] : steps_s_kbps) {
    segments.emplace_back(sim::seconds(s), kbps);
  }
  return BandwidthTrace(std::move(segments));
}

BandwidthTrace BandwidthTrace::random_walk(double mean_kbps, double sigma,
                                           double interval_s, double duration_s,
                                           std::uint64_t seed, double min_kbps,
                                           double max_kbps) {
  if (interval_s <= 0.0 || duration_s <= 0.0) {
    throw std::invalid_argument("random_walk: non-positive interval/duration");
  }
  Rng rng(seed);
  std::vector<std::pair<sim::Time, double>> segments;
  double level = mean_kbps;
  for (double t = 0.0; t < duration_s; t += interval_s) {
    segments.emplace_back(sim::seconds(t), std::clamp(level, min_kbps, max_kbps));
    // Multiplicative step with mild mean reversion toward mean_kbps.
    const double step = std::exp(rng.normal(0.0, sigma));
    level = level * step;
    level += 0.1 * (mean_kbps - level);
  }
  return BandwidthTrace(std::move(segments));
}

BandwidthTrace BandwidthTrace::markov_two_state(double good_kbps, double bad_kbps,
                                                double mean_good_s, double mean_bad_s,
                                                double duration_s, std::uint64_t seed) {
  if (mean_good_s <= 0.0 || mean_bad_s <= 0.0 || duration_s <= 0.0) {
    throw std::invalid_argument("markov_two_state: non-positive durations");
  }
  Rng rng(seed);
  std::vector<std::pair<sim::Time, double>> segments;
  bool good = true;
  double t = 0.0;
  while (t < duration_s) {
    segments.emplace_back(sim::seconds(t), good ? good_kbps : bad_kbps);
    t += rng.exponential(good ? mean_good_s : mean_bad_s);
    good = !good;
  }
  return BandwidthTrace(std::move(segments));
}

double BandwidthTrace::kbps_at(sim::Time t) const {
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](sim::Time value, const auto& seg) { return value < seg.first; });
  return std::prev(it)->second;  // first segment starts at 0, so it != begin()
}

std::optional<sim::Time> BandwidthTrace::next_change_after(sim::Time t) const {
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](sim::Time value, const auto& seg) { return value < seg.first; });
  if (it == segments_.end()) return std::nullopt;
  return it->first;
}

}  // namespace sperke::net
