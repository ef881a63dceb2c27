#include "live/upload_vra.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sperke::live {
namespace {

// Both checks fail for NaN; positive() also rejects infinity.
bool positive(double v) { return v > 0.0 && std::isfinite(v); }
bool valid_safety(double v) { return v > 0.0 && v <= 1.0; }

}  // namespace

FixedQualityPolicy::FixedQualityPolicy(double target_kbps)
    : target_kbps_(target_kbps) {
  if (!positive(target_kbps)) throw std::invalid_argument("FixedQuality: bad target");
}

UploadDecision FixedQualityPolicy::decide(double) const {
  return {360.0, target_kbps_};
}

QualityAdaptivePolicy::QualityAdaptivePolicy(double target_kbps, double min_kbps,
                                             double safety)
    : target_kbps_(target_kbps), min_kbps_(min_kbps), safety_(safety) {
  if (!positive(target_kbps) || !positive(min_kbps) || min_kbps > target_kbps) {
    throw std::invalid_argument("QualityAdaptive: bad bitrates");
  }
  if (!valid_safety(safety)) throw std::invalid_argument("QualityAdaptive: bad safety");
}

UploadDecision QualityAdaptivePolicy::decide(double capacity_kbps) const {
  const double kbps =
      std::clamp(capacity_kbps * safety_, min_kbps_, target_kbps_);
  return {360.0, kbps};
}

SpatialFallbackPolicy::SpatialFallbackPolicy(double target_kbps,
                                             double min_horizon_deg, double safety)
    : target_kbps_(target_kbps),
      min_horizon_deg_(min_horizon_deg),
      safety_(safety) {
  if (!positive(target_kbps)) throw std::invalid_argument("SpatialFallback: bad target");
  if (!(min_horizon_deg > 0.0 && min_horizon_deg <= 360.0)) {
    throw std::invalid_argument("SpatialFallback: bad min horizon");
  }
  if (!valid_safety(safety)) throw std::invalid_argument("SpatialFallback: bad safety");
}

UploadDecision SpatialFallbackPolicy::decide(double capacity_kbps) const {
  // Hold per-degree density at the target and shrink the horizon to fit;
  // below the minimum horizon, degrade quality instead (last resort).
  const double budget = capacity_kbps * safety_;
  double horizon = std::clamp(360.0 * budget / target_kbps_, min_horizon_deg_, 360.0);
  double kbps = target_kbps_ * horizon / 360.0;
  if (kbps > budget) kbps = std::max(budget, 1.0);  // pinned at min horizon
  return {horizon, std::min(kbps, target_kbps_)};
}

double horizon_coverage_probability(double horizon_deg, double interest_sigma_deg) {
  if (horizon_deg <= 0.0) return 0.0;
  if (horizon_deg >= 360.0) return 1.0;
  if (interest_sigma_deg <= 0.0) return 1.0;  // everyone stares at the center
  // Gaze yaw ~ N(0, sigma); coverage = P(|yaw| <= horizon/2).
  const double z = horizon_deg / 2.0 / (interest_sigma_deg * std::sqrt(2.0));
  return std::erf(z);
}

double density_utility(double kbps_per_deg, double target_kbps_per_deg) {
  if (target_kbps_per_deg <= 0.0) throw std::invalid_argument("density_utility: bad target");
  const double floor_density = target_kbps_per_deg / 16.0;
  if (kbps_per_deg <= floor_density) return 0.0;
  const double u = std::log(kbps_per_deg / floor_density) /
                   std::log(target_kbps_per_deg / floor_density);
  return std::clamp(u, 0.0, 1.0);
}

double expected_viewer_utility(const UploadDecision& decision, double target_kbps,
                               double interest_sigma_deg) {
  const double coverage =
      horizon_coverage_probability(decision.horizon_deg, interest_sigma_deg);
  const double density = decision.upload_kbps / std::max(decision.horizon_deg, 1.0);
  const double quality = density_utility(density, target_kbps / 360.0);
  return coverage * quality;
}

}  // namespace sperke::live
