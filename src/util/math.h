// Angle and interpolation helpers shared across geometry and prediction code.
#pragma once

#include <cmath>
#include <numbers>

namespace sperke {

inline constexpr double kPi = std::numbers::pi;

[[nodiscard]] constexpr double deg_to_rad(double deg) { return deg * kPi / 180.0; }
[[nodiscard]] constexpr double rad_to_deg(double rad) { return rad * 180.0 / kPi; }

// Wrap an angle in degrees to [-180, 180).
[[nodiscard]] inline double wrap_deg180(double deg) {
  double r = std::fmod(deg + 180.0, 360.0);
  if (r < 0.0) r += 360.0;
  return r - 180.0;
}

// Signed shortest angular difference a-b in degrees, result in [-180, 180).
[[nodiscard]] inline double angle_diff_deg(double a, double b) {
  return wrap_deg180(a - b);
}

[[nodiscard]] constexpr double lerp(double a, double b, double t) {
  return a + (b - a) * t;
}

}  // namespace sperke
