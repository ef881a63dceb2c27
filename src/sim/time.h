// Virtual simulation time. All of Sperke runs on a single discrete-event
// clock; time is integral microseconds to keep event ordering exact.
#pragma once

#include <chrono>
#include <cstdint>

namespace sperke::sim {

using Duration = std::chrono::microseconds;
using Time = std::chrono::microseconds;  // time since simulation start

inline constexpr Time kTimeZero{0};

[[nodiscard]] constexpr Duration microseconds(std::int64_t us) { return Duration{us}; }
[[nodiscard]] constexpr Duration milliseconds(std::int64_t ms) { return Duration{ms * 1000}; }

// Fractional seconds -> Duration (rounded to the nearest microsecond).
[[nodiscard]] constexpr Duration seconds(double s) {
  return Duration{static_cast<std::int64_t>(s * 1e6 + (s >= 0 ? 0.5 : -0.5))};
}

// True when seconds(s) is defined and positive: s rounds to at least one
// microsecond and its count fits std::int64_t. NaN and infinities fail.
[[nodiscard]] constexpr bool valid_positive_seconds(double s) {
  return s * 1e6 >= 0.5 && s * 1e6 < 9.2e18;
}

[[nodiscard]] constexpr double to_seconds(Duration d) {
  return static_cast<double>(d.count()) / 1e6;
}

[[nodiscard]] constexpr double to_milliseconds(Duration d) {
  return static_cast<double>(d.count()) / 1e3;
}

}  // namespace sperke::sim
