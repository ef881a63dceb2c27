#include "net/fault.h"

#include <cmath>
#include <stdexcept>

namespace sperke::net {
namespace {

// True when an instant of `s` seconds is finite, non-negative and fits the
// microsecond clock (sim::seconds casts s * 1e6 to std::int64_t). NaN fails.
bool valid_instant_s(double s) { return s >= 0.0 && s * 1e6 < 9.2e18; }

void validate_windows(const std::vector<FaultWindow>& windows) {
  // Every test is written so that NaN fails it.
  for (const FaultWindow& w : windows) {
    if (!valid_instant_s(w.start_s)) {
      throw std::invalid_argument(
          "FaultPlan: window start negative, non-finite or past the clock range");
    }
    if (!(w.duration_s > 0.0)) {
      throw std::invalid_argument("FaultPlan: non-positive window duration");
    }
    if (!valid_instant_s(w.end_s())) {
      throw std::invalid_argument("FaultPlan: window end non-finite or past the clock range");
    }
  }
}

}  // namespace

void validate(const FaultPlan& plan) {
  validate_windows(plan.outages);
  validate_windows(plan.capacity_collapses);
  validate_windows(plan.rtt_spikes);
  for (const FaultWindow& w : plan.capacity_collapses) {
    if (!(w.factor > 0.0 && w.factor <= 1.0)) {
      throw std::invalid_argument("FaultPlan: capacity collapse factor outside (0,1]");
    }
  }
  for (const FaultWindow& w : plan.rtt_spikes) {
    if (!(w.factor >= 1.0 && std::isfinite(w.factor))) {
      throw std::invalid_argument("FaultPlan: RTT spike factor < 1 or non-finite");
    }
  }
  if (!(plan.transfer_failure_prob >= 0.0 && plan.transfer_failure_prob < 1.0)) {
    throw std::invalid_argument("FaultPlan: transfer_failure_prob outside [0,1)");
  }
}

}  // namespace sperke::net
