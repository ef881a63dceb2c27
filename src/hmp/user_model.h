// Per-user long-term behaviour (§3.2's second data dimension): "a user's
// head movement speed can be learned to bound the latency requirement for
// fetching a distant tile (e.g., elderly people tend to move their heads
// slower than teenagers)".
//
// A UserModel accumulates a user's head traces across many videos and
// produces the learned speed bound (plus a pose habit) that ViewingContext
// feeds into fusion pruning.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hmp/fusion.h"
#include "hmp/head_trace.h"

namespace sperke::hmp {

class UserModel {
 public:
  // `speed_percentile` picks how aggressive the learned bound is: the
  // p-th percentile of observed instantaneous speeds, inflated by
  // `safety_margin` (bounds must rarely be exceeded or pruning hurts).
  explicit UserModel(double speed_percentile = 99.0, double safety_margin = 1.25);

  // Fold in one watched video's head trace.
  void observe_trace(const HeadTrace& trace);

  [[nodiscard]] int traces_observed() const { return traces_; }

  // Learned speed bound (deg/s); empty until at least one trace is seen.
  [[nodiscard]] std::optional<double> speed_bound_dps() const;

  // ViewingContext carrying the learned bound, ready for FusionPredictor.
  [[nodiscard]] ViewingContext context() const;

 private:
  double speed_percentile_;
  double safety_margin_;
  int traces_ = 0;
  std::vector<double> speeds_dps_;  // instantaneous speeds across all traces
};

}  // namespace sperke::hmp
