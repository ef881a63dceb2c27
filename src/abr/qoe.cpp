#include "abr/qoe.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace sperke::abr {
namespace {

// Score weights: utility is the per-chunk mean viewport utility in [0,1].
constexpr double kUtilityWeight = 1.0;
constexpr double kStallPenaltyPerS = 4.0;  // rebuffering (non-live)
constexpr double kSkipPenalty = 2.0;       // skipped chunk (live)
constexpr double kSwitchPenalty = 1.0;     // |utility delta| between chunks
constexpr double kBlankPenalty = 4.0;      // FoV fraction with nothing shown

// Adds a byte count to a session total, which stays in [0, INT64_MAX].
void add_bytes(std::int64_t& total, std::int64_t bytes) {
  if (bytes < 0) throw std::invalid_argument("QoeTracker: negative bytes");
  // Against the remaining headroom: total + bytes could overflow.
  if (bytes > std::numeric_limits<std::int64_t>::max() - total) {
    throw std::overflow_error("QoeTracker: byte total exceeds int64");
  }
  total += bytes;
}

}  // namespace

void QoeTracker::record_played_chunk(double viewport_utility, double blank_fraction) {
  // Written so that NaN fails.
  if (!(viewport_utility >= 0.0 && viewport_utility <= 1.0)) {
    throw std::invalid_argument("QoeTracker: utility out of [0,1]");
  }
  if (!(blank_fraction >= 0.0 && blank_fraction <= 1.0)) {
    throw std::invalid_argument("QoeTracker: blank fraction out of [0,1]");
  }
  ++acc_.chunks_played;
  utility_sum_ += viewport_utility;
  blank_sum_ += blank_fraction;
  if (has_prev_utility_) {
    acc_.switch_magnitude += std::abs(viewport_utility - prev_utility_);
  }
  prev_utility_ = viewport_utility;
  has_prev_utility_ = true;
}

void QoeTracker::record_stall(sim::Duration length) {
  if (length < sim::Duration{0}) throw std::invalid_argument("QoeTracker: negative stall");
  acc_.stall_seconds += sim::to_seconds(length);
  ++acc_.stall_events;
}

void QoeTracker::record_skip(int chunks) {
  if (chunks < 0) throw std::invalid_argument("QoeTracker: negative skip");
  acc_.skipped_chunks += chunks;
}

void QoeTracker::record_downloaded(std::int64_t bytes) {
  add_bytes(acc_.bytes_downloaded, bytes);
}

void QoeTracker::record_wasted(std::int64_t bytes) {
  add_bytes(acc_.bytes_wasted, bytes);
}

QoeSummary QoeTracker::summary() const {
  QoeSummary out = acc_;
  if (out.chunks_played > 0) {
    out.mean_viewport_utility = utility_sum_ / out.chunks_played;
    out.blank_fraction_mean = blank_sum_ / out.chunks_played;
  }
  out.score = kUtilityWeight * utility_sum_ -
              kStallPenaltyPerS * out.stall_seconds -
              kSkipPenalty * out.skipped_chunks -
              kSwitchPenalty * out.switch_magnitude -
              kBlankPenalty * blank_sum_;
  return out;
}

}  // namespace sperke::abr
