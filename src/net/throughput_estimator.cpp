#include "net/throughput_estimator.h"

#include <algorithm>
#include <utility>
#include <vector>
#include <stdexcept>

namespace sperke::net {
AggregateWindowEstimator::AggregateWindowEstimator(std::size_t window)
    : window_(window) {
  if (window == 0) throw std::invalid_argument("AggregateWindowEstimator: zero window");
}

void AggregateWindowEstimator::record(sim::Time start, sim::Time end,
                                      std::int64_t bytes) {
  if (end < start || bytes <= 0) return;
  samples_.push_back({start, end, bytes});
  while (samples_.size() > window_) samples_.pop_front();
  stale_ = true;
}

double AggregateWindowEstimator::estimate_kbps() const {
  if (stale_) {
    cached_kbps_ = union_kbps();
    stale_ = false;
  }
  return cached_kbps_;
}

double AggregateWindowEstimator::union_kbps() const {
  // Union of the active intervals (samples arrive ordered by end time, but
  // their starts may interleave arbitrarily).
  std::vector<std::pair<sim::Time, sim::Time>> intervals;
  intervals.reserve(samples_.size());
  std::int64_t total_bytes = 0;
  for (const Sample& s : samples_) {
    intervals.emplace_back(s.start, s.end);
    total_bytes += s.bytes;
  }
  std::sort(intervals.begin(), intervals.end());
  sim::Duration covered{0};
  sim::Time cursor = intervals.front().first;
  for (const auto& [start, end] : intervals) {
    const sim::Time from = std::max(cursor, start);
    if (end > from) {
      covered += end - from;
      cursor = end;
    }
  }
  const double secs = sim::to_seconds(covered);
  if (secs <= 0.0) return 0.0;
  return static_cast<double>(total_bytes) * 8.0 / secs / 1000.0;
}

}  // namespace sperke::net
