#include "net/throughput_estimator.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace sperke::net {
AggregateWindowEstimator::AggregateWindowEstimator(std::size_t window)
    : window_(window) {
  if (window == 0) throw std::invalid_argument("AggregateWindowEstimator: zero window");
}

void AggregateWindowEstimator::record(sim::Time start, sim::Time end,
                                      std::int64_t bytes) {
  if (end < start || bytes <= 0) return;
  if (samples_.size() < window_) {
    samples_.push_back({start, end, bytes});
  } else {
    samples_[next_] = {start, end, bytes};
    next_ = (next_ + 1) % window_;
  }
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
  // their starts may interleave arbitrarily). An insertion sort on
  // (start, end) into the scratch: at most window_ entries, mostly in order.
  intervals_.clear();
  std::int64_t total_bytes = 0;
  // Oldest first: next_ stays 0 until the ring is full.
  for (std::size_t k = 0; k < samples_.size(); ++k) {
    const Sample& s = samples_[(next_ + k) % samples_.size()];
    const std::pair<sim::Time, sim::Time> interval{s.start, s.end};
    intervals_.push_back(interval);
    for (std::size_t i = intervals_.size() - 1;
         i > 0 && interval < intervals_[i - 1]; --i) {
      std::swap(intervals_[i], intervals_[i - 1]);
    }
    total_bytes += s.bytes;
  }
  sim::Duration covered{0};
  sim::Time cursor = intervals_.front().first;
  for (const auto& [start, end] : intervals_) {
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
