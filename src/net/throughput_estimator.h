// Client-side throughput estimation feeding rate adaptation ("Network
// Condition Estimation" box of Figure 4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace sperke::net {

// Aggregate goodput across *concurrent* transfers: per-transfer samples
// under-read the link by the concurrency factor (each connection only sees
// its fair share), so this estimator divides the bytes of the last K
// completed transfers by the union of their active intervals.
//
// The estimate is cached lazily: `record` only marks it stale, and the
// first read after that recomputes the union. Readers outnumber samples in
// the multipath scheduler (one read per pick), samples outnumber reads in
// a single-path player (one read per plan), so neither side pays for the
// other.
class AggregateWindowEstimator {
 public:
  explicit AggregateWindowEstimator(std::size_t window = 12);

  void record(sim::Time start, sim::Time end, std::int64_t bytes);

  // 0 before any sample.
  [[nodiscard]] double estimate_kbps() const;

 private:
  // The estimate from scratch: total bytes over the union of the sampled
  // intervals. Needs at least one sample, which a stale cache implies.
  [[nodiscard]] double union_kbps() const;

  struct Sample {
    sim::Time start{sim::kTimeZero};
    sim::Time end{sim::kTimeZero};
    std::int64_t bytes = 0;
  };
  std::size_t window_;
  // The last window_ samples as a ring: once it is full, a new sample
  // overwrites the oldest, at next_, so recording allocates nothing.
  std::vector<Sample> samples_;
  std::size_t next_ = 0;
  // union_kbps() scratch: the sampled intervals in (start, end) order.
  mutable std::vector<std::pair<sim::Time, sim::Time>> intervals_;
  // union_kbps() as of the last read; valid unless stale_.
  mutable double cached_kbps_ = 0.0;
  mutable bool stale_ = false;
};

}  // namespace sperke::net
