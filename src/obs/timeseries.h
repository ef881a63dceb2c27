// Fixed-interval time series over a MetricsRegistry (DESIGN.md §12).
//
// A TimeSeriesStore snapshots a registry at a fixed sample period and keeps
// one append-only series per instrument:
//
//   counter    -> per-interval delta (monotone source, so deltas are >= 0)
//   gauge      -> the sample at the interval's end
//   histogram  -> per-interval bucket deltas plus count/sum deltas, from
//                 which interval-scoped quantile bounds are derived
//
// Determinism rules (the reason this type exists instead of "log the
// registry every second"):
//   * sample() is driven by a sim::PeriodicTask, so interval boundaries
//     are exact virtual-time multiples of the period — never wall clock.
//   * Instruments that first appear mid-run are zero-padded back to
//     interval 0, so every series always has exactly `intervals()` points.
//   * merge_from() folds another shard's store name-matched (deltas and
//     samples add; absent series are appended in the other store's order).
//     Merging shard stores in shard-id order therefore yields the same
//     bytes at any thread count, mirroring MetricsRegistry::merge_from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "sim/time.h"

namespace sperke::obs {

// One instrument's sampled history. Exactly one of the per-kind payloads
// is populated; all per-interval vectors have size intervals().
struct TimeSeries {
  std::string name;
  MetricKind kind = MetricKind::kCounter;

  std::vector<std::int64_t> counter_deltas;  // kCounter
  std::vector<double> gauge_samples;         // kGauge

  // kHistogram: bucket deltas flattened row-major — interval i, bucket b
  // lives at i * (upper_bounds.size() + 1) + b; the final column is the
  // +inf overflow bucket.
  std::vector<double> upper_bounds;
  std::vector<std::int64_t> bucket_deltas;
  std::vector<std::int64_t> count_deltas;
  std::vector<double> sum_deltas;
};

// Quantile upper bound over one interval of a histogram series: the bucket
// ceiling under which a `q` fraction of that interval's samples fall.
// Returns 0 for an empty interval and +infinity when the quantile lands in
// the overflow bucket (the sample is beyond the histogram's range, which
// must read as "worse than any threshold" to SLO math). A q outside [0,1],
// NaN included, fails a SPERKE_CHECK.
[[nodiscard]] double series_quantile_bound(const TimeSeries& series,
                                           std::size_t interval, double q);

// As above but over the trailing window [first, last] (inclusive), merging
// the windows' bucket deltas first.
[[nodiscard]] double series_window_quantile_bound(const TimeSeries& series,
                                                  std::size_t first,
                                                  std::size_t last, double q);

class TimeSeriesStore {
 public:
  TimeSeriesStore() = default;  // inactive: period 0, no series
  explicit TimeSeriesStore(sim::Duration period);

  [[nodiscard]] sim::Duration period() const { return period_; }
  [[nodiscard]] std::size_t intervals() const { return intervals_; }
  [[nodiscard]] const std::vector<TimeSeries>& series() const { return series_; }
  [[nodiscard]] const TimeSeries* find(std::string_view name) const;

  // End time of interval `i` (intervals are (i*period, (i+1)*period]).
  [[nodiscard]] sim::Time interval_end(std::size_t i) const {
    return period_ * static_cast<std::int64_t>(i + 1);
  }

  // Close one interval: walk `registry` in registration order, record each
  // instrument's delta (counter/histogram) or sample (gauge) since the
  // previous call, zero-padding instruments seen for the first time. Each
  // registry entry is matched to its series by name once, when first seen;
  // later samples of the same registry reuse that binding.
  void sample(const MetricsRegistry& registry);

  // Fold another store in (shard merge, shard-id order). An inactive store
  // adopts `other` wholesale. Throws std::invalid_argument when periods,
  // interval counts, kinds, or histogram bounds disagree — silently
  // mis-merging would corrupt every downstream SLO verdict.
  void merge_from(const TimeSeriesStore& other);

 private:
  struct Cumulative {  // last cumulative value seen, for delta computation
    std::int64_t counter = 0;
    std::vector<std::int64_t> buckets;
    std::int64_t count = 0;
    double sum = 0.0;
  };

  // Index of the series named `name`, appended zero-padded on first
  // appearance; throws when the kind or histogram bounds disagree.
  std::size_t resolve(std::string_view name, MetricKind kind,
                      const std::vector<double>& upper_bounds);

  sim::Duration period_{0};
  std::size_t intervals_ = 0;
  std::vector<TimeSeries> series_;
  std::vector<Cumulative> last_;  // parallel to series_
  std::map<std::string, std::size_t, std::less<>> index_;

  // Series index per entry position of bound_registry_. Registry entries
  // are append-only, so only positions past bound_.size() go through
  // resolve(); sampling another registry, or merging, rebinds from scratch.
  // The binding is keyed by the registry's address: a registry built where
  // the last sampled one was destroyed would inherit its binding, so do not
  // sample a new registry through a store whose last registry is gone (the
  // check preset asserts that each bound series carries its entry's name).
  const MetricsRegistry* bound_registry_ = nullptr;
  std::vector<std::size_t> bound_;
};

}  // namespace sperke::obs
