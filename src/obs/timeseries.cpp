#include "obs/timeseries.h"

#include <limits>
#include <stdexcept>

#include "util/check.h"

namespace sperke::obs {

double series_quantile_bound(const TimeSeries& series, std::size_t interval,
                             double q) {
  return series_window_quantile_bound(series, interval, interval, q);
}

double series_window_quantile_bound(const TimeSeries& series, std::size_t first,
                                    std::size_t last, double q) {
  if (series.kind != MetricKind::kHistogram) {
    throw std::invalid_argument("series_window_quantile_bound: '" +
                                series.name + "' is not a histogram series");
  }
  SPERKE_CHECK(first <= last, "quantile window inverted: [", first, ", ", last,
               "]");
  const std::size_t columns = series.upper_bounds.size() + 1;
  SPERKE_CHECK((last + 1) * columns <= series.bucket_deltas.size(),
               "quantile window past the end of series '", series.name, "'");
  std::vector<std::int64_t> window(columns, 0);
  for (std::size_t i = first; i <= last; ++i) {
    for (std::size_t b = 0; b < columns; ++b) {
      window[b] += series.bucket_deltas[i * columns + b];
    }
  }
  // An interval keeps no max, so the overflow bucket reads as +infinity.
  return bucket_quantile_bound(series.upper_bounds, window, q,
                               std::numeric_limits<double>::infinity());
}

TimeSeriesStore::TimeSeriesStore(sim::Duration period) : period_(period) {
  if (period <= sim::Duration{0}) {
    throw std::invalid_argument("TimeSeriesStore: period must be positive");
  }
}

const TimeSeries* TimeSeriesStore::find(std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &series_[it->second];
}

std::size_t TimeSeriesStore::resolve(std::string_view name, MetricKind kind,
                                     const std::vector<double>& upper_bounds) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    const TimeSeries& mine = series_[it->second];
    if (mine.kind != kind) {
      throw std::invalid_argument("TimeSeriesStore: '" + mine.name +
                                  "' already tracked as " +
                                  std::string(metric_kind_name(mine.kind)));
    }
    if (mine.kind == MetricKind::kHistogram && mine.upper_bounds != upper_bounds) {
      throw std::invalid_argument("TimeSeriesStore: '" + mine.name +
                                  "' bucket layout mismatch");
    }
    return it->second;
  }
  // First appearance: zero-pad history back to interval 0 so every series
  // always spans the full run.
  TimeSeries fresh;
  fresh.name = name;
  fresh.kind = kind;
  fresh.upper_bounds = upper_bounds;
  switch (fresh.kind) {
    case MetricKind::kCounter:
      fresh.counter_deltas.assign(intervals_, 0);
      break;
    case MetricKind::kGauge:
      fresh.gauge_samples.assign(intervals_, 0.0);
      break;
    case MetricKind::kHistogram:
      fresh.bucket_deltas.assign(intervals_ * (fresh.upper_bounds.size() + 1),
                                 0);
      fresh.count_deltas.assign(intervals_, 0);
      fresh.sum_deltas.assign(intervals_, 0.0);
      break;
  }
  const std::size_t index = series_.size();
  index_.emplace(fresh.name, index);
  series_.push_back(std::move(fresh));
  last_.emplace_back();
  return index;
}

void TimeSeriesStore::sample(const MetricsRegistry& registry) {
  SPERKE_CHECK(period_ > sim::Duration{0},
               "TimeSeriesStore: sample() on an inactive store");
  const std::vector<MetricsRegistry::Entry>& entries = registry.entries();
  if (&registry != bound_registry_ || entries.size() < bound_.size()) {
    bound_registry_ = &registry;
    bound_.clear();
  }
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const MetricsRegistry::Entry& entry = entries[e];
    if (e == bound_.size()) {
      bound_.push_back(resolve(entry.name, entry.kind,
                               entry.kind == MetricKind::kHistogram
                                   ? entry.histogram->upper_bounds()
                                   : std::vector<double>{}));
    }
    const std::size_t index = bound_[e];
    TimeSeries& mine = series_[index];
    SPERKE_DCHECK(mine.name == entry.name, "registry entry '", entry.name,
                  "' bound to series '", mine.name, "'");
    Cumulative& prev = last_[index];
    switch (entry.kind) {
      case MetricKind::kCounter: {
        const std::int64_t now = entry.counter->value();
        SPERKE_DCHECK(now >= prev.counter, "counter '", entry.name,
                      "' went backwards");
        mine.counter_deltas.push_back(now - prev.counter);
        prev.counter = now;
        break;
      }
      case MetricKind::kGauge:
        mine.gauge_samples.push_back(entry.gauge->value());
        break;
      case MetricKind::kHistogram: {
        const Histogram& hist = *entry.histogram;
        const std::vector<std::int64_t>& counts = hist.bucket_counts();
        if (prev.buckets.empty()) prev.buckets.assign(counts.size(), 0);
        // One resize per interval, then a plain loop: cheaper than a
        // capacity check per bucket.
        const std::size_t at = mine.bucket_deltas.size();
        mine.bucket_deltas.resize(at + counts.size());
        std::int64_t* deltas = mine.bucket_deltas.data() + at;
        for (std::size_t b = 0; b < counts.size(); ++b) {
          deltas[b] = counts[b] - prev.buckets[b];
          prev.buckets[b] = counts[b];
        }
        mine.count_deltas.push_back(hist.count() - prev.count);
        mine.sum_deltas.push_back(hist.sum() - prev.sum);
        prev.count = hist.count();
        prev.sum = hist.sum();
        break;
      }
    }
  }
  ++intervals_;
  // Series no longer present in the registry (possible only when sampling
  // resumes after a merge, which this type does not support) would go
  // ragged; catch that loudly instead of exporting short rows.
  for (const TimeSeries& s : series_) {
    const std::size_t points = s.kind == MetricKind::kCounter
                                   ? s.counter_deltas.size()
                                   : s.kind == MetricKind::kGauge
                                         ? s.gauge_samples.size()
                                         : s.count_deltas.size();
    SPERKE_CHECK(points == intervals_, "series '", s.name,
                 "' missed an interval (", points, " points after interval ",
                 intervals_, ")");
  }
}

void TimeSeriesStore::merge_from(const TimeSeriesStore& other) {
  SPERKE_CHECK(&other != this, "TimeSeriesStore: merge_from(self)");
  if (other.period_ <= sim::Duration{0} && other.series_.empty()) return;
  // An inactive store adopts the first shard wholesale.
  const bool adopt = period_ <= sim::Duration{0} && series_.empty();
  if (adopt) *this = other;
  // Either way the next sample rebinds from scratch; an adopted binding
  // would name other's registry.
  bound_registry_ = nullptr;
  bound_.clear();
  if (adopt) return;
  if (period_ != other.period_) {
    throw std::invalid_argument("TimeSeriesStore: period mismatch in merge");
  }
  if (intervals_ != other.intervals_) {
    throw std::invalid_argument(
        "TimeSeriesStore: interval count mismatch in merge");
  }
  for (const TimeSeries& theirs : other.series_) {
    // Appends zero-padded when absent.
    TimeSeries& mine = series_[resolve(theirs.name, theirs.kind, theirs.upper_bounds)];
    switch (theirs.kind) {
      case MetricKind::kCounter:
        for (std::size_t i = 0; i < intervals_; ++i) {
          mine.counter_deltas[i] += theirs.counter_deltas[i];
        }
        break;
      case MetricKind::kGauge:
        // Gauge samples add across shards, mirroring Gauge::merge_from: a
        // per-shard level (sessions stalled, queue depth) aggregates to
        // the fleet total at each instant.
        for (std::size_t i = 0; i < intervals_; ++i) {
          mine.gauge_samples[i] += theirs.gauge_samples[i];
        }
        break;
      case MetricKind::kHistogram:
        for (std::size_t i = 0; i < mine.bucket_deltas.size(); ++i) {
          mine.bucket_deltas[i] += theirs.bucket_deltas[i];
        }
        for (std::size_t i = 0; i < intervals_; ++i) {
          mine.count_deltas[i] += theirs.count_deltas[i];
          mine.sum_deltas[i] += theirs.sum_deltas[i];
        }
        break;
    }
  }
}

}  // namespace sperke::obs
