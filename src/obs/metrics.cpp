#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "util/check.h"

namespace sperke::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)) {
  if (!std::is_sorted(upper_bounds_.begin(), upper_bounds_.end())) {
    throw std::invalid_argument("Histogram: bounds not ascending");
  }
  bucket_counts_.assign(upper_bounds_.size() + 1, 0);
}

void Histogram::observe(double x) {
  SPERKE_DCHECK(bucket_counts_.size() == upper_bounds_.size() + 1,
                "Histogram: bucket/bound arrays out of sync");
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), x);
  ++bucket_counts_[static_cast<std::size_t>(it - upper_bounds_.begin())];
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
}

double Histogram::mean() const {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

void Histogram::merge_from(const Histogram& other) {
  if (upper_bounds_ != other.upper_bounds_) {
    throw std::invalid_argument(
        "Histogram::merge_from: mismatched bucket layouts");
  }
  SPERKE_DCHECK(bucket_counts_.size() == other.bucket_counts_.size(),
                "Histogram: merge with out-of-sync bucket arrays");
  for (std::size_t i = 0; i < bucket_counts_.size(); ++i) {
    bucket_counts_[i] += other.bucket_counts_[i];
  }
  if (other.count_ > 0) {
    min_ = count_ > 0 ? std::min(min_, other.min_) : other.min_;
    max_ = count_ > 0 ? std::max(max_, other.max_) : other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
  SPERKE_DCHECK(count_ >= other.count_, "Histogram: merge lost samples");
}

std::string_view metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

MetricsRegistry::Entry& MetricsRegistry::resolve(std::string_view name,
                                                 MetricKind kind) {
  if (name.empty()) throw std::invalid_argument("MetricsRegistry: empty name");
  const auto it = index_.find(name);
  if (it != index_.end()) {
    Entry& entry = entries_[it->second];
    if (entry.kind != kind) {
      throw std::invalid_argument("MetricsRegistry: '" + entry.name +
                                  "' already registered as " +
                                  std::string(metric_kind_name(entry.kind)));
    }
    return entry;
  }
  Entry entry;
  entry.name = std::string(name);
  entry.kind = kind;
  index_.emplace(entry.name, entries_.size());
  entries_.push_back(std::move(entry));
  return entries_.back();
}

Counter& MetricsRegistry::counter(std::string_view name) {
  Entry& entry = resolve(name, MetricKind::kCounter);
  if (!entry.counter) entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  Entry& entry = resolve(name, MetricKind::kGauge);
  if (!entry.gauge) entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds) {
  Entry& entry = resolve(name, MetricKind::kHistogram);
  if (!entry.histogram) {
    if (upper_bounds.empty()) upper_bounds = decade_buckets();
    entry.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return *entry.histogram;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) return nullptr;
  return entries_[it->second].counter.get();
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) return nullptr;
  return entries_[it->second].gauge.get();
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) return nullptr;
  return entries_[it->second].histogram.get();
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  // Shard-merge precondition: `other` must be self-consistent — the union
  // members are only non-null for the entry's registered kind, and a
  // registry can never merge into itself (counters would double).
  SPERKE_CHECK(&other != this, "MetricsRegistry: merge_from(self)");
  for (const Entry& theirs : other.entries()) {
    // resolve() throws on a kind mismatch and appends unknown names in
    // `other`'s registration order, keeping the merged export deterministic.
    switch (theirs.kind) {
      case MetricKind::kCounter:
        SPERKE_CHECK(theirs.counter != nullptr,
                     "MetricsRegistry: counter entry '", theirs.name,
                     "' has no instrument");
        counter(theirs.name).merge_from(*theirs.counter);
        break;
      case MetricKind::kGauge:
        SPERKE_CHECK(theirs.gauge != nullptr,
                     "MetricsRegistry: gauge entry '", theirs.name,
                     "' has no instrument");
        gauge(theirs.name).merge_from(*theirs.gauge);
        break;
      case MetricKind::kHistogram:
        SPERKE_CHECK(theirs.histogram != nullptr,
                     "MetricsRegistry: histogram entry '", theirs.name,
                     "' has no instrument");
        histogram(theirs.name, theirs.histogram->upper_bounds())
            .merge_from(*theirs.histogram);
        break;
    }
  }
  SPERKE_DCHECK(entries_.size() == index_.size(),
                "MetricsRegistry: name index out of sync with entries");
}

double bucket_quantile_bound(std::span<const double> bounds,
                             std::span<const std::int64_t> counts, double q,
                             double overflow) {
  SPERKE_CHECK(q >= 0.0 && q <= 1.0, "quantile ", q, " outside [0, 1]");
  SPERKE_CHECK(counts.size() == bounds.size() + 1, "quantile over ",
               counts.size(), " bucket counts for ", bounds.size(), " bounds");
  std::int64_t total = 0;
  for (const std::int64_t c : counts) total += c;
  if (total <= 0) return 0.0;
  const auto target =
      static_cast<std::int64_t>(q * static_cast<double>(total));
  std::int64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    cumulative += counts[i];
    if (cumulative > target) return bounds[i];
  }
  return overflow;
}

double histogram_quantile_bound(const Histogram& hist, double q) {
  return bucket_quantile_bound(hist.upper_bounds(), hist.bucket_counts(), q,
                               hist.max());
}

std::vector<double> decade_buckets() {
  std::vector<double> bounds;
  for (double decade = 1.0; decade <= 10'000.0; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2.0);
    bounds.push_back(decade * 5.0);
  }
  return bounds;
}

}  // namespace sperke::obs
