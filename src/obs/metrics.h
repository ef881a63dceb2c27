// Metrics registry: counters, gauges, and fixed-bucket histograms for the
// streaming pipeline. Instruments are created once (resolved by name) and
// updated through stable handles — an update is a single add/store, cheap
// enough to stay on in benches. Registration order is preserved so exports
// are deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"

namespace sperke::obs {

class Counter {
 public:
  // Counters are monotone: shard merge and SLO rate math both divide
  // deltas by elapsed time and assume they never go backwards.
  void add(std::int64_t delta) {
    SPERKE_DCHECK(delta >= 0, "counter decremented by ", delta);
    value_ += delta;
  }
  void increment() { ++value_; }
  [[nodiscard]] std::int64_t value() const { return value_; }

  // Fold another counter in (shard merge): counts add.
  void merge_from(const Counter& other) { value_ += other.value_; }

 private:
  std::int64_t value_ = 0;
};

class Gauge {
 public:
  void set(double value) { value_ = value; }
  // Relative update for gauges tracking a level (sessions stalled, queue
  // occupancy): +1 on entry, -1 on exit. Unlike Counter, deltas may be
  // negative — a level can fall.
  void add(double delta) { value_ += delta; }
  [[nodiscard]] double value() const { return value_; }

  // Fold another gauge in (shard merge): values add. A gauge sampled
  // per shard (queue depth, events/sec) aggregates to the fleet total;
  // there is no meaningful "last write" across concurrent shards.
  void merge_from(const Gauge& other) { value_ += other.value_; }

 private:
  double value_ = 0.0;
};

// Fixed upper-bound buckets (ascending), plus an implicit +inf overflow
// bucket; observe() also tracks sum/count/min/max so means stay exact.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double x);

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  // bucket_counts().size() == upper_bounds().size() + 1 (last = overflow).
  [[nodiscard]] const std::vector<std::int64_t>& bucket_counts() const {
    return bucket_counts_;
  }

  // Fold another histogram in (shard merge): bucket counts, count and sum
  // add; min/max combine. Throws std::invalid_argument unless the bucket
  // layouts are identical — silently mis-merging mismatched bounds would
  // corrupt every quantile derived from the result.
  void merge_from(const Histogram& other);

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::int64_t> bucket_counts_;
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string_view metric_kind_name(MetricKind kind);

// Name -> instrument registry. Re-requesting an existing name with the same
// kind returns the same instrument (for a histogram, the bounds of the first
// registration win); re-requesting it with a different kind throws.
class MetricsRegistry {
 public:
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::vector<double> upper_bounds = {});

  // Lookup without creating; nullptr when absent or of another kind.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;      // set iff kind == kCounter
    std::unique_ptr<Gauge> gauge;          // set iff kind == kGauge
    std::unique_ptr<Histogram> histogram;  // set iff kind == kHistogram
  };

  // Registration order — the deterministic export order.
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  // Fold `other` in, name-matched: counters/gauges add, histograms merge
  // bucket-wise (identical bounds required). Instruments absent here are
  // created in `other`'s registration order, so merging shard registries in
  // shard-id order yields one deterministic export order. Throws
  // std::invalid_argument on kind or histogram-bound mismatches.
  void merge_from(const MetricsRegistry& other);

 private:
  Entry& resolve(std::string_view name, MetricKind kind);

  std::vector<Entry> entries_;
  std::map<std::string, std::size_t, std::less<>> index_;
};

// Default latency-ish bucket ladder (milliseconds/seconds agnostic):
// 1, 2, 5, 10, ... decades up to 10000.
[[nodiscard]] std::vector<double> decade_buckets();

// Quantile upper bound over fixed buckets: `counts` holds one count per
// entry of `bounds` plus the +inf overflow bucket last. Returns the bucket
// ceiling under which a `q` fraction (q in [0,1]) of the samples fall,
// `overflow` when the quantile lands in the overflow bucket, and 0 when
// there are no samples. A q outside [0,1], NaN included, fails a
// SPERKE_CHECK.
[[nodiscard]] double bucket_quantile_bound(std::span<const double> bounds,
                                           std::span<const std::int64_t> counts,
                                           double q, double overflow);

// bucket_quantile_bound over a histogram, answering max() for the overflow
// bucket. q=0.99 is the p99 the benches and SimMonitor report.
[[nodiscard]] double histogram_quantile_bound(const Histogram& hist, double q);

}  // namespace sperke::obs
