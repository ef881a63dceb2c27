#include "obs/slo.h"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "util/check.h"
#include "util/csv.h"
#include "util/table.h"

namespace sperke::obs {
namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

std::string_view slo_signal_name(SloSignal signal) {
  switch (signal) {
    case SloSignal::kCounterRate: return "counter_rate";
    case SloSignal::kGaugeValue: return "gauge_value";
    case SloSignal::kHistogramQuantile: return "histogram_quantile";
  }
  return "?";
}

bool valid_slo_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

void validate_slo(const SloSpec& spec) {
  if (!valid_slo_name(spec.name)) {
    throw std::invalid_argument("SloSpec: name '" + spec.name +
                                "' violates [a-z0-9_.]+ style");
  }
  if (spec.metric.empty()) {
    throw std::invalid_argument("SloSpec '" + spec.name + "': empty metric");
  }
  // Written so that NaN fails: it would reach an integer cast in the
  // quantile helpers.
  if (spec.signal == SloSignal::kHistogramQuantile &&
      !(spec.quantile >= 0.0 && spec.quantile <= 1.0)) {
    throw std::invalid_argument("SloSpec '" + spec.name +
                                "': quantile outside [0, 1]");
  }
  if (!std::isfinite(spec.threshold)) {
    throw std::invalid_argument("SloSpec '" + spec.name +
                                "': threshold must be finite");
  }
  if (spec.window_intervals < 1) {
    throw std::invalid_argument("SloSpec '" + spec.name + "': window < 1");
  }
}

SloEvaluator::SloEvaluator(std::vector<SloSpec> specs,
                           const TimeSeriesStore& store, Telemetry& telemetry)
    : specs_(std::move(specs)), store_(store), telemetry_(telemetry) {
  states_.resize(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    validate_slo(specs_[i]);
    states_[i].budget = &telemetry_.metrics().counter(
        "slo." + specs_[i].name + ".breached_intervals");
  }
}

const TimeSeries* SloEvaluator::series_for(std::size_t s) {
  State& state = states_[s];
  if (state.series == kUnbound) {
    const TimeSeries* found = store_.find(specs_[s].metric);
    if (found == nullptr) return nullptr;
    state.series = static_cast<std::size_t>(found - store_.series().data());
  }
  const TimeSeries& series = store_.series()[state.series];
  SPERKE_DCHECK(series.name == specs_[s].metric, "SLO '", specs_[s].name,
                "' bound to series '", series.name, "'");
  return &series;
}

double SloEvaluator::signal_at(const SloSpec& spec, const TimeSeries& series,
                               std::size_t interval) const {
  const auto window = static_cast<std::size_t>(spec.window_intervals);
  const std::size_t first = interval + 1 >= window ? interval + 1 - window : 0;
  const std::size_t spanned = interval - first + 1;
  switch (spec.signal) {
    case SloSignal::kCounterRate: {
      if (series.kind != MetricKind::kCounter) {
        throw std::invalid_argument("SloSpec '" + spec.name + "': metric '" +
                                    spec.metric + "' is not a counter");
      }
      std::int64_t total = 0;
      for (std::size_t i = first; i <= interval; ++i) {
        total += series.counter_deltas[i];
      }
      const double elapsed_s =
          sim::to_seconds(store_.period()) * static_cast<double>(spanned);
      return static_cast<double>(total) / elapsed_s;
    }
    case SloSignal::kGaugeValue: {
      if (series.kind != MetricKind::kGauge) {
        throw std::invalid_argument("SloSpec '" + spec.name + "': metric '" +
                                    spec.metric + "' is not a gauge");
      }
      double total = 0.0;
      for (std::size_t i = first; i <= interval; ++i) {
        total += series.gauge_samples[i];
      }
      return total / static_cast<double>(spanned);
    }
    case SloSignal::kHistogramQuantile:
      return series_window_quantile_bound(series, first, interval,
                                          spec.quantile);
  }
  return 0.0;
}

void SloEvaluator::evaluate() {
  for (std::size_t i = next_interval_; i < store_.intervals(); ++i) {
    for (std::size_t s = 0; s < specs_.size(); ++s) {
      const SloSpec& spec = specs_[s];
      State& state = states_[s];
      // A metric that never registered reads as zero activity — an SLO can
      // watch an instrument the workload only creates under load.
      const TimeSeries* series = series_for(s);
      const double signal = series == nullptr ? 0.0 : signal_at(spec, *series, i);
      const bool breached = signal > spec.threshold;
      ++state.evaluated;
      state.last_signal = signal;
      if (breached) {
        ++state.breached_intervals;
        state.budget->increment();
      }
      if (breached != state.breached) {
        if (breached) ++state.breach_events;
        state.breached = breached;
        telemetry_.trace().record(
            {.type = breached ? TraceEventType::kSloBreach
                              : TraceEventType::kSloClear,
             .ts = store_.interval_end(i),
             .chunk = static_cast<std::int32_t>(s),
             .value = signal});
      }
    }
  }
  next_interval_ = store_.intervals();
}

std::vector<SloStatus> SloEvaluator::status() const {
  std::vector<SloStatus> rows;
  rows.reserve(specs_.size());
  for (std::size_t s = 0; s < specs_.size(); ++s) {
    const State& state = states_[s];
    rows.push_back({.name = specs_[s].name,
                    .evaluated_intervals = state.evaluated,
                    .breached_intervals = state.breached_intervals,
                    .breach_events = state.breach_events,
                    .breached_at_end = state.breached,
                    .last_signal = state.last_signal});
  }
  return rows;
}

void merge_slo_status(std::vector<SloStatus>& into,
                      const std::vector<SloStatus>& other) {
  if (into.empty()) {
    into = other;
    return;
  }
  if (into.size() != other.size()) {
    throw std::invalid_argument("merge_slo_status: row count mismatch");
  }
  for (std::size_t i = 0; i < into.size(); ++i) {
    if (into[i].name != other[i].name) {
      throw std::invalid_argument("merge_slo_status: name mismatch at row " +
                                  std::to_string(i));
    }
    // evaluated_intervals stays the per-shard interval count (identical on
    // every shard by construction), not the sum — it reads as "how many
    // windows were judged", which does not scale with shard count.
    SPERKE_CHECK(into[i].evaluated_intervals == other[i].evaluated_intervals,
                 "merge_slo_status: shards evaluated different interval "
                 "counts for '",
                 into[i].name, "'");
    into[i].breached_intervals += other[i].breached_intervals;
    into[i].breach_events += other[i].breach_events;
    into[i].breached_at_end = into[i].breached_at_end || other[i].breached_at_end;
    into[i].last_signal += other[i].last_signal;
  }
}

std::string slo_table(const std::vector<SloSpec>& specs,
                      const std::vector<SloStatus>& rows) {
  SPERKE_CHECK(specs.size() == rows.size(),
               "slo_table: spec/status size mismatch");
  TextTable table({"slo", "metric", "signal", "threshold", "evaluated",
                   "breached", "breaches", "budget_burn%", "at_end",
                   "last_signal"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SloSpec& spec = specs[i];
    const SloStatus& row = rows[i];
    const double burn =
        row.evaluated_intervals > 0
            ? 100.0 * static_cast<double>(row.breached_intervals) /
                  static_cast<double>(row.evaluated_intervals)
            : 0.0;
    table.add_row({row.name, spec.metric, std::string(slo_signal_name(spec.signal)),
                   TextTable::num(spec.threshold, 3),
                   std::to_string(row.evaluated_intervals),
                   std::to_string(row.breached_intervals),
                   std::to_string(row.breach_events), TextTable::num(burn, 1),
                   row.breached_at_end ? "BREACHED" : "ok",
                   TextTable::num(row.last_signal, 3)});
  }
  return table.str();
}

void write_slo_csv(std::ostream& out, const std::vector<SloStatus>& rows) {
  CsvWriter csv(out);
  csv.write_row({"name", "evaluated_intervals", "breached_intervals",
                 "breach_events", "breached_at_end", "last_signal"});
  for (const SloStatus& row : rows) {
    csv.write_row({row.name, std::to_string(row.evaluated_intervals),
                   std::to_string(row.breached_intervals),
                   std::to_string(row.breach_events),
                   row.breached_at_end ? "1" : "0",
                   fmt_double(row.last_signal)});
  }
}

}  // namespace sperke::obs
