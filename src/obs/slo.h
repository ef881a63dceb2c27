// Declarative service-level objectives evaluated on the sampled time
// series during the run (DESIGN.md §12). An SloSpec names a metric, how to
// read it (counter rate / gauge level / histogram quantile), a threshold,
// and a trailing window in sample intervals. The evaluator runs after
// every TimeSeriesStore::sample(), so verdicts are a pure function of the
// series — per shard, in virtual time, deterministic at any thread count.
//
// Each evaluated interval with signal > threshold burns one unit of the
// SLO's error-budget counter; healthy<->breached transitions additionally
// emit kSloBreach / kSloClear trace events stamped at the interval's end
// (chunk = the SLO's index in the spec list, value = the signal).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/telemetry.h"
#include "obs/timeseries.h"

namespace sperke::obs {

enum class SloSignal : std::uint8_t {
  kCounterRate,        // per-second rate of a counter over the window
  kGaugeValue,         // mean gauge sample over the window
  kHistogramQuantile,  // quantile bound of the window's histogram deltas
};

[[nodiscard]] std::string_view slo_signal_name(SloSignal signal);

struct SloSpec {
  std::string name;    // [a-z0-9_.]+ — validate_slo throws otherwise
  std::string metric;  // instrument the signal reads
  SloSignal signal = SloSignal::kGaugeValue;
  double quantile = 0.99;    // kHistogramQuantile only, in [0, 1]
  double threshold = 0.0;    // breach when signal > threshold; finite
  int window_intervals = 1;  // trailing evaluation window, >= 1
};

// SLO and metric names share one style rule ([a-z0-9_.]+), enforced here
// at runtime and by sperke_lint at registration sites.
[[nodiscard]] bool valid_slo_name(std::string_view name);

// Throws std::invalid_argument when a spec is malformed (bad name, empty
// metric, quantile outside [0,1] or NaN, non-finite threshold, window < 1).
void validate_slo(const SloSpec& spec);

// End-of-run rollup for one SLO; merges across shards field-wise.
struct SloStatus {
  std::string name;
  std::int64_t evaluated_intervals = 0;
  std::int64_t breached_intervals = 0;  // error budget burned
  std::int64_t breach_events = 0;       // healthy -> breached transitions
  bool breached_at_end = false;
  // Signal at the last evaluated interval. Sums across shards (a gauge
  // level aggregates to the fleet total, mirroring Gauge::merge_from).
  double last_signal = 0.0;
};

class SloEvaluator {
 public:
  // Validates every spec; `store` and `telemetry` must outlive the
  // evaluator. Error-budget counters (slo.<name>.breached_intervals) are
  // registered up front so the metric set does not depend on whether a
  // breach ever happens.
  SloEvaluator(std::vector<SloSpec> specs, const TimeSeriesStore& store,
               Telemetry& telemetry);

  // Evaluate every SLO over the intervals sampled since the last call.
  void evaluate();

  [[nodiscard]] const std::vector<SloSpec>& specs() const { return specs_; }
  [[nodiscard]] std::vector<SloStatus> status() const;

 private:
  // The series spec `s` reads, or nullptr while its metric has not
  // registered; the index is looked up by name once and then kept (store
  // series are append-only).
  [[nodiscard]] const TimeSeries* series_for(std::size_t s);
  [[nodiscard]] double signal_at(const SloSpec& spec, const TimeSeries& series,
                                 std::size_t interval) const;

  std::vector<SloSpec> specs_;
  const TimeSeriesStore& store_;
  Telemetry& telemetry_;

  static constexpr std::size_t kUnbound = static_cast<std::size_t>(-1);
  struct State {
    Counter* budget = nullptr;
    bool breached = false;
    std::int64_t evaluated = 0;
    std::int64_t breached_intervals = 0;
    std::int64_t breach_events = 0;
    double last_signal = 0.0;
    std::size_t series = kUnbound;  // index into store_.series()
  };
  std::vector<State> states_;      // parallel to specs_
  std::size_t next_interval_ = 0;  // first store interval not yet evaluated
};

// Fold another shard's rollup in. Requires identical name lists in the
// same order (every shard evaluates the same WorldSpec::slos); throws
// std::invalid_argument otherwise.
void merge_slo_status(std::vector<SloStatus>& into,
                      const std::vector<SloStatus>& other);

// End-of-run SLO table (one row per SLO) / CSV export.
[[nodiscard]] std::string slo_table(const std::vector<SloSpec>& specs,
                                    const std::vector<SloStatus>& rows);
void write_slo_csv(std::ostream& out, const std::vector<SloStatus>& rows);

}  // namespace sperke::obs
