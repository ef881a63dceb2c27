// QoE accounting for 360° sessions, per the paper's §3.1.2 target metrics:
// fewer stalls/skips, higher (viewport) bitrate, fewer quality changes —
// plus the 360°-specific costs: blank tiles inside the FoV and wasted bytes
// (downloaded but never displayed).
#pragma once

#include <cstdint>

#include "media/quality_ladder.h"
#include "sim/time.h"

namespace sperke::abr {

struct QoeSummary {
  int chunks_played = 0;
  double mean_viewport_utility = 0.0;  // [0,1], across played chunks
  double stall_seconds = 0.0;
  int stall_events = 0;
  int skipped_chunks = 0;
  double switch_magnitude = 0.0;       // summed |utility| change
  double blank_fraction_mean = 0.0;    // mean fraction of FoV tiles missing
  std::int64_t bytes_downloaded = 0;
  std::int64_t bytes_wasted = 0;       // downloaded, never displayed
  double score = 0.0;                  // weighted aggregate (higher = better)
};

// Accumulates per-chunk playback observations and produces a QoeSummary.
class QoeTracker {
 public:
  // One playback step: the viewport's mean quality utility in [0,1] and the
  // fraction of FoV tiles that had no data at all. Throws
  // std::invalid_argument for a value outside [0,1], NaN included.
  void record_played_chunk(double viewport_utility, double blank_fraction);

  void record_stall(sim::Duration length);
  void record_skip(int chunks = 1);
  // Session byte totals. Throw std::invalid_argument for a negative count
  // and std::overflow_error when the total would exceed INT64_MAX.
  void record_downloaded(std::int64_t bytes);
  void record_wasted(std::int64_t bytes);

  [[nodiscard]] QoeSummary summary() const;

 private:
  QoeSummary acc_;
  double utility_sum_ = 0.0;
  double blank_sum_ = 0.0;
  bool has_prev_utility_ = false;
  double prev_utility_ = 0.0;
};

}  // namespace sperke::abr
