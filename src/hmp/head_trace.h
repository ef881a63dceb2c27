// Head-movement traces: the raw material of head movement prediction (HMP).
//
// Substitutes for the 50 Hz sensor recordings the paper's crowd-sourcing app
// would collect (DESIGN.md §4): a fixation/saccade generator with per-user
// speed profiles, pose constraints and per-video shared attention attractors
// ("regions of interest"). Published HMP results rely on (a) short-horizon
// continuity of head motion and (b) cross-user attention correlation; the
// generator reproduces both with controllable strength.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geo/orientation.h"
#include "sim/time.h"
#include "util/rng.h"

namespace sperke::hmp {

struct HeadSample {
  sim::Time t{sim::kTimeZero};
  geo::Orientation orientation;
};

// A fixed-rate sequence of head orientations.
class HeadTrace {
 public:
  HeadTrace(std::vector<HeadSample> samples, double sample_rate_hz);

  [[nodiscard]] const std::vector<HeadSample>& samples() const { return samples_; }
  [[nodiscard]] double sample_rate_hz() const { return sample_rate_hz_; }
  [[nodiscard]] sim::Time duration() const;

  // Orientation at time t: nearest earlier sample, with yaw/pitch linearly
  // interpolated toward the next one (yaw via shortest arc). Clamps to the
  // trace's ends.
  [[nodiscard]] geo::Orientation orientation_at(sim::Time t) const;

  // Mean absolute angular speed over the whole trace (deg/s).
  [[nodiscard]] double mean_speed_dps() const;

 private:
  std::vector<HeadSample> samples_;
  double sample_rate_hz_;
};

// Body pose constrains reachable orientations (§3.2: someone lying on a
// couch can hardly look 180° behind).
enum class Pose { kSitting, kStanding, kLying };

// Reachable yaw half-range around the user's "home" yaw for a pose.
[[nodiscard]] double pose_yaw_half_range_deg(Pose pose);

struct UserProfile {
  std::string name = "adult";
  double max_speed_dps = 120.0;       // peak head angular velocity
  double fixation_mean_s = 2.0;       // mean dwell between saccades
  double attractor_affinity = 0.7;    // probability a saccade targets a shared ROI
  Pose pose = Pose::kSitting;
  double jitter_dps = 3.0;            // small continuous wander while fixating

  [[nodiscard]] static UserProfile teenager();
  [[nodiscard]] static UserProfile adult();
  [[nodiscard]] static UserProfile elderly();
  [[nodiscard]] static UserProfile lying();
};

// A shared region of interest in a video: users are drawn toward it while
// it is active. Gives traces the cross-user correlation crowd-sourced HMP
// exploits (§3.2, §3.4.2).
struct Attractor {
  double start_s = 0.0;
  double end_s = 1e9;
  geo::Orientation center;
  double spread_deg = 20.0;  // per-user aim dispersion around the center
};

struct HeadTraceConfig {
  double duration_s = 60.0;
  double sample_rate_hz = 25.0;
  UserProfile profile;
  std::vector<Attractor> attractors;  // the video's shared ROIs
  geo::Orientation start;             // initial (home) orientation
  std::uint64_t seed = 1;
};

// Generate one user's head trace for one video.
[[nodiscard]] HeadTrace generate_head_trace(const HeadTraceConfig& config);

// A default "interesting video" script: a handful of ROIs that move around
// the sphere over `duration_s`. Deterministic in `seed`.
[[nodiscard]] std::vector<Attractor> default_attractors(double duration_s,
                                                        std::uint64_t seed);

}  // namespace sperke::hmp
