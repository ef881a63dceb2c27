#include "hmp/head_trace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/math.h"

namespace sperke::hmp {

HeadTrace::HeadTrace(std::vector<HeadSample> samples, double sample_rate_hz)
    : samples_(std::move(samples)), sample_rate_hz_(sample_rate_hz) {
  if (samples_.empty()) throw std::invalid_argument("HeadTrace: empty");
  if (!(sample_rate_hz_ > 0.0)) throw std::invalid_argument("HeadTrace: bad rate");
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    if (samples_[i].t <= samples_[i - 1].t) {
      throw std::invalid_argument("HeadTrace: samples not time-ordered");
    }
  }
}

sim::Time HeadTrace::duration() const { return samples_.back().t; }

geo::Orientation HeadTrace::orientation_at(sim::Time t) const {
  if (t <= samples_.front().t) return samples_.front().orientation;
  if (t >= samples_.back().t) return samples_.back().orientation;
  // Binary search for the segment containing t.
  const auto it = std::upper_bound(
      samples_.begin(), samples_.end(), t,
      [](sim::Time value, const HeadSample& s) { return value < s.t; });
  const HeadSample& b = *it;
  const HeadSample& a = *std::prev(it);
  const double span = sim::to_seconds(b.t - a.t);
  const double f = span > 0.0 ? sim::to_seconds(t - a.t) / span : 0.0;
  geo::Orientation o;
  o.yaw_deg = wrap_deg180(a.orientation.yaw_deg +
                          f * angle_diff_deg(b.orientation.yaw_deg,
                                             a.orientation.yaw_deg));
  o.pitch_deg = lerp(a.orientation.pitch_deg, b.orientation.pitch_deg, f);
  o.roll_deg = wrap_deg180(a.orientation.roll_deg +
                           f * angle_diff_deg(b.orientation.roll_deg,
                                              a.orientation.roll_deg));
  return o;
}

double HeadTrace::mean_speed_dps() const {
  if (samples_.size() < 2) return 0.0;
  double total = 0.0;
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    const double dt = sim::to_seconds(samples_[i].t - samples_[i - 1].t);
    total += geo::angular_distance_deg(samples_[i - 1].orientation,
                                       samples_[i].orientation) /
             std::max(dt, 1e-9);
  }
  return total / static_cast<double>(samples_.size() - 1);
}

double pose_yaw_half_range_deg(Pose pose) {
  switch (pose) {
    case Pose::kSitting: return 150.0;   // can swivel, rarely straight behind
    case Pose::kStanding: return 180.0;  // free to turn fully around
    case Pose::kLying: return 75.0;      // cannot look behind (§3.2)
  }
  return 180.0;
}

UserProfile UserProfile::teenager() {
  return {.name = "teenager", .max_speed_dps = 180.0, .fixation_mean_s = 1.2,
          .attractor_affinity = 0.6, .pose = Pose::kSitting, .jitter_dps = 5.0};
}
UserProfile UserProfile::adult() { return {}; }
UserProfile UserProfile::elderly() {
  return {.name = "elderly", .max_speed_dps = 60.0, .fixation_mean_s = 3.5,
          .attractor_affinity = 0.8, .pose = Pose::kSitting, .jitter_dps = 2.0};
}
UserProfile UserProfile::lying() {
  return {.name = "lying", .max_speed_dps = 80.0, .fixation_mean_s = 2.5,
          .attractor_affinity = 0.7, .pose = Pose::kLying, .jitter_dps = 2.0};
}

namespace {

// Clamp a target orientation into the pose's reachable yaw band around home.
geo::Orientation clamp_to_pose(const geo::Orientation& target, double home_yaw,
                               Pose pose) {
  const double half = pose_yaw_half_range_deg(pose);
  geo::Orientation out = target.normalized();
  const double off = sperke::angle_diff_deg(out.yaw_deg, home_yaw);
  if (std::abs(off) > half) {
    out.yaw_deg = sperke::wrap_deg180(home_yaw + std::clamp(off, -half, half));
  }
  out.pitch_deg = std::clamp(out.pitch_deg, -75.0, 75.0);
  return out;
}

}  // namespace

HeadTrace generate_head_trace(const HeadTraceConfig& config) {
  // NaN fails both checks: the duration and the sample period must be
  // positive clock values.
  if (!sim::valid_positive_seconds(config.duration_s) ||
      !sim::valid_positive_seconds(1.0 / config.sample_rate_hz)) {
    throw std::invalid_argument("generate_head_trace: bad duration/rate");
  }
  Rng rng(config.seed);
  const double dt = 1.0 / config.sample_rate_hz;
  const auto n = static_cast<std::size_t>(config.duration_s * config.sample_rate_hz) + 1;
  const UserProfile& prof = config.profile;
  const double home_yaw = config.start.normalized().yaw_deg;

  geo::Orientation current = config.start.normalized();
  geo::Orientation target = current;
  double next_saccade_s = rng.exponential(prof.fixation_mean_s);

  std::vector<HeadSample> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double now_s = static_cast<double>(i) * dt;
    samples.push_back(
        {sim::seconds(now_s), current});

    if (now_s >= next_saccade_s) {
      next_saccade_s = now_s + rng.exponential(prof.fixation_mean_s);
      // Pick a new gaze target: an active shared ROI, or a random direction.
      const Attractor* roi = nullptr;
      std::vector<const Attractor*> active;
      for (const auto& a : config.attractors) {
        if (now_s >= a.start_s && now_s < a.end_s) active.push_back(&a);
      }
      if (!active.empty() && rng.bernoulli(prof.attractor_affinity)) {
        roi = active[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1))];
      }
      if (roi != nullptr) {
        target = geo::Orientation{
            roi->center.yaw_deg + rng.normal(0.0, roi->spread_deg),
            roi->center.pitch_deg + rng.normal(0.0, roi->spread_deg / 2.0), 0.0};
      } else {
        target = geo::Orientation{current.yaw_deg + rng.normal(0.0, 60.0),
                                  rng.normal(0.0, 25.0), 0.0};
      }
      target = clamp_to_pose(target, home_yaw, prof.pose);
    }

    // Move toward the target at bounded speed, with fixation jitter.
    const double max_step = prof.max_speed_dps * dt;
    const double dyaw = sperke::angle_diff_deg(target.yaw_deg, current.yaw_deg);
    const double dpitch = target.pitch_deg - current.pitch_deg;
    const double dist = std::hypot(dyaw, dpitch);
    double step_yaw = dyaw, step_pitch = dpitch;
    if (dist > max_step && dist > 0.0) {
      step_yaw = dyaw / dist * max_step;
      step_pitch = dpitch / dist * max_step;
    }
    current.yaw_deg = sperke::wrap_deg180(
        current.yaw_deg + step_yaw + rng.normal(0.0, prof.jitter_dps * dt));
    current.pitch_deg = std::clamp(
        current.pitch_deg + step_pitch + rng.normal(0.0, prof.jitter_dps * dt),
        -75.0, 75.0);
    current = clamp_to_pose(current, home_yaw, prof.pose);
  }
  return HeadTrace(std::move(samples), config.sample_rate_hz);
}

std::vector<Attractor> default_attractors(double duration_s, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Attractor> out;
  // A new ROI every ~8 s; occasionally two overlap (split attention).
  double t = 0.0;
  while (t < duration_s) {
    const double hold = rng.uniform(5.0, 12.0);
    Attractor a;
    a.start_s = t;
    a.end_s = std::min(t + hold, duration_s);
    a.center = geo::Orientation{rng.uniform(-120.0, 120.0), rng.uniform(-25.0, 25.0), 0.0};
    a.spread_deg = rng.uniform(10.0, 25.0);
    out.push_back(a);
    if (rng.bernoulli(0.3)) {
      Attractor b = a;
      b.center = geo::Orientation{rng.uniform(-180.0, 180.0), rng.uniform(-20.0, 20.0), 0.0};
      out.push_back(b);
    }
    t += hold;
  }
  return out;
}

}  // namespace sperke::hmp
