#include "hmp/fusion.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>

#include "util/check.h"
#include "util/math.h"

namespace sperke::hmp {

FusionPredictor::FusionPredictor(std::shared_ptr<const geo::TileGeometry> geometry,
                                 geo::Viewport viewport,
                                 std::unique_ptr<OrientationPredictor> motion,
                                 const ViewingHeatmap* crowd, ViewingContext context,
                                 FusionConfig config)
    : geometry_(std::move(geometry)),
      viewport_(viewport),
      motion_(std::move(motion)),
      crowd_(crowd),
      context_(context),
      config_(config) {
  if (!geometry_) throw std::invalid_argument("FusionPredictor: null geometry");
  if (!motion_) throw std::invalid_argument("FusionPredictor: null motion predictor");
  if (crowd_ != nullptr && crowd_->tile_count() != geometry_->grid().tile_count()) {
    throw std::invalid_argument("FusionPredictor: heatmap/grid tile count mismatch");
  }
  // Tile-center longitudes for the pose band test, hoisted out of the
  // per-call pruning pass (identical expression, evaluated once).
  const int n = geometry_->grid().tile_count();
  center_lon_deg_.reserve(static_cast<std::size_t>(n));
  for (geo::TileId i = 0; i < n; ++i) {
    center_lon_deg_.push_back(
        geo::lonlat_from_direction(geometry_->tile_center_direction(i)).lon_deg);
  }
}

void FusionPredictor::observe(const HeadSample& sample) {
  motion_->observe(sample);
  last_sample_ = sample;
}

geo::Orientation FusionPredictor::predict_orientation(sim::Duration horizon) const {
  return motion_->predict(horizon);
}

std::vector<double> FusionPredictor::tile_probabilities(
    sim::Duration horizon, media::ChunkIndex chunk) const {
  std::vector<double> prob;
  tile_probabilities_into(horizon, chunk, prob);
  return prob;
}

void FusionPredictor::tile_probabilities_into(sim::Duration horizon,
                                              media::ChunkIndex chunk,
                                              std::vector<double>& out) const {
  out.resize(static_cast<std::size_t>(geometry_->grid().tile_count()));
  tile_probabilities_into(horizon, chunk, std::span<double>(out));
}

void FusionPredictor::tile_probabilities_into(sim::Duration horizon,
                                              media::ChunkIndex chunk,
                                              std::span<double> out) const {
  const int n = geometry_->grid().tile_count();
  SPERKE_CHECK(out.size() == static_cast<std::size_t>(n),
               "FusionPredictor: output span size ", out.size(),
               " != tile count ", n);
  const double h = std::max(sim::to_seconds(horizon), 0.0);

  // (1) Motion component: Gaussian kernel (in angular distance) around the
  // predicted view center, widened by the horizon-dependent error model.
  // `out` first holds the distances, then the unnormalized weights; the
  // fused pass below turns them into probabilities in place. Two simple
  // loops here measured faster than one that mixes acos and exp.
  const std::vector<geo::Vec3>& centers = geometry_->tile_centers();
  const geo::Vec3 predicted = motion_->predict(horizon).direction();
  // Engaged viewers wander less: scale error growth by (1.5 - engagement).
  const double engagement = std::clamp(context_.engagement, 0.0, 1.0);
  const double sigma =
      config_.sigma_base_deg +
      config_.sigma_growth_dps * (1.5 - engagement) * h;
  // Tiles inside the viewport at the predicted center count fully; beyond
  // the viewport edge the Gaussian tail takes over.
  const double fov_radius =
      std::min(viewport_.width_deg, viewport_.height_deg) / 2.0;
  for (std::size_t s = 0; s < out.size(); ++s) {
    out[s] = rad_to_deg(geo::angle_between(predicted, centers[s]));
  }
  double motion_total = 0.0;
  for (double& w : out) {
    const double excess = std::max(0.0, w - fov_radius);
    w = std::exp(-(excess * excess) / (2.0 * sigma * sigma));
    motion_total += w;
  }

  // (2) Crowd prior for this chunk, if available: the Laplace-smoothed
  // share (count + 1) / (total + n). The counts are sums of 1.0s, integers
  // far below 2^53, so total(chunk) + n is exactly the sum of the smoothed
  // counts and each share is bit-identical to normalizing them in a pass.
  const bool have_crowd = crowd_ != nullptr && crowd_->total(chunk) > 0.0;
  const double crowd_total =
      have_crowd ? crowd_->total(chunk) + static_cast<double>(n) : 0.0;

  // Blend: motion weight decays with horizon beyond the grace period.
  const double w_motion_raw =
      std::exp(-std::max(0.0, h - config_.motion_grace_s) / config_.motion_tau_s);
  const double w_motion = have_crowd ? w_motion_raw : 1.0;
  const double w_crowd = 1.0 - w_motion;
  const double uniform = 1.0 / static_cast<double>(n);
  const double floor_scale = 1.0 - config_.uniform_floor;
  const double floor_term = config_.uniform_floor * uniform;

  // (3) Context pruning inputs: zero tiles that are unreachable within the
  // horizon (speed bound) or outside the pose's yaw band.
  const bool prune = last_sample_.has_value();
  bool prune_speed = false;
  bool prune_pose = false;
  double reach = 0.0;
  double band = 0.0;
  geo::Vec3 current{};
  if (prune) {
    prune_speed = context_.max_speed_dps.has_value();
    if (prune_speed) {
      const double fov_diag =
          std::hypot(viewport_.width_deg, viewport_.height_deg) / 2.0;
      reach = *context_.max_speed_dps * h + fov_diag;
      current = last_sample_->orientation.direction();
    }
    prune_pose = context_.pose.has_value();
    if (prune_pose) {
      band = pose_yaw_half_range_deg(*context_.pose) + viewport_.width_deg / 2.0;
    }
  }

  // Fused pass: blend + floor + prune + total in one sweep. Each tile sees
  // the identical operation sequence the former four passes applied, so the
  // results (and the index-ordered total) are bit-identical.
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto s = static_cast<std::size_t>(i);
    double p = w_motion * (out[s] / motion_total);
    if (have_crowd) {
      p += w_crowd * ((crowd_->count(chunk, i) + 1.0) / crowd_total);
    }
    p = floor_scale * p + floor_term;
    if (prune_speed && rad_to_deg(geo::angle_between(current, centers[s])) > reach) {
      p = 0.0;
    }
    if (prune_pose &&
        std::abs(angle_diff_deg(center_lon_deg_[s], context_.home_yaw_deg)) > band) {
      p = 0.0;
    }
    out[s] = p;
    total += p;
  }

  // Renormalize (fall back to uniform if pruning removed everything).
  if (total <= 0.0) {
    std::fill(out.begin(), out.end(), uniform);
  } else {
    for (double& p : out) p /= total;
  }
}

}  // namespace sperke::hmp
