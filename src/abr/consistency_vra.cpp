#include "abr/consistency_vra.h"

#include <algorithm>
#include <cstdint>

namespace sperke::abr {
namespace {

// Fraction of the estimated throughput the planner may spend per chunk.
constexpr double kSafety = 0.9;
// Max FoV quality *rise* per chunk (drops are unconstrained).
constexpr int kMaxTemporalStep = 1;
// Quality levels dropped per BFS ring away from the viewport.
constexpr int kSpatialStep = 1;
// Protective rings fetched beyond the FoV.
constexpr int kMaxRings = 2;

}  // namespace

ConsistencyVra::ConsistencyVra(std::shared_ptr<const media::VideoModel> video)
    : TileAbrPolicy(std::move(video)) {}

void ConsistencyVra::plan_into(media::ChunkIndex index,
                               const std::vector<geo::TileId>& predicted_fov,
                               std::span<const double> tile_probabilities,
                               double estimated_kbps, sim::Duration /*buffer_level*/,
                               media::QualityLevel last_quality,
                               PlanWorkspace& workspace, ChunkPlan& out) const {
  const media::VideoModel& video = this->video();
  const auto& ladder = video.ladder();
  const double chunk_s = sim::to_seconds(video.chunk_duration());
  const int tiles = video.tile_count();

  // Ring index per tile: BFS distance from the FoV over the tile grid
  // (geo/visibility.h). Rings past kMaxRings lie beyond the margin.
  auto& ring_of = workspace.tile_quality;
  video.geometry().oos_rings(predicted_fov, ring_of, workspace.geo);

  const auto ring_quality = [&](media::QualityLevel q_fov, int ring) {
    return std::max<media::QualityLevel>(q_fov - ring * kSpatialStep, 0);
  };
  const auto plan_bytes = [&](media::QualityLevel q_fov) {
    std::int64_t bytes = 0;
    for (geo::TileId t = 0; t < tiles; ++t) {
      const int ring = ring_of[static_cast<std::size_t>(t)];
      if (ring > kMaxRings) continue;
      bytes += video.avc_size_bytes(ring_quality(q_fov, ring), {t, index});
    }
    return bytes;
  };

  // The cap keeps the cast defined for any estimate; a whole plan is below
  // it (VideoModel's bound).
  const std::int64_t budget =
      estimated_kbps > 0.0
          ? static_cast<std::int64_t>(std::min(
                estimated_kbps * kSafety * chunk_s * 1000.0 / 8.0, 9.2e18))
          : 0;
  // Largest affordable FoV quality, capped by the temporal rise limit.
  // Cost is monotone in q_fov, so an ascending scan finds the maximum.
  const media::QualityLevel rise_cap = std::min<media::QualityLevel>(
      last_quality + kMaxTemporalStep, ladder.max_level());
  media::QualityLevel q_fov = -1;
  for (media::QualityLevel q = 0; q <= rise_cap; ++q) {
    if (plan_bytes(q) <= budget) q_fov = q;
  }
  // Even the all-base plan does not fit (startup / collapse): cover the
  // viewport alone at the base tier and drop the protective margin.
  const bool emergency = q_fov < 0;
  if (emergency) q_fov = 0;

  out.index = index;
  out.fov_quality = q_fov;
  out.fetches.clear();
  for (geo::TileId t = 0; t < tiles; ++t) {
    const int ring = ring_of[static_cast<std::size_t>(t)];
    if (ring > kMaxRings || (emergency && ring > 0)) continue;
    out.fetches.push_back(
        {{{t, index}, media::Encoding::kAvc, ring_quality(q_fov, ring)},
         ring == 0 ? SpatialClass::kFov : SpatialClass::kOos,
         tile_probabilities[static_cast<std::size_t>(t)]});
  }
}

}  // namespace sperke::abr
