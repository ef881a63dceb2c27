#include "abr/panorama_vra.h"

#include <cstdint>
#include <utility>

namespace sperke::abr {

FullPanoramaVra::FullPanoramaVra(std::shared_ptr<const media::VideoModel> video,
                                 FullPanoramaConfig config)
    : TileAbrPolicy(std::move(video)),
      pinned_(parse_regular_vra(config.regular_vra)) {}

void FullPanoramaVra::plan_into(media::ChunkIndex index,
                                const std::vector<geo::TileId>& predicted_fov,
                                std::span<const double> tile_probabilities,
                                double estimated_kbps, sim::Duration /*buffer_level*/,
                                media::QualityLevel /*last_quality*/,
                                PlanWorkspace& workspace, ChunkPlan& out) const {
  const media::VideoModel& video = this->video();
  const auto& ladder = video.ladder();
  const double chunk_s = sim::to_seconds(video.chunk_duration());
  const int tiles = video.tile_count();

  // The "super chunk" is the entire panorama: cost every level over all
  // tiles and let the regular VRA pick the uniform quality.
  std::vector<double>& level_kbps = workspace.level_kbps;
  level_kbps.clear();
  for (media::QualityLevel q = 0; q < ladder.levels(); ++q) {
    std::int64_t bytes = 0;
    for (geo::TileId t = 0; t < tiles; ++t) {
      bytes += video.avc_size_bytes(q, {t, index});
    }
    level_kbps.push_back(static_cast<double>(bytes) * 8.0 / chunk_s / 1000.0);
  }
  const media::QualityLevel q =
      regular_vra_level(level_kbps, estimated_kbps, pinned_);

  auto& in_fov = workspace.tile_flag;
  in_fov.assign(static_cast<std::size_t>(tiles), 0);
  for (geo::TileId t : predicted_fov) in_fov[static_cast<std::size_t>(t)] = 1;

  out.index = index;
  out.fov_quality = q;
  out.fetches.clear();
  for (geo::TileId t = 0; t < tiles; ++t) {
    // Everything is fetched; the predicted FoV still rides the higher
    // transport priority class (Table 1's spatial axis).
    out.fetches.push_back(
        {{{t, index}, media::Encoding::kAvc, q},
         in_fov[static_cast<std::size_t>(t)] != 0 ? SpatialClass::kFov
                                                  : SpatialClass::kOos,
         tile_probabilities[static_cast<std::size_t>(t)]});
  }
}

}  // namespace sperke::abr
