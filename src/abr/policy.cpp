#include "abr/policy.h"

#include <algorithm>

namespace sperke::abr {

ChunkPlan TileAbrPolicy::plan_chunk(media::ChunkIndex index,
                                    const std::vector<geo::TileId>& predicted_fov,
                                    std::span<const double> tile_probabilities,
                                    double estimated_kbps,
                                    sim::Duration buffer_level,
                                    media::QualityLevel last_quality) const {
  PlanWorkspace workspace;
  ChunkPlan plan;
  plan_chunk_into(index, predicted_fov, tile_probabilities, estimated_kbps,
                  buffer_level, last_quality, workspace, plan);
  return plan;
}

TileAbrPolicy::UpgradeDecision TileAbrPolicy::consider_upgrade(
    const media::ChunkKey& /*key*/, media::QualityLevel /*current*/,
    media::QualityLevel /*svc_layer_base*/, media::QualityLevel /*target*/,
    double /*visible_probability*/, sim::Duration /*time_to_deadline*/,
    double /*estimated_kbps*/) const {
  return {};
}

void super_chunk_tiles(std::span<const double> probs, std::size_t count,
                       std::vector<geo::TileId>& out) {
  out.resize(probs.size());
  for (std::size_t i = 0; i < probs.size(); ++i) {
    out[i] = static_cast<geo::TileId>(i);
  }
  std::stable_sort(out.begin(), out.end(), [&](geo::TileId a, geo::TileId b) {
    return probs[static_cast<std::size_t>(a)] > probs[static_cast<std::size_t>(b)];
  });
  out.resize(std::min(out.size(), count));
  std::sort(out.begin(), out.end());
}

}  // namespace sperke::abr
