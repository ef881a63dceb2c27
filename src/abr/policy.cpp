#include "abr/policy.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string>
#include <utility>

namespace sperke::abr {

std::optional<media::QualityLevel> parse_regular_vra(std::string_view name) {
  if (name == "throughput") return std::nullopt;
  // "fixed-<level>", e.g. "fixed-2". A malformed level ("fixed-",
  // "fixed-x", "fixed--1") falls through to the listing error below.
  if (name.starts_with("fixed-")) {
    const std::string_view digits = name.substr(6);
    media::QualityLevel level = 0;
    const auto [ptr, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), level);
    if (ec == std::errc{} && ptr == digits.data() + digits.size() &&
        level >= 0) {
      return level;
    }
  }
  throw std::invalid_argument("parse_regular_vra: unknown VRA \"" +
                              std::string(name) +
                              "\"; valid names: throughput, fixed-<level>");
}

media::QualityLevel regular_vra_level(std::span<const double> level_kbps,
                                      double estimated_kbps,
                                      std::optional<media::QualityLevel> pinned) {
  if (level_kbps.empty()) throw std::invalid_argument("regular_vra_level: empty ladder");
  const auto top = static_cast<media::QualityLevel>(level_kbps.size()) - 1;
  if (pinned) return std::min(*pinned, top);
  if (estimated_kbps <= 0.0) return 0;
  const double budget = estimated_kbps * 0.85;
  media::QualityLevel pick = 0;
  for (media::QualityLevel q = 0; q <= top; ++q) {
    if (level_kbps[static_cast<std::size_t>(q)] <= budget) pick = q;
  }
  return pick;
}

TileAbrPolicy::TileAbrPolicy(std::shared_ptr<const media::VideoModel> video)
    : video_(std::move(video)) {
  if (!video_) throw std::invalid_argument("TileAbrPolicy: null video");
}

void TileAbrPolicy::plan_chunk_into(media::ChunkIndex index,
                                    const std::vector<geo::TileId>& predicted_fov,
                                    std::span<const double> tile_probabilities,
                                    double estimated_kbps,
                                    sim::Duration buffer_level,
                                    media::QualityLevel last_quality,
                                    PlanWorkspace& workspace, ChunkPlan& out) const {
  if (predicted_fov.empty()) {
    throw std::invalid_argument("plan_chunk: empty predicted FoV");
  }
  const int tiles = video_->tile_count();
  if (tile_probabilities.size() != static_cast<std::size_t>(tiles)) {
    throw std::invalid_argument("plan_chunk: probability map size != tile count");
  }
  for (const geo::TileId tile : predicted_fov) {
    if (tile < 0 || tile >= tiles) {
      throw std::invalid_argument("plan_chunk: FoV tile out of range");
    }
  }
  plan_into(index, predicted_fov, tile_probabilities, estimated_kbps,
            buffer_level, last_quality, workspace, out);
}

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

void TileAbrPolicy::consider_upgrade_into(
    const media::ChunkKey& key, media::QualityLevel current,
    media::QualityLevel svc_layer_base, media::QualityLevel target,
    double visible_probability, sim::Duration time_to_deadline,
    double estimated_kbps, UpgradeDecision& out) const {
  out.upgrade = false;
  out.fetches.clear();
  out.bytes = 0;
  decide_upgrade(key, current, svc_layer_base, target, visible_probability,
                 time_to_deadline, estimated_kbps, out);
}

TileAbrPolicy::UpgradeDecision TileAbrPolicy::consider_upgrade(
    const media::ChunkKey& key, media::QualityLevel current,
    media::QualityLevel svc_layer_base, media::QualityLevel target,
    double visible_probability, sim::Duration time_to_deadline,
    double estimated_kbps) const {
  UpgradeDecision decision;
  consider_upgrade_into(key, current, svc_layer_base, target,
                        visible_probability, time_to_deadline, estimated_kbps,
                        decision);
  return decision;
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
