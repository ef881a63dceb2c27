#include "abr/oos.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

namespace sperke::abr {
namespace {

// The floor of every OOS tile's quality.
constexpr media::QualityLevel kMinQuality = 0;
// The best OOS tile sits this many levels below the FoV quality...
constexpr int kFirstQualityDrop = 1;
// ...and every kTilesPerStep OOS tiles drop one more level.
constexpr int kTilesPerStep = 3;

// Emit the fetches needed to hold tile `tile` of chunk `index` at quality
// `q` under `encoding` (one AVC object, or SVC layers 0..q).
void emit_tile(ChunkPlan& plan, geo::TileId tile, media::QualityLevel q,
               media::Encoding encoding, SpatialClass spatial, double prob) {
  const media::ChunkKey key{tile, plan.index};
  if (encoding == media::Encoding::kAvc) {
    plan.fetches.push_back({{key, media::Encoding::kAvc, q}, spatial, prob});
  } else {
    for (media::LayerIndex l = 0; l <= q; ++l) {
      plan.fetches.push_back({{key, media::Encoding::kSvc, l}, spatial, prob});
    }
  }
}

}  // namespace

OosSelector::OosSelector(OosConfig config) : config_(config) {
  // NaN fails both tests.
  if (!(config_.budget_fraction >= 0.0) ||
      !std::isfinite(config_.budget_fraction)) {
    throw std::invalid_argument(
        "OosSelector: budget fraction must be finite and >= 0");
  }
}

void OosSelector::select(ChunkPlan& plan, const media::VideoModel& video,
                         const std::vector<geo::TileId>& fov_tiles,
                         std::span<const double> probabilities,
                         media::Encoding encoding, Workspace& workspace) const {
  if (static_cast<int>(probabilities.size()) != video.tile_count()) {
    throw std::invalid_argument("OosSelector: probability size mismatch");
  }
  const std::int64_t fov_bytes = plan.total_bytes(video);

  // Factor 2 (HMP accuracy): probability mass outside the predicted FoV.
  double miss_mass = 1.0;
  for (geo::TileId tile : fov_tiles) {
    miss_mass -= probabilities[static_cast<std::size_t>(tile)];
  }
  miss_mass = std::clamp(miss_mass, 0.0, 1.0);
  double budget = config_.budget_fraction * static_cast<double>(fov_bytes);
  budget *= (1.0 + miss_mass);

  // Candidates: every non-FoV tile, most probable first.
  auto& in_fov = workspace.in_fov;
  in_fov.assign(probabilities.size(), 0);
  for (geo::TileId tile : fov_tiles) in_fov[static_cast<std::size_t>(tile)] = 1;
  auto& candidates = workspace.candidates;
  candidates.clear();
  for (geo::TileId tile = 0; tile < video.tile_count(); ++tile) {
    if (!in_fov[static_cast<std::size_t>(tile)]) candidates.push_back(tile);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](geo::TileId a, geo::TileId b) {
                     return probabilities[static_cast<std::size_t>(a)] >
                            probabilities[static_cast<std::size_t>(b)];
                   });

  // Quality falls off with rank: the further down the ranking — the
  // further from the predicted FoV — the lower the quality (§3.1.1).
  std::int64_t spent = 0;
  int rank = 0;
  for (geo::TileId tile : candidates) {
    const int drop = kFirstQualityDrop + rank / kTilesPerStep;
    const media::QualityLevel q =
        std::max<media::QualityLevel>(kMinQuality, plan.fov_quality - drop);
    const media::ChunkKey key{tile, plan.index};
    const std::int64_t cost = (encoding == media::Encoding::kAvc)
                                  ? video.avc_size_bytes(q, key)
                                  : video.svc_cumulative_size_bytes(q, key);
    // Compared in double: an integer exceeds a non-negative budget exactly
    // when it exceeds the budget's truncation, and no cast can overflow.
    if (static_cast<double>(spent + cost) > budget) break;
    spent += cost;
    emit_tile(plan, tile, q, encoding, SpatialClass::kOos,
              probabilities[static_cast<std::size_t>(tile)]);
    ++rank;
  }
}

}  // namespace sperke::abr
