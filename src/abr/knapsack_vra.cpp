#include "abr/knapsack_vra.h"

#include <algorithm>
#include <cstdint>
#include <optional>

namespace sperke::abr {
namespace {

// Fraction of the estimated throughput the planner may spend per chunk.
constexpr double kSafety = 0.9;
// QualityLadder::utility(0) is 0, so a base-tier fetch of a non-FoV tile
// would never win a utility-only greedy — yet displaying *something*
// beats a blank tile on misprediction. Utility credit for getting a tile
// on screen at all (added to the entry step's Δu only).
constexpr double kEntryUtility = 0.25;
// Tiles below this viewing probability never enter the allocation.
constexpr double kMinProbability = 0.005;

}  // namespace

KnapsackVra::KnapsackVra(std::shared_ptr<const media::VideoModel> video)
    : TileAbrPolicy(std::move(video)) {}

void KnapsackVra::plan_into(media::ChunkIndex index,
                            const std::vector<geo::TileId>& predicted_fov,
                            std::span<const double> tile_probabilities,
                            double estimated_kbps, sim::Duration /*buffer_level*/,
                            media::QualityLevel /*last_quality*/,
                            PlanWorkspace& workspace, ChunkPlan& out) const {
  const media::VideoModel& video = this->video();
  const auto& ladder = video.ladder();
  const media::QualityLevel top = ladder.max_level();
  const double chunk_s = sim::to_seconds(video.chunk_duration());
  const int tiles = video.tile_count();

  // quality[t]: -1 = not fetched, else the AVC level allocated so far.
  auto& quality = workspace.tile_quality;
  quality.assign(static_cast<std::size_t>(tiles), -1);
  auto& in_fov = workspace.tile_flag;
  in_fov.assign(static_cast<std::size_t>(tiles), 0);
  for (geo::TileId t : predicted_fov) in_fov[static_cast<std::size_t>(t)] = 1;

  // Hard constraint: the predicted viewport is covered at the base tier,
  // charged before any greedy step (even past the budget — coverage wins).
  std::int64_t spent = 0;
  for (geo::TileId t : predicted_fov) {
    quality[static_cast<std::size_t>(t)] = 0;
    spent += video.avc_size_bytes(0, {t, index});
  }
  // Unknown throughput (startup): the coverage floor is all we commit to.
  // The cap keeps the cast defined for any estimate; a whole plan is below
  // it (VideoModel's bound).
  const std::int64_t budget =
      estimated_kbps > 0.0
          ? static_cast<std::int64_t>(std::min(
                estimated_kbps * kSafety * chunk_s * 1000.0 / 8.0, 9.2e18))
          : spent;

  // Greedy on marginal value density, highest first, ties to the lowest
  // tile id. A max-heap holds each tile's next quality step; only the
  // upgraded tile's entry changes per step. A step that does not fit the
  // budget leaves the heap for good: `spent` only grows and the step's
  // cost only changes when its tile is upgraded, so it would never fit
  // later either. Steps whose density is not > 0 (zero, negative, NaN)
  // never enter, so the heap picks exactly the tiles of a strict-> scan
  // over all tiles in ascending order.
  using TileStep = PlanWorkspace::TileStep;
  const auto below = [](const TileStep& a, const TileStep& b) {
    return a.density < b.density || (a.density == b.density && a.tile > b.tile);
  };
  auto& heap = workspace.step_heap;
  heap.clear();
  // Tile t's next quality step, or nullopt when it has none worth taking.
  const auto next_step = [&](geo::TileId t) -> std::optional<TileStep> {
    const media::QualityLevel q = quality[static_cast<std::size_t>(t)];
    if (q >= top) return std::nullopt;
    const double p = tile_probabilities[static_cast<std::size_t>(t)];
    double gain = 0.0;
    std::int64_t cost = 0;
    const media::ChunkKey key{t, index};
    if (q < 0) {
      if (p < kMinProbability) return std::nullopt;  // never enters
      gain = p * (ladder.utility(0) + kEntryUtility);
      cost = video.avc_size_bytes(0, key);
    } else {
      gain = p * (ladder.utility(q + 1) - ladder.utility(q));
      cost = video.avc_size_bytes(q + 1, key) - video.avc_size_bytes(q, key);
    }
    if (cost <= 0) cost = 1;
    const double density = gain / static_cast<double>(cost);
    if (!(density > 0.0)) return std::nullopt;
    return TileStep{density, t, cost};
  };
  for (geo::TileId t = 0; t < tiles; ++t) {
    if (const auto step = next_step(t)) heap.push_back(*step);
  }
  std::make_heap(heap.begin(), heap.end(), below);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), below);
    const TileStep step = heap.back();
    heap.pop_back();
    if (spent + step.cost > budget) continue;  // does not fit, now or later
    ++quality[static_cast<std::size_t>(step.tile)];
    spent += step.cost;
    if (const auto next = next_step(step.tile)) {
      heap.push_back(*next);
      std::push_heap(heap.begin(), heap.end(), below);
    }
  }

  out.index = index;
  // Nominal FoV quality: the coverage floor actually guaranteed across the
  // predicted viewport (the minimum allocated FoV level).
  media::QualityLevel q_fov = top;
  for (geo::TileId t : predicted_fov) {
    q_fov = std::min(q_fov, quality[static_cast<std::size_t>(t)]);
  }
  out.fov_quality = std::max<media::QualityLevel>(q_fov, 0);
  out.fetches.clear();
  for (geo::TileId t = 0; t < tiles; ++t) {
    const media::QualityLevel q = quality[static_cast<std::size_t>(t)];
    if (q < 0) continue;
    const bool fov = in_fov[static_cast<std::size_t>(t)] != 0;
    out.fetches.push_back({{{t, index}, media::Encoding::kAvc, q},
                           fov ? SpatialClass::kFov : SpatialClass::kOos,
                           tile_probabilities[static_cast<std::size_t>(t)]});
  }
}

}  // namespace sperke::abr
