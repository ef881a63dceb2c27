// Knapsack / LP-relaxation tile-rate allocator, after Ghosh, Aggarwal &
// Qian, "A rate adaptation algorithm for tile-based 360-degree video
// streaming" (arXiv:1704.08215).
//
// Their formulation: maximize the expected viewport quality of one chunk,
//   max  Σ_t p_t · u(q_t)   s.t.   Σ_t bytes(t, q_t) ≤ B,
// where p_t is tile t's viewing probability and B the chunk's byte budget
// derived from the throughput estimate. Each quality *step* of each tile
// is a knapsack item valued at the marginal expected utility p_t·Δu and
// weighing the marginal bytes Δbytes; for concave per-tile utility the
// greedy by value density p·Δu/Δbytes matches the LP relaxation's optimum
// up to the single fractional item, which an integral allocation simply
// drops. The predicted FoV is fetched at the base tier unconditionally
// (viewport coverage is a hard constraint in the paper), charged against
// the budget before the greedy runs.
//
// Cost: the greedy keeps each tile's next quality step in a max-heap, so
// one plan is O(T·L·log T) for T tiles and L ladder levels (each step is
// pushed and popped once), not a scan of all T tiles per step.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "abr/policy.h"

namespace sperke::abr {

class KnapsackVra final : public TileAbrPolicy {
 public:
  explicit KnapsackVra(std::shared_ptr<const media::VideoModel> video);

  [[nodiscard]] std::string_view name() const override { return "knapsack"; }
  // All-AVC: the allocation is final per chunk, no upgrade path to keep
  // layered (and no SVC byte overhead to pay).
  [[nodiscard]] media::Encoding base_tier_encoding() const override {
    return media::Encoding::kAvc;
  }

 private:
  void plan_into(media::ChunkIndex index,
                 const std::vector<geo::TileId>& predicted_fov,
                 std::span<const double> tile_probabilities,
                 double estimated_kbps, sim::Duration buffer_level,
                 media::QualityLevel last_quality, PlanWorkspace& workspace,
                 ChunkPlan& out) const override;
};

}  // namespace sperke::abr
