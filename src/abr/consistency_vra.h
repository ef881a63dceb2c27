// Spatial + temporal consistency-aware tile allocator, after Yuan et al.,
// "Spatial and temporal consistency-aware dynamic adaptive streaming for
// 360-degree videos" (arXiv:1912.09675).
//
// Two smoothness constraints shape the allocation instead of a pure
// expected-utility objective:
//   * spatial consistency — quality falls *gradually* with grid distance
//     from the viewport (abrupt tile seams inside the FoV are what users
//     notice most), implemented as the first two rings of
//     geo::TileGeometry::oos_rings, dropping one level per ring;
//   * temporal consistency — the FoV quality may rise at most one level
//     per chunk (no quality flicker), though it may drop freely when
//     throughput collapses (stalls beat smoothness).
// The chosen FoV quality is then the largest one whose *whole* smoothed
// plan (FoV + rings) fits the safety-discounted byte budget.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "abr/policy.h"

namespace sperke::abr {

class ConsistencyVra final : public TileAbrPolicy {
 public:
  explicit ConsistencyVra(std::shared_ptr<const media::VideoModel> video);

  [[nodiscard]] std::string_view name() const override { return "consistency"; }
  // All-AVC: mid-flight upgrades would break exactly the temporal
  // smoothness the policy optimizes for, so there is no layered path.
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
