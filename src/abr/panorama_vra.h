// Naive full-panorama baseline (§2's monolithic strawman, the
// YouTube/Facebook status quo the paper argues against): every tile of
// every chunk at one uniform quality picked by a regular VRA over the
// whole-panorama byte cost. The floor any viewport-adaptive policy must
// beat on bandwidth — and the ceiling on robustness, since nothing is
// ever mispredicted.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "abr/policy.h"

namespace sperke::abr {

struct FullPanoramaConfig {
  // Regular VRA choosing the uniform level (parse_regular_vra names).
  std::string regular_vra = "throughput";
};

class FullPanoramaVra final : public TileAbrPolicy {
 public:
  FullPanoramaVra(std::shared_ptr<const media::VideoModel> video,
                  FullPanoramaConfig config);

  [[nodiscard]] std::string_view name() const override { return "fullpano"; }
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

  std::optional<media::QualityLevel> pinned_;  // parsed regular_vra
};

}  // namespace sperke::abr
