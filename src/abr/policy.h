// The pluggable 360° tile-ABR policy interface (ROADMAP item 2): every
// viewport-adaptive rate allocator — the paper's Sperke VRA (§3.1.2) and
// the related-work competitors — implements this one interface, and
// core::Session, live::TiledViewer and engine::WorldSpec hold it instead
// of a concrete class, so every scenario is a comparison rather than a
// demo. Instances are built by abr::make_policy (abr/factory.h) from a
// policy name + config; the *config* travels through specs (value
// semantics) and each consumer constructs its own instance, which is what
// keeps engine shards free of shared mutable state and their merged
// metrics byte-identical at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "abr/oos.h"
#include "abr/plan.h"
#include "geo/visibility.h"
#include "media/video_model.h"

namespace sperke::abr {

class TileAbrPolicy {
 public:
  // Reusable buffers threaded through plan_chunk_into so steady-state
  // planning allocates nothing (DESIGN.md §8). One workspace per session;
  // single-threaded use only. The scratch set is the union of what the
  // implementations need — a policy ignores the fields it does not use.
  struct PlanWorkspace {
    // Super-chunk cost per ladder level, kbps (the regular VRA's input).
    std::vector<double> level_kbps;
    OosSelector::Workspace oos;
    // Per-tile allocation scratch (knapsack / consistency allocators):
    // quality or ring index per tile, FoV membership flags, and the ring
    // BFS queue of TileGeometry::oos_rings.
    std::vector<media::QualityLevel> tile_quality;
    std::vector<char> tile_flag;
    geo::TileGeometry::Scratch geo;
    // The knapsack planner's max-heap: one entry per tile, that tile's next
    // quality step with its value density and marginal bytes.
    struct TileStep {
      double density = 0.0;
      geo::TileId tile = 0;
      std::int64_t cost = 0;
    };
    std::vector<TileStep> step_heap;
  };

  struct UpgradeDecision {
    bool upgrade = false;
    std::vector<media::ChunkAddress> fetches;  // deltas (SVC) or refetch (AVC)
    std::int64_t bytes = 0;
  };

  virtual ~TileAbrPolicy() = default;

  // The factory name ("sperke", "knapsack", ...). Also scopes the policy's
  // obs counters (abr.<name>.plans), so it must match [a-z0-9_]+.
  [[nodiscard]] virtual std::string_view name() const = 0;

  // Plan all fetches for chunk `index`, written into `out` (reset first),
  // scratch from `workspace`.
  //  `predicted_fov`        — tiles of the predicted viewport (sorted);
  //  `tile_probabilities`   — fusion HMP output for this chunk, one entry
  //                           per tile of the grid;
  //  `estimated_kbps`       — current throughput estimate (0 = unknown);
  //  `buffer_level`         — media time buffered ahead of the playhead
  //                           (no current policy reads it);
  //  `last_quality`         — previous FoV quality (consistency's rise cap).
  // Throws std::invalid_argument for an empty FoV, a map whose size is not
  // the video's tile count, or a FoV tile outside [0, tile_count), then
  // hands the checked inputs to the policy's plan_into.
  void plan_chunk_into(media::ChunkIndex index,
                       const std::vector<geo::TileId>& predicted_fov,
                       std::span<const double> tile_probabilities,
                       double estimated_kbps, sim::Duration buffer_level,
                       media::QualityLevel last_quality,
                       PlanWorkspace& workspace, ChunkPlan& out) const;

  // Allocating convenience wrapper over plan_chunk_into (cold paths, tests).
  [[nodiscard]] ChunkPlan plan_chunk(media::ChunkIndex index,
                                     const std::vector<geo::TileId>& predicted_fov,
                                     std::span<const double> tile_probabilities,
                                     double estimated_kbps,
                                     sim::Duration buffer_level,
                                     media::QualityLevel last_quality) const;

  // Runtime incremental upgrades (§3.1.1, part 3 of the VRA): should a
  // buffered tile displayed at `current` quality be upgraded to `target`,
  // given its display probability and deadline slack? The answer is written
  // into `out`, reset first; its fetch list keeps its capacity, so a caller
  // that reuses one decision allocates nothing. Policies without an upgrade
  // concept keep the default no-upgrade answer and return a zero
  // upgrade_window() so the session never even schedules the scan.
  void consider_upgrade_into(const media::ChunkKey& key,
                             media::QualityLevel current,
                             media::QualityLevel svc_layer_base,
                             media::QualityLevel target,
                             double visible_probability,
                             sim::Duration time_to_deadline,
                             double estimated_kbps, UpgradeDecision& out) const;

  // Allocating convenience wrapper over consider_upgrade_into (tests).
  [[nodiscard]] UpgradeDecision consider_upgrade(
      const media::ChunkKey& key, media::QualityLevel current,
      media::QualityLevel svc_layer_base, media::QualityLevel target,
      double visible_probability, sim::Duration time_to_deadline,
      double estimated_kbps) const;

  // Encoding for base-tier emergency fetches (stall coverage, degraded
  // recovery retries): the cheapest displayable address of a tile chunk.
  [[nodiscard]] virtual media::Encoding base_tier_encoding() const = 0;

  // Deadline slack below which runtime upgrades are worth scanning. The
  // session hoists this test in front of the per-chunk prediction work and
  // skips scheduling the scan task entirely when the window is zero.
  [[nodiscard]] virtual sim::Duration upgrade_window() const {
    return sim::Duration{0};
  }

 protected:
  // Throws std::invalid_argument for a null video.
  explicit TileAbrPolicy(std::shared_ptr<const media::VideoModel> video);

  // The video every plan is costed against.
  [[nodiscard]] const media::VideoModel& video() const { return *video_; }

 private:
  // plan_chunk_into with inputs already checked: a non-empty FoV of
  // in-range tiles and a full probability map.
  virtual void plan_into(media::ChunkIndex index,
                         const std::vector<geo::TileId>& predicted_fov,
                         std::span<const double> tile_probabilities,
                         double estimated_kbps, sim::Duration buffer_level,
                         media::QualityLevel last_quality,
                         PlanWorkspace& workspace, ChunkPlan& out) const = 0;

  // consider_upgrade_into after `out` is reset to "no upgrade", which the
  // default keeps.
  virtual void decide_upgrade(const media::ChunkKey& /*key*/,
                              media::QualityLevel /*current*/,
                              media::QualityLevel /*svc_layer_base*/,
                              media::QualityLevel /*target*/,
                              double /*visible_probability*/,
                              sim::Duration /*time_to_deadline*/,
                              double /*estimated_kbps*/,
                              UpgradeDecision& /*out*/) const {}

  std::shared_ptr<const media::VideoModel> video_;
};

// The regular VRA of §3.1.2 part 1, named by a config string:
// "throughput" (FESTIVE-like [29]) adapts and yields nullopt; "fixed-<q>"
// pins every chunk to level q (equal-quality comparisons, §2) and yields
// q. Throws std::invalid_argument for any other name, listing the valid
// ones.
[[nodiscard]] std::optional<media::QualityLevel> parse_regular_vra(
    std::string_view name);

// The regular VRA's level for a super chunk costing `level_kbps[q]` kbps at
// level q: the pin clamped to the ladder top, or else the highest level
// that fits 0.85 x `estimated_kbps` (0 while the estimate is unknown).
// Throws std::invalid_argument for an empty ladder.
[[nodiscard]] media::QualityLevel regular_vra_level(
    std::span<const double> level_kbps, double estimated_kbps,
    std::optional<media::QualityLevel> pinned);

// The super chunk's tiles (§3.1.2): the `count` most probable tiles of
// `probs`, ties to the lower id, written into `out` in ascending id order.
// Players size `count` from the motion-predicted viewport and take the
// tiles from the fused probability map: at short horizons the map is
// motion-dominated (same tiles), at long ones the crowd prior takes over.
void super_chunk_tiles(std::span<const double> probs, std::size_t count,
                       std::vector<geo::TileId>& out);

}  // namespace sperke::abr
