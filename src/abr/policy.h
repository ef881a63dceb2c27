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

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "abr/oos.h"
#include "abr/plan.h"
#include "abr/regular_vra.h"
#include "media/video_model.h"

namespace sperke::abr {

class TileAbrPolicy {
 public:
  // Reusable buffers threaded through plan_chunk_into so steady-state
  // planning allocates nothing (DESIGN.md §8). One workspace per session;
  // single-threaded use only. The scratch set is the union of what the
  // implementations need — a policy ignores the fields it does not use.
  struct PlanWorkspace {
    VraContext ctx;
    OosSelector::Workspace oos;
    // Per-tile allocation scratch (knapsack / consistency allocators):
    // quality or ring index per tile, FoV membership flags, BFS frontiers.
    std::vector<media::QualityLevel> tile_quality;
    std::vector<char> tile_flag;
    std::vector<geo::TileId> frontier;
    std::vector<geo::TileId> next_frontier;
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
  //  `tile_probabilities`   — fusion HMP output for this chunk (empty when
  //                           the caller has no probability map);
  //  `estimated_kbps`       — current throughput estimate (0 = unknown);
  //  `buffer_level`         — media time buffered ahead of the playhead;
  //  `last_quality`         — previous FoV quality (switch damping).
  virtual void plan_chunk_into(media::ChunkIndex index,
                               const std::vector<geo::TileId>& predicted_fov,
                               std::span<const double> tile_probabilities,
                               double estimated_kbps, sim::Duration buffer_level,
                               media::QualityLevel last_quality,
                               PlanWorkspace& workspace, ChunkPlan& out) const = 0;

  // Allocating convenience wrapper over plan_chunk_into (cold paths, tests).
  [[nodiscard]] ChunkPlan plan_chunk(media::ChunkIndex index,
                                     const std::vector<geo::TileId>& predicted_fov,
                                     std::span<const double> tile_probabilities,
                                     double estimated_kbps,
                                     sim::Duration buffer_level,
                                     media::QualityLevel last_quality) const;

  // Runtime incremental upgrades (§3.1.1, part 3 of the VRA): should a
  // buffered tile displayed at `current` quality be upgraded to `target`,
  // given its display probability and deadline slack? Policies without an
  // upgrade concept keep the default no-upgrade answer and return a zero
  // upgrade_window() so the session never even schedules the scan.
  [[nodiscard]] virtual UpgradeDecision consider_upgrade(
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
};

}  // namespace sperke::abr
