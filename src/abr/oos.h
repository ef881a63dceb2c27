// Out-of-sight (OOS) chunk selection — part two of the §3.1.2 VRA design.
//
// Given the per-tile viewing probabilities from HMP fusion, choose which
// tiles *outside* the predicted FoV to fetch and at what (lower) qualities,
// under a byte budget. The three factors the paper names:
//   1. bandwidth budget — an explicit byte budget relative to the FoV bytes;
//   2. HMP accuracy    — probability mass escaping the predicted FoV widens
//                        the budget (more randomness, more protection);
//   3. data-driven     — the probabilities themselves already fold in crowd
//                        statistics and context pruning (hmp/fusion.h).
#pragma once

#include <span>
#include <vector>

#include "abr/plan.h"
#include "geo/tile_grid.h"

namespace sperke::abr {

enum class OosQualityPolicy {
  // Quality falls stepwise with the probability rank (the paper's "the
  // further away, the lower the quality").
  kRankLadder,
  // Quality proportional to the tile's probability relative to the best
  // OOS candidate: q = fov_quality - 1 scaled down by prob/prob_max.
  kProbabilityProportional,
};

struct OosConfig {
  // Extra bytes for OOS tiles as a fraction of the FoV super-chunk bytes.
  double budget_fraction = 0.35;
  // Scale the budget by predicted FoV miss mass (factor 2 at total miss).
  bool accuracy_scaling = true;
  OosQualityPolicy quality_policy = OosQualityPolicy::kRankLadder;
  // kRankLadder: quality of the best OOS tile relative to the FoV quality.
  int first_quality_drop = 1;
  // kRankLadder: every `tiles_per_step` OOS tiles, drop one more level.
  int tiles_per_step = 3;
};

class OosSelector {
 public:
  // Reusable candidate buffers so steady-state selection allocates nothing
  // (DESIGN.md §8). Single-threaded use only.
  struct Workspace {
    std::vector<char> in_fov;
    std::vector<geo::TileId> candidates;
  };

  explicit OosSelector(OosConfig config = {});

  // Append OOS fetches to `plan` (which already holds the FoV fetches).
  // `probabilities` indexes tiles; `fov_tiles` are excluded from selection.
  // `encoding` chooses AVC chunks or SVC layer stacks for the OOS tiles.
  void select(ChunkPlan& plan, const media::VideoModel& video,
              const std::vector<geo::TileId>& fov_tiles,
              std::span<const double> probabilities,
              media::Encoding encoding) const;
  void select(ChunkPlan& plan, const media::VideoModel& video,
              const std::vector<geo::TileId>& fov_tiles,
              std::span<const double> probabilities,
              media::Encoding encoding, Workspace& workspace) const;

  [[nodiscard]] const OosConfig& config() const { return config_; }

 private:
  OosConfig config_;
};

}  // namespace sperke::abr
