// Out-of-sight (OOS) chunk selection — part two of the §3.1.2 VRA design.
//
// Given the per-tile viewing probabilities from HMP fusion, choose which
// tiles *outside* the predicted FoV to fetch and at what (lower) qualities,
// under a byte budget. The three factors the paper names:
//   1. bandwidth budget — an explicit byte budget relative to the FoV bytes;
//   2. HMP accuracy    — probability mass escaping the predicted FoV widens
//                        the budget by (1 + miss mass) (more randomness,
//                        more protection);
//   3. data-driven     — the probabilities themselves already fold in crowd
//                        statistics and context pruning (hmp/fusion.h).
#pragma once

#include <span>
#include <vector>

#include "abr/plan.h"
#include "geo/tile_grid.h"

namespace sperke::abr {

struct OosConfig {
  // Extra bytes for OOS tiles as a fraction of the FoV super-chunk bytes,
  // before the accuracy scaling by (1 + FoV miss mass). Finite, >= 0.
  double budget_fraction = 0.35;
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

  // Append OOS fetches to `plan` (which already holds the FoV fetches),
  // most probable tile first until the budget is spent. The first OOS tile
  // sits one level below the FoV quality, and every 3 tiles drop one more.
  // `probabilities` indexes tiles; `fov_tiles` are excluded from selection.
  // `encoding` chooses AVC chunks or SVC layer stacks for the OOS tiles.
  void select(ChunkPlan& plan, const media::VideoModel& video,
              const std::vector<geo::TileId>& fov_tiles,
              std::span<const double> probabilities,
              media::Encoding encoding, Workspace& workspace) const;

 private:
  OosConfig config_;
};

}  // namespace sperke::abr
