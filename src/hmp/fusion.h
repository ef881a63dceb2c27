// The paper's "data fusion" HMP (§3.2): joint use of
//   (1) a motion predictor over the user's own recent head movement,
//   (2) crowd-sourced per-video viewing statistics (ViewingHeatmap),
//   (3) contextual constraints (pose reachability, per-user speed bound).
//
// Output is a per-tile viewing probability map for a future playback time —
// exactly what the OOS chunk selector (§3.1.2) consumes: crowd data *adds*
// candidate tiles, context *prunes* them.
//
// Every const query is a pure function of the predictor's state, which
// only observe() changes; the map is computed in one fused pass
// (DESIGN.md §8) with nothing cached between calls. A const
// FusionPredictor may therefore be queried from any number of threads at
// once. The streaming session keeps the answers it reuses (DESIGN.md §13).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "geo/visibility.h"
#include "hmp/heatmap.h"
#include "hmp/predictor.h"

namespace sperke::hmp {

// Per-user / per-session context (§3.2's third data dimension).
struct ViewingContext {
  std::optional<Pose> pose;               // constrains reachable yaw band
  std::optional<double> max_speed_dps;    // learned per-user speed bound
  double home_yaw_deg = 0.0;              // pose band center
  // Engagement level from reaction sensing / gaze tracking ([15], §3.2):
  // 1 = locked onto the content (small prediction spread, sharp saccades
  // unlikely), 0 = disengaged/scanning (spread widens). Scales the motion
  // error model's growth term by (1.5 - engagement), so the default 0.5
  // leaves the calibrated model untouched.
  double engagement = 0.5;
};

struct FusionConfig {
  // Angular error model of the motion predictor: sigma(h) = base + growth*h.
  double sigma_base_deg = 12.0;
  double sigma_growth_dps = 25.0;
  // Motion weight decays with horizon beyond a grace period:
  // w(h) = exp(-max(0, h - grace) / tau); the remainder goes to the crowd
  // prior (or a uniform floor without crowd data). Below the grace horizon
  // the user's own motion is near-certain and must not be diluted.
  double motion_tau_s = 1.5;
  double motion_grace_s = 0.5;
  // Floor probability mass spread uniformly (keeps every tile fetchable).
  double uniform_floor = 0.02;
};

class FusionPredictor {
 public:
  FusionPredictor(std::shared_ptr<const geo::TileGeometry> geometry,
                  geo::Viewport viewport,
                  std::unique_ptr<OrientationPredictor> motion,
                  const ViewingHeatmap* crowd,  // may be null; not owned
                  ViewingContext context = {}, FusionConfig config = {});

  // Feed a sensor reading.
  void observe(const HeadSample& sample);

  // Point prediction from the motion component only.
  [[nodiscard]] geo::Orientation predict_orientation(sim::Duration horizon) const;

  // Per-tile viewing probability for the chunk played `horizon` from now
  // (`chunk` selects the crowd prior row). Sums to 1.
  [[nodiscard]] std::vector<double> tile_probabilities(sim::Duration horizon,
                                                       media::ChunkIndex chunk) const;
  void tile_probabilities_into(sim::Duration horizon, media::ChunkIndex chunk,
                               std::vector<double>& out) const;
  // Same fused pass writing into caller storage of exactly tile_count()
  // doubles — typically a core::SessionBatch probability slot, so batched
  // sessions share one contiguous slab (DESIGN.md §13).
  void tile_probabilities_into(sim::Duration horizon, media::ChunkIndex chunk,
                               std::span<double> out) const;

  [[nodiscard]] const geo::TileGeometry& geometry() const { return *geometry_; }
  [[nodiscard]] const geo::Viewport& viewport() const { return viewport_; }
  [[nodiscard]] const ViewingContext& context() const { return context_; }
  [[nodiscard]] const FusionConfig& config() const { return config_; }

 private:
  std::shared_ptr<const geo::TileGeometry> geometry_;
  geo::Viewport viewport_;
  std::unique_ptr<OrientationPredictor> motion_;
  const ViewingHeatmap* crowd_;
  ViewingContext context_;
  FusionConfig config_;
  std::optional<HeadSample> last_sample_;
  std::vector<double> center_lon_deg_;  // per-tile center longitude (pruning)
};

}  // namespace sperke::hmp
