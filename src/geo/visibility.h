// FoV -> tile-set computation: the heart of FoV-guided streaming.
//
// TileGeometry binds a Projection and a TileGrid and answers the questions
// the streaming stack keeps asking:
//   * which tiles does this viewport cover? (visible set)
//   * how far is a tile from the view center? (OOS ranking, §3.1.2)
//   * what fraction of the sphere does a tile cover? (bandwidth weighting)
//
// Hot-path notes (DESIGN.md §8): every query has an out-parameter overload
// taking a reusable Scratch so steady-state callers allocate nothing; the
// allocating signatures are thin wrappers. For the equirectangular
// projection the per-sample direction->tile classification runs on
// precomputed sin(latitude) row thresholds and column-boundary half-plane
// tests instead of the generic asin/atan2 chain. Nothing is cached: a
// caller that re-asks a question keeps the answer itself (the streaming
// session does, DESIGN.md §13).
//
// Thread-safety: a TileGeometry is immutable after construction, so one
// instance may be queried from any number of threads at once provided each
// thread passes its own Scratch (the allocating wrappers use a thread-local
// one). The sharded engine relies on this to share one VideoModel per world.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "geo/orientation.h"
#include "geo/projection.h"
#include "geo/tile_grid.h"

namespace sperke::geo {

// Field of view of the headset/screen; fixed device parameters per §2.
struct Viewport {
  double width_deg = 100.0;   // horizontal extent
  double height_deg = 90.0;   // vertical extent
};

class TileGeometry {
 public:
  // Reusable per-call buffers for the out-parameter overloads; no answer
  // outlives the call, so every query is a pure function of its inputs.
  // One Scratch may serve any number of TileGeometry instances but only
  // one thread; nothing here is synchronized.
  struct Scratch {
    std::vector<char> seen;                        // visible_tiles marks
    std::vector<Vec3> up_terms;                    // per-row frustum offsets
    std::vector<std::pair<double, TileId>> keys;   // tiles_by_distance keys
    std::vector<TileId> queue;                     // oos_rings BFS FIFO
  };

  // Takes shared ownership of the projection so sessions can share one.
  TileGeometry(std::shared_ptr<const Projection> projection, TileGrid grid,
               int samples_per_axis = 24);

  [[nodiscard]] const Projection& projection() const { return *projection_; }
  [[nodiscard]] const TileGrid& grid() const { return grid_; }

  // Tiles intersected by the perspective viewport at the given orientation.
  // Computed by sampling rays across the frustum; sorted, unique.
  [[nodiscard]] std::vector<TileId> visible_tiles(const Orientation& view,
                                                  const Viewport& viewport) const;
  void visible_tiles(const Orientation& view, const Viewport& viewport,
                     std::vector<TileId>& out, Scratch& scratch) const;

  // Great-circle distance (degrees) from the view direction to each tile's
  // center direction; index = TileId. Used to rank OOS tiles.
  [[nodiscard]] std::vector<double> tile_distances_deg(const Orientation& view) const;
  void tile_distances_deg(const Orientation& view, std::vector<double>& out) const;

  // All tiles ordered by increasing angular distance from the view center;
  // ties broken by ascending TileId.
  [[nodiscard]] std::vector<TileId> tiles_by_distance(const Orientation& view) const;
  void tiles_by_distance(const Orientation& view, std::vector<TileId>& out,
                         Scratch& scratch) const;

  // BFS ring index per tile, 0 = inside `visible`, 1 = adjacent, etc.
  // Horizontal adjacency wraps. Index = TileId.
  [[nodiscard]] std::vector<int> oos_rings(const std::vector<TileId>& visible) const;
  void oos_rings(const std::vector<TileId>& visible, std::vector<int>& out,
                 Scratch& scratch) const;

  // Fraction of the sphere's solid angle covered by each tile (sums to ~1).
  // Precomputed by uniform-on-sphere sampling at construction.
  [[nodiscard]] const std::vector<double>& solid_angle_fractions() const {
    return solid_angle_;
  }

  // Unit direction of a tile's center.
  [[nodiscard]] Vec3 tile_center_direction(TileId id) const;
  // Every tile's center direction; index = TileId.
  [[nodiscard]] const std::vector<Vec3>& tile_centers() const { return tile_centers_; }

 private:
  [[nodiscard]] TileId classify_equirect(const Vec3& dir) const;
  [[nodiscard]] TileId classify(const Vec3& dir) const;

  std::shared_ptr<const Projection> projection_;
  TileGrid grid_;
  int samples_per_axis_;
  std::vector<double> solid_angle_;
  std::vector<Vec3> tile_centers_;

  // Equirect fast-classifier tables (empty for other projections). Tile
  // edges are constant-latitude / constant-longitude lines, so a sample
  // classifies with sign tests only: the row counts z against the
  // precomputed sin(latitude) band boundaries, the column counts
  // cross-product tests against the precomputed boundary meridians of the
  // sample's longitude half (each test spans < 180°, so it is exact there).
  bool equirect_fast_ = false;
  std::vector<double> row_sin_;                          // descending
  std::vector<std::pair<double, double>> col_neg_;       // (cos, sin), lon < 0
  std::vector<std::pair<double, double>> col_pos_;       // (cos, sin), lon > 0
  int col_base_ = 0;                                     // #boundaries lon <= 0
};

}  // namespace sperke::geo
