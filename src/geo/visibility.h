// FoV -> tile-set computation: the heart of FoV-guided streaming.
//
// TileGeometry binds a TileGrid on the equirectangular projection
// (geo/projection.h) and answers the questions the streaming stack keeps
// asking:
//   * which tiles does this viewport cover? (visible set)
//   * how far is a tile from the view center? (OOS ranking, §3.1.2)
//   * what fraction of the sphere does a tile cover? (bandwidth weighting)
//
// Hot-path notes (DESIGN.md §8): every query has an out-parameter overload
// taking a reusable Scratch so steady-state callers allocate nothing; the
// allocating signatures are thin wrappers. The per-sample direction->tile
// classification runs on precomputed sin(latitude) row thresholds and
// column-boundary half-plane tests instead of the asin/atan2 chain of
// uv_from_direction, and visible_tiles
// classifies only the samples next to a tile edge crossing plus one sample
// per run between crossings (see mark_crossings). Nothing is cached: a
// caller that re-asks a question keeps the answer itself (the streaming
// session does, DESIGN.md §13).
//
// Thread-safety: a TileGeometry is immutable after construction, so one
// instance may be queried from any number of threads at once provided each
// thread passes its own Scratch (the allocating wrappers use a thread-local
// one). The sharded engine relies on this to share one VideoModel per world.
#pragma once

#include <cstdint>
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
    struct Plane {
      double c, s, inv_slope;
    };
    std::vector<Plane> planes;                     // meridian planes in view
    std::vector<std::uint64_t> near;               // column samples near an edge
    std::vector<std::uint64_t> starts;             // column run starts
    std::vector<TileId> queue;                     // oos_rings BFS FIFO
  };

  explicit TileGeometry(TileGrid grid);

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

  // BFS ring index per tile, 0 = inside `visible`, 1 = adjacent, etc.
  // Horizontal adjacency wraps. Index = TileId.
  [[nodiscard]] std::vector<int> oos_rings(const std::vector<TileId>& visible) const;
  void oos_rings(const std::vector<TileId>& visible, std::vector<int>& out,
                 Scratch& scratch) const;

  // Fraction of the sphere's solid angle covered by each tile (sums to ~1).
  // Precomputed by uniform-on-sphere sampling at construction, from
  // per-axis sample counts (DESIGN.md §8).
  [[nodiscard]] const std::vector<double>& solid_angle_fractions() const {
    return solid_angle_;
  }

  // Unit direction of a tile's center.
  [[nodiscard]] Vec3 tile_center_direction(TileId id) const;
  // Every tile's center direction; index = TileId.
  [[nodiscard]] const std::vector<Vec3>& tile_centers() const { return tile_centers_; }

 private:
  // Fills solid_angle_ with sample counts from per-axis counts; false
  // (nothing written) when a sample coordinate lies too close to a tile
  // boundary for the per-axis value to be trusted over the per-sample
  // direction round trip.
  [[nodiscard]] bool count_samples();
  [[nodiscard]] TileId classify(const Vec3& dir) const;
  // Tile of a direction (any length) farther than the crossing margin from
  // every tile edge.
  [[nodiscard]] TileId classify_clear(const Vec3& p) const;
  // Fills scratch.near / scratch.starts for the frustum column fr + b·up_step
  // (b in [-1, 1]); false when the column grazes an edge, and every sample
  // must then go through classify.
  [[nodiscard]] bool mark_crossings(const Vec3& fr, const Vec3& up_step,
                                    Scratch& scratch) const;

  TileGrid grid_;
  std::vector<double> solid_angle_;
  std::vector<Vec3> tile_centers_;

  // Sign-test classifier tables. Tile edges are constant-latitude /
  // constant-longitude lines, so a sample classifies with sign tests only:
  // the row counts z against the precomputed sin(latitude) band
  // boundaries, the column counts cross-product tests against the
  // precomputed boundary meridians of the sample's longitude half (each
  // test spans < 180°, so it is exact there).
  std::vector<double> row_sin_;                          // descending
  std::vector<std::pair<double, double>> col_neg_;       // (cos, sin), lon < 0
  std::vector<std::pair<double, double>> col_pos_;       // (cos, sin), lon > 0
  int col_base_ = 0;                                     // #boundaries lon <= 0
  // Every plane a column sign test can flip on: the y == 0 half-split
  // first, then each boundary meridian's plane, as (cos, sin) pairs.
  std::vector<std::pair<double, double>> edge_planes_;
};

}  // namespace sperke::geo
