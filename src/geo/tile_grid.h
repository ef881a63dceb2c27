// Spatial tiling of the panorama plane (the "Tile" axis of C(q, l, t)).
//
// Tiles are an axis-aligned rows x cols grid over the projection's
// normalized [0,1)^2 plane. A TileId is a dense integer in
// [0, rows*cols), row-major, so it can index vectors directly.
#pragma once

#include <climits>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "geo/projection.h"

namespace sperke::geo {

using TileId = std::int32_t;

class TileGrid {
 public:
  TileGrid(int rows, int cols) : rows_(rows), cols_(cols) {
    if (rows <= 0 || cols <= 0) throw std::invalid_argument("TileGrid: non-positive dims");
    if (rows > INT_MAX / cols) throw std::invalid_argument("TileGrid: tile count overflows");
  }

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int tile_count() const { return rows_ * cols_; }

  [[nodiscard]] TileId tile_id(int row, int col) const {
    check_rc(row, col);
    return static_cast<TileId>(row * cols_ + col);
  }
  [[nodiscard]] int row_of(TileId id) const { check_id(id); return id / cols_; }
  [[nodiscard]] int col_of(TileId id) const { check_id(id); return id % cols_; }

  // Tile containing a point of the normalized panorama plane.
  [[nodiscard]] TileId tile_at(Uv uv) const;

  // Center of a tile in the normalized plane.
  [[nodiscard]] Uv tile_center(TileId id) const;

  // Horizontal neighbors wrap around (the panorama is periodic in u);
  // vertical neighbors do not. Returns 4-neighbourhood. The library's ring
  // BFS (TileGeometry::oos_rings) inlines this adjacency without
  // allocating; this allocating form is the tests' independent reference.
  [[nodiscard]] std::vector<TileId> neighbors(TileId id) const;

  [[nodiscard]] bool contains(TileId id) const { return id >= 0 && id < tile_count(); }

  friend bool operator==(const TileGrid&, const TileGrid&) = default;

 private:
  void check_rc(int row, int col) const {
    if (row < 0 || row >= rows_ || col < 0 || col >= cols_) {
      throw std::out_of_range("TileGrid: row/col out of range");
    }
  }
  void check_id(TileId id) const {
    if (!contains(id)) throw std::out_of_range("TileGrid: TileId out of range");
  }

  int rows_;
  int cols_;
};

}  // namespace sperke::geo
